"""Artifact writers for scenario runs.

Every writer is deterministic: floats are rendered with %.17g (round-trip
exact for doubles), rows follow array order, and no timestamps or machine
identifiers enter the files.  Identical states therefore produce bitwise
identical artifacts.  The two node CSVs are streamed to disk a chunk of rows
at a time.  A row's index and coordinate columns depend on the node alone, so
they are rendered once per grid line (str(i) and %.17g of the axis linspace)
and gathered per row; each chunk's values are formatted by one %-operation.
The files hold the same bytes as a value-by-value rendering.

Formats
-------
trace.csv        iter,energy,grad_sup,step,rejects
fields_u.csv     <idx>,<coords>,u1,u2,u3           idx = i[,j[,k]] node index
fields_nu.csv    <idx>,<coords>,nu1,...,nuM        coords = x1[,x2[,x3]]
residuals.csv    law,raw,scale,ratio
fields.npz       u, nu, pinned_u, pinned_nu, active, lo, hi, cells
report.txt       free-form summary, one finding per line
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path

import numpy as np

from .balance import ResidualReport
from .fields import FieldState


# rows formatted per write of a node CSV; bounds the memory of the text
_CHUNK_ROWS = 2048


def _fg(v: float) -> str:
    return f"{float(v):.17g}"


def write_trace(path: Path, trace: np.ndarray) -> None:
    lines = ["iter,energy,grad_sup,step,rejects"]
    for k, row in enumerate(np.asarray(trace)):
        lines.append(f"{k},{_fg(row[0])},{_fg(row[1])},{_fg(row[2])},{int(row[3])}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_node_csv(path: Path, state: FieldState, values: np.ndarray,
                    comp_header: str) -> None:
    """Stream one row per node, _CHUNK_ROWS rows per write; '%.17g' % x renders
    every double (-0.0, nan, inf) exactly as _fg does."""
    grid = state.grid
    dim = grid.dim
    axes = grid.node_axes()
    # per-axis text of the i,j,k and x1,x2,x3 columns, in column order
    tokens = ([np.array([str(i) for i in range(x.size)], dtype=object) for x in axes]
              + [np.array(["%.17g" % v for v in x.tolist()], dtype=object) for x in axes])
    vals = values.reshape(-1, values.shape[-1])
    row = "%s," * (2 * dim) + ",".join(["%.17g"] * vals.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"i,j,k,x1,x2,x3,{comp_header}\n")
        for start in range(0, vals.shape[0], _CHUNK_ROWS):
            chunk = vals[start:start + _CHUNK_ROWS]
            node = np.unravel_index(np.arange(start, start + chunk.shape[0]), grid.nodes)
            table = np.empty((chunk.shape[0], 2 * dim + chunk.shape[1]), dtype=object)
            for col, tok in enumerate(tokens):
                table[:, col] = tok[node[col % dim]]
            table[:, 2 * dim:] = chunk
            fh.write(row * chunk.shape[0] % tuple(table.ravel().tolist()))


def _savez_deterministic(path: Path, arrays: dict[str, np.ndarray]) -> None:
    # np.savez stamps entries with the wall clock; freeze the timestamp so
    # repeated runs byte-match.  np.load reads the result as usual.
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]))
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def write_fields(out_dir: Path, state: FieldState) -> None:
    out = Path(out_dir)
    u_header = ",".join(f"u{a + 1}" for a in range(3))
    _write_node_csv(out / "fields_u.csv", state, state.u, u_header)
    m = state.embed_dim
    nu_header = ",".join(f"nu{a + 1}" for a in range(m))
    _write_node_csv(out / "fields_nu.csv", state, state.nu, nu_header)
    _savez_deterministic(
        out / "fields.npz",
        {
            "u": state.u,
            "nu": state.nu,
            "pinned_u": state.pinned_u,
            "pinned_nu": state.pinned_nu,
            "active": state.active,
            "lo": np.asarray(state.grid.lo),
            "hi": np.asarray(state.grid.hi),
            "cells": np.asarray(state.grid.cells),
        },
    )


def write_residuals(path: Path, report: ResidualReport) -> None:
    lines = ["law,raw,scale,ratio"]
    for name, raw, scale, ratio in report.rows():
        lines.append(f"{name},{_fg(raw)},{_fg(scale)},{_fg(ratio)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report(path: Path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n")


def load_fields(path: Path) -> dict:
    """Read back a fields.npz dump (verification and plotting helpers)."""
    with np.load(Path(path)) as data:
        return {k: data[k] for k in data.files}
