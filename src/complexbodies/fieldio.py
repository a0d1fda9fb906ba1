"""Artifact writers for scenario runs.

Every writer is deterministic: floats are rendered with %.17g (round-trip
exact for doubles), rows follow array order, and no timestamps or machine
identifiers enter the files.  Identical states therefore produce bitwise
identical artifacts.

The two node CSVs render each distinct double of a column once.  A column's
values are deduplicated by their uint64 bit patterns (so -0.0 stays apart
from 0.0), and the distinct ones are formatted by one %-operation into
fixed-width, space-padded text: one row of a uint8 matrix per value, with
its comma.  The index and coordinate columns are rendered the same way, once
per grid line.  The files are streamed a chunk of rows at a time: numpy
gathers each column's text rows into one uint8 matrix per chunk, the last
comma of a row becomes its newline, and the padding is dropped as the bytes
are written.  The files hold the same bytes as a value-by-value rendering.

Formats
-------
trace.csv        iter,energy,grad_sup,step,rejects
fields_u.csv     i,j,k,x1,x2,x3,u1,u2,u3           node index, node coordinates
fields_nu.csv    i,j,k,x1,x2,x3,nu1,...,nuM
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


# rows assembled per write of a node CSV; bounds the memory of the text
_CHUNK_ROWS = 2048
# the width that the texts of a node CSV are padded to, that of the longest
# '%.17g' text of a double (-1.2345678901234567e-308), and the padding byte,
# which no rendered number contains
_WIDTH = 24
_PAD = ord(" ")


def _fg(v: float) -> str:
    return f"{float(v):.17g}"


def write_trace(path: Path, trace: np.ndarray) -> None:
    lines = ["iter,energy,grad_sup,step,rejects"]
    for k, row in enumerate(np.asarray(trace)):
        lines.append(f"{k},{_fg(row[0])},{_fg(row[1])},{_fg(row[2])},{int(row[3])}")
    Path(path).write_text("\n".join(lines) + "\n")


def _text_rows(fmt: str, items: list) -> np.ndarray:
    """The text fmt % item of each item, by one %-operation, and a comma, as
    the rows of a uint8 matrix.  fmt left-justifies to _WIDTH with _PAD; the
    columns that hold padding alone are cut."""
    text = (fmt.encode() * len(items)) % tuple(items)
    rows = np.frombuffer(text, dtype=np.uint8).reshape(len(items), _WIDTH)
    width = _WIDTH
    while (rows[:, width - 1] == _PAD).all():
        width -= 1
    return np.hstack([rows[:, :width], np.full((len(items), 1), ord(","), np.uint8)])


def _render(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The '%.17g' text (what _fg gives) of each distinct double in the 1-D
    values, rendered once by _text_rows, and the row of that text for each
    value.  Distinct means a distinct bit pattern, so -0.0 stays apart from
    0.0; any nan renders as nan."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.uint64),
                              return_inverse=True)
    return _text_rows(f"%-{_WIDTH}.17g", bits.view(np.float64).tolist()), inverse


def _write_node_csv(path: Path, state: FieldState, values: np.ndarray,
                    comp_header: str) -> None:
    """Stream one row per node, _CHUNK_ROWS rows per write: a chunk is one
    uint8 matrix of the columns' padded text rows, written without _PAD."""
    grid = state.grid
    vals = values.reshape(-1, values.shape[-1])
    # per-axis text of the i,j,k and x1,x2,x3 columns, by node index
    axes = ([_text_rows(f"%-{_WIDTH}d", list(range(n))) for n in grid.nodes]
            + [_text_rows(f"%-{_WIDTH}.17g", x.tolist()) for x in grid.node_axes()])
    comps = [_render(vals[:, c]) for c in range(vals.shape[1])]
    with open(path, "wb") as fh:
        fh.write(f"i,j,k,x1,x2,x3,{comp_header}\n".encode())
        for start in range(0, vals.shape[0], _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, vals.shape[0])
            node = np.unravel_index(np.arange(start, stop), grid.nodes)
            table = np.concatenate(
                [np.take(a, node[col % 3], axis=0) for col, a in enumerate(axes)]
                + [np.take(text, inverse[start:stop], axis=0) for text, inverse in comps],
                axis=1)
            table[:, -1] = ord("\n")
            fh.write(table.tobytes().translate(None, bytes([_PAD])))


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
