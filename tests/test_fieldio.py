"""Artifact writer oracles.

The node CSVs render each distinct double once and stream a chunk of rows at
a time; the reference below renders them value by value with _fg, and the
two must agree byte for byte.
"""

import itertools

import numpy as np
import pytest

from complexbodies import fieldio
from complexbodies.fieldio import _fg, load_fields, write_fields
from complexbodies.fields import Grid, identity_state
from complexbodies.manifolds import Euclidean, UnitSphere

AWKWARD = [-0.0, 1e-300, 1e300, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 7.0,
           5e-324, np.nan, np.inf, -np.inf]
# NaNs of both signs and two payloads: distinct bit patterns, one text
NANS = np.array([0x7FF8000000000001, 0xFFF8000000000001,
                 0x7FF8000000000002, 0xFFF8000000000002], dtype=np.uint64).view(np.float64)
GRIDS = [
    (Grid.cube(4, lo=-1.0, hi=0.7), UnitSphere(), np.array([0.0, 0.0, 1.0])),
    (Grid((0.0, -0.3, 0.2), (1.1, 2.0, 0.9), (5, 4, 2)), Euclidean(1), np.array([0.25])),
]


def reference_rows(state, values, comp_header):
    """One _fg call per value, in itertools.product node order."""
    grid = state.grid
    coords = grid.node_coords()
    lines = [f"i,j,k,x1,x2,x3,{comp_header}"]
    for idx in itertools.product(*(range(n) for n in grid.nodes)):
        pos = ",".join(_fg(c) for c in coords[idx])
        vals = ",".join(_fg(v) for v in values[idx])
        lines.append(f"{','.join(str(i) for i in idx)},{pos},{vals}")
    return "\n".join(lines) + "\n"


def _awkward_state(grid, manifold, nu0):
    state = identity_state(grid, manifold, nu0=nu0)
    rng = np.random.default_rng(5)
    state.u = state.u + rng.normal(size=state.u.shape) * 1e-3
    state.nu = rng.normal(size=state.nu.shape)
    # the awkward values, 0.0 beside -0.0 and the NaNs run down a column
    awkward = np.concatenate([AWKWARD, [0.0], NANS])
    state.u.reshape(-1, 3)[-awkward.size:, 0] = awkward
    flat_u = state.u.reshape(-1)
    flat_u[: len(AWKWARD)] = AWKWARD
    flat_nu = state.nu.reshape(-1)
    flat_nu[-len(AWKWARD):] = AWKWARD[::-1]
    flat_nu[: NANS.size] = NANS
    return state


def _shear_state(grid, manifold, nu0):
    """An affine shear of the node lattice and an all-zero descriptor: few
    distinct values per column, the case deduplication serves."""
    state = identity_state(grid, manifold, nu0=nu0)
    shear = np.array([[1.0, 0.3, 0.0], [0.0, 1.0, 0.0], [0.0, -0.1, 1.0]])
    state.u = np.einsum("ij,...j->...i", shear, grid.node_coords())
    state.nu = np.zeros_like(state.nu)
    return state


def _distinct_state(grid, manifold, nu0):
    state = identity_state(grid, manifold, nu0=nu0)
    rng = np.random.default_rng(9)
    state.u = rng.normal(size=state.u.shape)
    state.nu = rng.normal(size=state.nu.shape) * 10.0 ** rng.integers(-8, 8, size=state.nu.shape)
    return state


@pytest.mark.parametrize("rows", [1, 7, 10**6])
@pytest.mark.parametrize("grid, manifold, nu0", GRIDS)
@pytest.mark.parametrize("make", [_awkward_state, _shear_state, _distinct_state],
                         ids=["awkward", "shear", "distinct"])
def test_streamed_csv_matches_per_value_writer(tmp_path, monkeypatch, make,
                                               grid, manifold, nu0, rows):
    # 7 rows per chunk leaves a short last chunk on both grids (125 and 90 nodes)
    state = make(grid, manifold, nu0)
    monkeypatch.setattr(fieldio, "_CHUNK_ROWS", rows)
    write_fields(tmp_path, state)
    nu_header = ",".join(f"nu{a + 1}" for a in range(state.embed_dim))
    assert (tmp_path / "fields_u.csv").read_bytes() == reference_rows(
        state, state.u, "u1,u2,u3").encode()
    assert (tmp_path / "fields_nu.csv").read_bytes() == reference_rows(
        state, state.nu, nu_header).encode()
    back = load_fields(tmp_path / "fields.npz")
    assert np.array_equal(back["u"], state.u, equal_nan=True)
