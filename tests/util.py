"""Shared fixtures: radial director states and simple deformations."""

from pathlib import Path

import numpy as np

from complexbodies.fields import Grid, ball_mask, identity_state
from complexbodies.manifolds import UnitSphere

EZ = np.array([0.0, 0.0, 1.0])


def radial_director(points, center=(0.0, 0.0, 0.0), antipodal=False):
    """nu = +-(x - c)/|x - c| with the singular node patched to e_z."""
    v = points - np.asarray(center)
    r = np.linalg.norm(v, axis=-1)
    safe = np.maximum(r, 1e-300)
    nu = v / safe[..., None]
    nu[r < 1e-12] = EZ
    if antipodal:
        nu = -nu
    return nu


def hedgehog_state(resolution=24, center=(0.0, 0.0, 0.0), antipodal=False,
                   ball=True, radius=1.0):
    """Radial point-defect director on [-1, 1]^3 with identity deformation."""
    grid = Grid.cube(resolution, lo=-1.0, hi=1.0)
    state = identity_state(grid, UnitSphere(), nu0=EZ)
    state.nu = radial_director(grid.node_coords(), center=center, antipodal=antipodal)
    if ball:
        state.active = ball_mask(grid, center=(0.0, 0.0, 0.0), radius=radius)
    return state


def residual_rows(out_dir):
    """The rows (law, raw, scale, ratio) of a run's residuals.csv; its %.17g
    floats read back exactly."""
    lines = (Path(out_dir) / "residuals.csv").read_text().splitlines()[1:]
    return [(law, *map(float, rest)) for law, *rest in (line.split(",") for line in lines)]
