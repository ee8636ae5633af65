"""Shared synthetic-data helpers for the test suite."""

import numpy as np
import pytest

from bacdetect.surface_io import HeightMatrix, StageRecord


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def rough_stage(rng, stage_id, n_loc=6, rows=24, cols=30, scale=1.0, shift=0.0):
    """A stage of already-calibrated matrices: iid Gaussian roughness."""
    locations = [
        HeightMatrix(
            z=shift + scale * rng.standard_normal((rows, cols)),
            location_id=f"loc{i:02d}",
        )
        for i in range(n_loc)
    ]
    return StageRecord(stage_id=stage_id, locations=locations)


def sphere_cap(rows, cols, dx, dy, center, radius, texture=None):
    """Height matrix of a spherical cap seen from above (lower branch)."""
    xx, yy = np.meshgrid(np.arange(cols) * dx, np.arange(rows) * dy)
    xc, yc, zc = center
    z = zc - np.sqrt(radius**2 - (xx - xc) ** 2 - (yy - yc) ** 2)
    if texture is not None:
        z = z + texture
    return HeightMatrix(z=z, dx=dx, dy=dy)


def write_stage_dir(tmp_path, name, record):
    """Write a StageRecord's matrices as CSV files under tmp_path/name."""
    d = tmp_path / name
    d.mkdir()
    for m in record.locations:
        np.savetxt(d / f"{m.location_id}.csv", m.z, delimiter=",")
    return d
