"""Memory guard: every command that reads a stage holds one scan at a time.

Each location is read, calibrated and reduced, by ``decide`` to its curve,
by ``sa`` to its Sa and by ``calibrate`` to a written file, before the next
is read; calibration overwrites the heights it fitted, and the form fit
sums over the pixel grid in two scan-sized buffers.  So the traced peak of
each command on raw scans is a few scans, whatever the number of locations.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from bacdetect import cli
from bacdetect.calibration import fit_sphere
from conftest import sphere_cap

ROWS, COLS = 240, 320
SCAN_BYTES = ROWS * COLS * 8
LOCATIONS = (6, 10, 16)


def _write_raw_stage(directory, rng, j, sigma):
    directory.mkdir()
    for i in range(j):
        cap = sphere_cap(ROWS, COLS, 0.359, 0.369, (57.0 + i, 44.0, 1700.0), 1688.0,
                         texture=sigma * rng.standard_normal((ROWS, COLS)))
        np.savetxt(directory / f"loc{i:02d}.csv", cap.z, delimiter=",")
    return directory


def _peak_scans(argv):
    """tracemalloc peak of one command, in scans."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code != cli.EXIT_ERROR
    return peak / SCAN_BYTES


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """Each command's peak on j + j raw scans, j in LOCATIONS."""
    tmp = tmp_path_factory.mktemp("memory")
    peaks = {"decide": {}, "sa": {}, "calibrate": {}}
    for j in LOCATIONS:
        rng = np.random.default_rng(j)
        prev = _write_raw_stage(tmp / f"prev{j}", rng, j, 0.4)
        curr = _write_raw_stage(tmp / f"curr{j}", rng, j, 0.15)
        peaks["decide"][j] = _peak_scans(
            ["decide", str(prev), str(curr), "--grid-size", "100",
             "--permutations", "100", "--out", str(tmp / f"r{j}.json")])
        peaks["sa"][j] = _peak_scans(["sa", str(prev)])
        peaks["calibrate"][j] = _peak_scans(
            ["calibrate", str(prev), "--out", str(tmp / f"cal{j}")])
    return peaks


@pytest.mark.parametrize("j", LOCATIONS)
def test_decide_peak_is_one_stage_of_scans(peaks, j):
    assert peaks["decide"][j] <= j + 8, peaks


def test_decide_peak_grows_by_one_scan_per_location(peaks):
    assert peaks["decide"][10] - peaks["decide"][6] <= 6, peaks


@pytest.mark.parametrize("j", LOCATIONS)
def test_decide_peak_is_a_few_scans(peaks, j):
    assert peaks["decide"][j] <= 4, peaks


def test_decide_peak_does_not_grow_with_locations(peaks):
    assert peaks["decide"][16] - peaks["decide"][6] <= 1, peaks


@pytest.mark.parametrize("command", ["sa", "calibrate"])
@pytest.mark.parametrize("j", LOCATIONS)
def test_peak_is_a_few_scans(peaks, command, j):
    assert peaks[command][j] <= 4, peaks


@pytest.mark.parametrize("command", ["sa", "calibrate"])
def test_peak_does_not_grow_with_locations(peaks, command):
    assert peaks[command][16] - peaks[command][6] <= 1, peaks


def test_fit_holds_two_scans_beside_its_scan():
    rows, cols = 480, 640
    rng = np.random.default_rng(0)
    scan = sphere_cap(rows, cols, 0.359, 0.369, (115.0, 88.0, 1700.0), 1688.0,
                      texture=0.05 * rng.standard_normal((rows, cols)))
    scan.z.flat[rng.choice(scan.z.size, 20, replace=False)] = np.nan
    tracemalloc.start()
    try:
        fit_sphere(scan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (rows * cols * 8) <= 2.5
