"""Ingestion of profilometer height matrices and report persistence.

One plain-text matrix file per sampling location (whitespace- or
comma-delimited rows, heights in micrometres), optionally accompanied by
a ``manifest.json`` naming the files, the stage label, and the pixel
pitch.  Text after ``#`` is a comment.  An empty or non-numeric cell
becomes a dropped (NaN) pixel, like a ``nan`` cell, and dropped pixels
count against the 1% corrupt-scan limit.  Stages with fewer than 2
locations are rejected because the tests need replicate curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the source instrument's between-pixel distances, used when a manifest
# does not override them
DEFAULT_DX_UM = 0.359
DEFAULT_DY_UM = 0.369

# a scan losing more than this fraction of pixels is treated as corrupt
MAX_DROPPED_FRACTION = 0.01

MATRIX_SUFFIXES = (".csv", ".txt", ".dat")


class SurfaceDataError(Exception):
    """Raised for unreadable, malformed, or insufficient stage data."""


@dataclass
class HeightMatrix:
    """2-D grid of pixel heights with physical pixel pitch.

    ``z`` keeps the rectangular shape; pixels dropped by cleaning are
    NaN and ``dropped_count`` records how many.
    """

    z: np.ndarray  # (rows, cols), micrometres
    dx: float = DEFAULT_DX_UM
    dy: float = DEFAULT_DY_UM
    location_id: str = ""
    dropped_count: int = 0

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        if z.ndim != 2 or z.shape[0] < 1 or z.shape[1] < 1:
            raise SurfaceDataError("height matrix must be a non-empty 2-D grid")
        if not (0 < self.dx < math.inf and 0 < self.dy < math.inf):
            raise SurfaceDataError("pixel pitch must be finite and positive")
        self.z = z

    def finite_mask(self):
        return np.isfinite(self.z)

    def finite_heights(self):
        return self.z[self.finite_mask()]

    def axes(self):
        """Physical X (per column) and Y (per row) axes in micrometres."""
        rows, cols = self.z.shape
        return np.arange(cols) * self.dx, np.arange(rows) * self.dy

    def point_cloud(self):
        """Finite pixels as an (n, 3) array of (X, Y, z), row by row.

        The array is the transpose of a C-ordered (3, n) block, so each
        coordinate is one contiguous row of ``point_cloud().T``.
        """
        mask = self.finite_mask()
        x, y = self.axes()
        cloud = np.empty((3, np.count_nonzero(mask)))
        cloud[0] = np.broadcast_to(x, mask.shape)[mask]
        cloud[1] = np.broadcast_to(y[:, None], mask.shape)[mask]
        cloud[2] = self.z[mask]
        return cloud.T


@dataclass
class StageRecord:
    stage_id: str
    locations: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.locations) < 2:
            raise SurfaceDataError(
                f"insufficient locations: stage {self.stage_id!r} has "
                f"{len(self.locations)}, need at least 2"
            )


def _read_matrix_file(path):
    try:
        delimiter = None if _is_whitespace(path) else ","
        try:
            z = np.loadtxt(path, delimiter=delimiter, ndmin=2)
        except ValueError:
            # empty or non-numeric cells, trailing commas, ragged rows:
            # genfromtxt reads bad cells as NaN pixels and words the errors
            z = np.genfromtxt(path, delimiter=delimiter, ndmin=2)
    except (ValueError, OSError) as exc:
        raise SurfaceDataError(f"malformed matrix file {path}: {exc}") from exc
    if z.size < 2:
        raise SurfaceDataError(f"malformed matrix file {path}: not rectangular")
    return z


def _is_whitespace(path):
    """True unless the first line with data, comments cut, has a comma."""
    with open(path) as fh:
        for line in fh:
            data = line.split("#", 1)[0]
            if data.strip():
                return "," not in data
    return True


def _clean(z, path):
    finite = np.isfinite(z)
    dropped = int(z.size - np.count_nonzero(finite))
    if dropped > MAX_DROPPED_FRACTION * z.size:
        raise SurfaceDataError(
            f"{path}: {dropped} of {z.size} pixels are non-finite "
            f"(> {MAX_DROPPED_FRACTION:.0%}); scan looks corrupt"
        )
    z[~finite] = np.nan  # z is freshly parsed, so it is cleaned in place
    return z, dropped


def _manifest_pitch(manifest, key, default, manifest_path):
    v = manifest.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
        raise SurfaceDataError(f"manifest {manifest_path}: {key!r} pixel pitch must be "
                               f"a number, finite and positive, not {v!r}")
    return float(v)


def load_stage(path):
    """Load one stage of location matrices from a directory or manifest.

    Parameters
    ----------
    path : str or Path
        A directory of matrix files, or a JSON manifest object with keys
        ``stage_label``, ``files`` (a list of file names), and optionally
        ``dx_um`` / ``dy_um``.

    Returns
    -------
    StageRecord
        Named by the manifest's ``stage_label``, else by the directory;
        locations ordered by location_id so ingestion order never matters.
    """
    path = Path(path)
    if not path.exists():
        raise SurfaceDataError(f"no such path: {path}")

    dx, dy = DEFAULT_DX_UM, DEFAULT_DY_UM
    if path.is_dir() and (path / "manifest.json").exists():
        manifest_path = path / "manifest.json"
    elif path.is_file() and path.suffix == ".json":
        manifest_path = path
    else:
        manifest_path = None

    if manifest_path is not None:
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except ValueError as exc:
            raise SurfaceDataError(
                f"manifest {manifest_path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise SurfaceDataError(f"manifest {manifest_path} is not a JSON object")
        names = manifest.get("files", [])
        if not (isinstance(names, list) and all(isinstance(f, str) for f in names)):
            raise SurfaceDataError(
                f"manifest {manifest_path}: 'files' must be a list of file names")
        label = manifest.get("stage_label")
        if label is not None and not isinstance(label, str):
            raise SurfaceDataError(
                f"manifest {manifest_path}: 'stage_label' must be a string, not {label!r}")
        label = label or manifest_path.parent.name
        dx = _manifest_pitch(manifest, "dx_um", dx, manifest_path)
        dy = _manifest_pitch(manifest, "dy_um", dy, manifest_path)
        files = [manifest_path.parent / f for f in names]
    else:
        if not path.is_dir():
            raise SurfaceDataError(f"{path} is neither a directory nor a manifest")
        label = path.name
        files = [p for p in path.iterdir()
                 if p.is_file() and p.suffix.lower() in MATRIX_SUFFIXES]

    files = sorted(files, key=lambda p: p.stem)
    # a location is named by its file's stem, so two files of one stem
    # (loc1.csv and loc1.txt, or one manifest entry listed twice) would
    # be one location counted twice
    for a, b in zip(files, files[1:]):
        if a.stem == b.stem:
            raise SurfaceDataError(f"{a} and {b} are both location {a.stem!r}")
    locations = []
    for f in files:
        if not f.exists():
            raise SurfaceDataError(f"manifest names a missing file: {f}")
        z, dropped = _clean(_read_matrix_file(f), f)
        locations.append(HeightMatrix(z=z, dx=dx, dy=dy, location_id=f.stem,
                                      dropped_count=dropped))
    return StageRecord(stage_id=label, locations=locations)


def save_report(record, path):
    """Persist a DecisionRecord as bit-stable JSON."""
    path = Path(path)
    # serialized before the file is opened, so a failure leaves no partial report
    text = json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n"
    try:
        path.write_text(text)
    except OSError as exc:
        raise SurfaceDataError(f"cannot write report to {path}: {exc}") from exc


def load_report(path):
    """Read back a report written by save_report."""
    from .decision import DecisionRecord

    path = Path(path)
    if not path.exists():
        raise SurfaceDataError(f"no such report: {path}")
    try:
        with open(path) as fh:
            return DecisionRecord.from_dict(json.load(fh))
    except (KeyError, TypeError, ValueError) as exc:
        raise SurfaceDataError(
            f"{path} is not a bacdetect report: {type(exc).__name__} {exc}") from exc
