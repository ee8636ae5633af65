"""Sa roughness metrics and bearing area curve extraction.

A bearing area curve (BAC) is the descending sort of a location's pixel
heights: the empirical quantile curve of the surface, with the highest
peak at quantile 0 and the deepest valley at quantile 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BearingAreaCurve:
    sorted_heights: np.ndarray  # descending, micrometres

    def __post_init__(self):
        h = np.asarray(self.sorted_heights, dtype=float)
        if h.size < 2:
            raise ValueError("a bearing area curve needs at least 2 heights")
        if np.any(h[1:] > h[:-1]):
            raise ValueError("heights must be sorted in descending order")
        self.sorted_heights = h


class EmptyTailError(ValueError):
    """A grid has no point in one of its tails, so that tail cannot be tested."""


@dataclass
class QuantileGrid:
    """Shared evaluation grid on the quantile axis.

    ``tau`` marks the upper tail [0, tau] and lower tail [1 - tau, 1];
    the last grid point (``s_max``) may sit below 1 to exclude
    extreme-depth valley pixels.
    """

    points: np.ndarray
    tau: float = 0.25

    def __post_init__(self):
        pts = self.points = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("grid needs at least 2 points")
        # a NaN point fails every comparison, so the check asks what must hold
        if not (pts[0] >= 0 and pts[-1] <= 1 and np.all(np.diff(pts) > 0)):
            raise ValueError("grid points must be strictly increasing within [0, 1]")
        if not (0 < self.tau < 0.5):
            raise ValueError("tau must lie in (0, 0.5)")
        if not (self.upper_tail_mask().any() and self.lower_tail_mask().any()):
            raise EmptyTailError("grid must reach into both tails")

    @property
    def m(self):
        return self.points.size

    @property
    def s_max(self):
        return float(self.points[-1])

    def upper_tail_mask(self):
        return self.points <= self.tau

    def lower_tail_mask(self):
        return self.points >= 1.0 - self.tau


def default_grid(m=1000, s_max=0.998, tau=0.25):
    """Equally spaced m-point grid on [0, s_max]."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if not (0 < s_max <= 1):
        raise ValueError("s_max must lie in (0, 1]")
    return QuantileGrid(points=np.linspace(0.0, s_max, m), tau=tau)


@dataclass
class StageSample:
    """One stage's BACs evaluated on a shared quantile grid, row per location."""

    curves: np.ndarray  # (J, m)
    grid: QuantileGrid
    stage_id: str = ""

    def __post_init__(self):
        c = np.asarray(self.curves, dtype=float)
        if c.ndim != 2:
            raise ValueError("curves must be a (J, m) array")
        if c.shape[0] < 2:
            raise ValueError("variance estimation requires at least 2 locations")
        if c.shape[1] != self.grid.m:
            raise ValueError("curve length does not match the grid")
        self.curves = c


def compute_sa(matrix):
    """Arithmetic mean absolute deviation of pixel heights about their mean.

    Expects a calibrated matrix (surface baseline removed).  Non-finite
    pixels are ignored.
    """
    z = matrix.finite_heights()  # a fresh copy: deviations are formed in it
    if z.size == 0:
        raise ValueError("empty height matrix")
    z -= z.mean()
    return float(np.abs(z, out=z).mean())


def extract_bac(matrix):
    """Sort a location's pixel heights into its bearing area curve."""
    z = matrix.finite_heights()  # a fresh copy, so it is sorted in place
    if z.size < 2:
        raise ValueError("too few finite pixels for a bearing area curve")
    z.sort()
    return BearingAreaCurve(sorted_heights=z[::-1])


def evaluate_on_grid(bac, grid):
    """Evaluate a BAC at the grid's quantiles.

    Linear interpolation between descending order statistics: quantile
    s maps to fractional index s*(n-1), so s=0 is the highest peak and
    s=1 the deepest valley.  Only the two order statistics around each
    grid point are read, and the arithmetic is ``np.interp``'s on the
    index axis: h[j] where the fraction is 0, the last height from index
    n-1 on, and (h[j+1] - h[j]) * (s(n-1) - j) + h[j] between.
    """
    h = bac.sorted_heights
    n = h.size
    at = grid.points * (n - 1)
    j = np.minimum(at.astype(np.intp), n - 2)
    frac = at - j
    low = h[j]
    out = np.where(frac == 0, low, (h[j + 1] - low) * frac + low)
    out[at >= n - 1] = h[-1]
    return out


def build_stage_sample(record, grid):
    """Extract and grid-evaluate one BAC per location of a calibrated stage."""
    curves = [evaluate_on_grid(extract_bac(m), grid) for m in record.locations]
    return StageSample(curves=np.array(curves), grid=grid, stage_id=record.stage_id)
