"""Surface baseline removal: one form fit per scan, then its subtraction.

Raw profilometer heights ride on the nominal form of the part, a sphere
for a polished ball or a plane for a flat.  Each scan is fitted with
Pratt's algebraic hypersphere a|q|^2 + b.q + e = 0, |b|^2 - 4ae = 1
(Pratt 1987, SIGGRAPH), in coordinates centered on the scan and scaled
by its RMS radius.  A plane is the a -> 0 limit, so one fit covers both
geometries, and it avoids the Kasa fit's bias on shallow, rough caps
(Al-Sharadqah & Chernov 2009, Electron. J. Stat. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .surface_io import StageRecord

# Pratt's constraint |b|^2 - 4ae as a quadratic form in (a, bx, by, bz, e)
_PRATT = np.array([[0.0, 0, 0, 0, -2], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [-2, 0, 0, 0, 0]])
_PENCIL_TOL = 1e-12  # a second exact solution: a pencil of surfaces fits


class CalibrationError(Exception):
    """Raised for degenerate geometry or invalid baseline subtraction."""


@dataclass
class SphereFit:
    """Pratt fit a|q|^2 + b.q + e = 0 in q = (p - origin) / scale."""

    origin: np.ndarray  # (X, Y, z) mean of the points, micrometres
    scale: float  # RMS distance of the points from the origin, micrometres
    coef: np.ndarray  # (a, bx, by, bz, e) with |b|^2 - 4ae = 1
    rms_residual: float  # geometric, micrometres

    @property
    def radius(self):
        """Sphere radius in micrometres; infinite for a plane."""
        a = self.coef[0]
        return self.scale / (2.0 * abs(a)) if a else np.inf

    @property
    def center(self):
        """Sphere center (Xc, Yc, zc) in micrometres; infinite for a plane."""
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = self.coef[1:4] / (-2.0 * self.coef[0])
        return tuple(self.origin + self.scale * offset)


def fit_sphere(points):
    """Pratt's sphere-or-plane fit through (n, 3) (X, Y, z) points, in µm.

    Solves M c = eta N c (M the moments of the rows (|q|^2, qx, qy, qz,
    1), N Pratt's constraint) for the smallest eta >= 0 with c'Nc > 0;
    closed form, no iteration.  ``einsum`` forms the moments, keeping BLAS
    threads out.  The residual is the geometric distance 2F / (1 +
    sqrt(1 + 4aF)), F the algebraic residual.  Coplanar points fit a
    plane; fewer than 4, identical, collinear or cocircular points raise.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 4:
        raise CalibrationError("need at least 4 (X, Y, z) points")
    n = len(pts)
    design = np.empty((5, n))
    q = design[1:4]
    q[...] = pts.T
    origin = q.mean(axis=1)
    q -= origin[:, None]
    scale = float(np.sqrt(np.einsum("in,in->", q, q) / n))
    if scale == 0:
        raise CalibrationError("degenerate point configuration (identical points)")
    q /= scale
    np.einsum("in,in->n", q, q, out=design[0])
    design[4] = 1.0
    moments = np.einsum("in,jn->ij", design, design) / n
    eta, vecs = np.linalg.eig(np.linalg.solve(_PRATT, moments))
    eta, vecs = eta.real, vecs.real
    norms = np.einsum("ik,ij,jk->k", vecs, _PRATT, vecs)
    admissible = np.flatnonzero(norms > 0)
    best, second = admissible[np.argsort(eta[admissible])[:2]]
    if eta[second] <= _PENCIL_TOL:
        raise CalibrationError(
            "degenerate point configuration (collinear or cocircular)")
    coef = vecs[:, best] / np.sqrt(norms[best])
    f = np.einsum("j,jn->n", coef, design)
    dist = 2.0 * f / (1.0 + np.sqrt(np.maximum(1.0 + 4.0 * coef[0] * f, 0.0)))
    rms = scale * float(np.sqrt(np.einsum("n,n->", dist, dist) / n))
    return SphereFit(origin=origin, scale=scale, coef=coef, rms_residual=rms)


def subtract_baseline(matrix, fit):
    """Remove the fitted sphere or plane from a height matrix.

    Each pixel takes the root of a qz^2 + bz qz + g = 0 nearest the scan,
    qz = -2g / (bz + sign(bz) sqrt(bz^2 - 4ag)): it lies on the scan's
    side of a sphere whichever way up the scan was taken, and it has no
    cancellation as a -> 0, where it becomes the plane -g / bz.
    """
    x, y = matrix.axes()
    ox, oy, oz = fit.origin
    a, bx, by, bz, e = fit.coef
    qx = (x - ox) / fit.scale
    qy = (y - oy) / fit.scale
    g = ((a * qy + by) * qy + e)[:, None] + (a * qx + bx) * qx
    radicand = bz * bz - 4.0 * a * g
    if radicand.min() < 0:
        w, v = np.argwhere(radicand < 0)[0]
        raise CalibrationError(
            f"pixel (row {w}, col {v}) lies outside the fitted sphere cap "
            f"(radicand {radicand[w, v]:.6g})")
    qz = -2.0 * g / (bz + np.copysign(np.sqrt(radicand), bz))
    return replace(matrix, z=matrix.z - (oz + fit.scale * qz))


def calibrate_stage(record):
    """Per-location form removal for a whole stage.

    Each scan covers an independent patch, so the form is fitted per
    location rather than once per stage.
    """
    if not record.locations:
        raise CalibrationError("empty stage")
    calibrated = [subtract_baseline(m, fit_sphere(m.point_cloud()))
                  for m in record.locations]
    return StageRecord(stage_id=record.stage_id, stage_label=record.stage_label,
                       locations=calibrated, timestamp=record.timestamp)
