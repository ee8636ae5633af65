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

from .surface_io import HeightMatrix

# Pratt's constraint |b|^2 - 4ae as a quadratic form in (a, bx, by, bz, e)
_PRATT = np.array([[0.0, 0, 0, 0, -2], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                   [0, 0, 0, 1, 0], [-2, 0, 0, 0, 0]])
_PENCIL_TOL = 1e-12  # a second exact solution: a pencil of surfaces fits
_CHUNK = 16_384  # points (or pixels of whole rows) per block of fit_sphere's sums


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
    """Pratt's sphere-or-plane fit through a scan's points, in µm.

    ``points`` is an (n, 3) array of (X, Y, z) points, or a
    ``HeightMatrix``, whose finite pixels are read from its axes and
    heights a block of rows at a time.  Solves M c = eta N c (M the
    moments of the rows (|q|^2, qx, qy, qz, 1), N Pratt's constraint) for
    the smallest eta >= 0 with c'Nc > 0; closed form, no iteration.  The
    residual is the geometric distance 2F / (1 + sqrt(1 + 4aF)), F the
    algebraic residual.  Coplanar points fit a plane; fewer than 4,
    identical, collinear or cocircular points raise.

    The sums run over blocks of about ``_CHUNK`` points, formed in one
    reused (5, block) buffer, so the fit copies no whole scan; a cloud of
    at most ``_CHUNK`` points is one block.
    """
    if isinstance(points, HeightMatrix):
        n, blocks = _matrix_blocks(points)
    else:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise CalibrationError("need at least 4 (X, Y, z) points")
        n, blocks = _cloud_blocks(pts)
    if n < 4:
        raise CalibrationError("need at least 4 (X, Y, z) points")
    return _pratt(n, blocks)


def _cloud_blocks(pts):
    """``_CHUNK`` points at a time of an (n, 3) cloud."""
    n = len(pts)
    design = np.empty((5, min(_CHUNK, n)))

    def blocks(origin=None):
        for start in range(0, n, _CHUNK):
            d = design[:, :min(_CHUNK, n - start)]
            d[1:4] = pts[start:start + _CHUNK].T
            yield _centered(d, origin)

    return n, blocks


def _matrix_blocks(m):
    """The finite pixels of about ``_CHUNK`` pixels of rows at a time."""
    x, y = m.axes()
    rows, cols = m.z.shape
    step = max(1, _CHUNK // cols)
    design = np.empty((5, min(step, rows) * cols))

    def blocks(origin=None):
        for start in range(0, rows, step):
            z = m.z[start:start + step]
            finite = np.isfinite(z)
            d = design[:, :np.count_nonzero(finite)]
            d[1] = np.broadcast_to(x, z.shape)[finite]
            d[2] = np.broadcast_to(y[start:start + step, None], z.shape)[finite]
            d[3] = z[finite]
            yield _centered(d, origin)

    return int(np.count_nonzero(np.isfinite(m.z))), blocks


def _centered(d, origin):
    """Design rows (|u|^2, ux, uy, uz, 1) of u = p - origin, in place."""
    if origin is not None:
        d[1:4] -= origin[:, None]
        np.einsum("in,in->n", d[1:4], d[1:4], out=d[0])
        d[4] = 1.0
    return d


def _pratt(n, blocks):
    """Pratt's fit from the n points that ``blocks(origin)`` yields.

    Three passes: the origin, the moments M_u of the centered rows, and
    the residual.  With s^2 = mean |u|^2 the scaled rows are D d_u,
    D = diag(1/s^2, 1/s, 1/s, 1/s, 1), so M_q = D M_u D.  ``einsum``
    forms the sums and no BLAS call runs over a whole scan: whole-scan
    ``dot`` / ``gemv`` cut the fit from 13 to 11 ms on a 480×640 scan,
    but at two BLAS threads on a 2-core Xeon a shop-floor ``decide`` then
    took 1.36 to 1.58 s of CPU where it had taken 0.79 to 0.85 s, with no
    gain in wall time.
    """
    origin = sum(d[1:4].sum(axis=1) for d in blocks()) / n
    moments = sum(np.einsum("in,jn->ij", d, d) for d in blocks(origin)) / n
    scale = float(np.sqrt(moments[0, 4]))
    if scale == 0:
        raise CalibrationError("degenerate point configuration (identical points)")
    dd = np.array([scale ** -2, 1 / scale, 1 / scale, 1 / scale, 1.0])
    moments *= dd[:, None] * dd
    eta, vecs = np.linalg.eig(np.linalg.solve(_PRATT, moments))
    eta, vecs = eta.real, vecs.real
    norms = np.einsum("ik,ij,jk->k", vecs, _PRATT, vecs)
    admissible = np.flatnonzero(norms > 0)
    best, second = admissible[np.argsort(eta[admissible])[:2]]
    if eta[second] <= _PENCIL_TOL:
        raise CalibrationError(
            "degenerate point configuration (collinear or cocircular)")
    coef = vecs[:, best] / np.sqrt(norms[best])
    coef_u = coef * dd  # the algebraic residual on the centered rows
    sq = 0.0
    for d in blocks(origin):
        f = np.einsum("j,jn->n", coef_u, d)
        dist = 2.0 * f / (1.0 + np.sqrt(np.maximum(1.0 + 4.0 * coef[0] * f, 0.0)))
        sq += np.einsum("n,n->", dist, dist)
    rms = scale * float(np.sqrt(sq / n))
    return SphereFit(origin=origin, scale=scale, coef=coef, rms_residual=rms)


def subtract_baseline(matrix, fit):
    """Remove the fitted sphere or plane from a height matrix.

    Each pixel takes the root of a qz^2 + bz qz + g = 0 nearest the scan,
    qz = -2g / (bz + sign(bz) sqrt(bz^2 - 4ag)): it lies on the scan's
    side of a sphere whichever way up the scan was taken, and it has no
    cancellation as a -> 0, where it becomes the plane -g / bz.  A
    surface vertical over a pixel (a one-row scan is fitted by the plane
    through its row, with bz = 0) gives it no height and raises.
    """
    x, y = matrix.axes()
    ox, oy, oz = fit.origin
    a, bx, by, bz, e = fit.coef
    qx = (x - ox) / fit.scale
    qy = (y - oy) / fit.scale
    g = ((a * qy + by) * qy + e)[:, None] + (a * qx + bx) * qx
    radicand = bz * bz - 4.0 * a * g
    low = radicand.min()
    if low < 0:
        w, v = np.argwhere(radicand < 0)[0]
        raise CalibrationError(
            f"pixel (row {w}, col {v}) lies outside the fitted sphere cap "
            f"(radicand {radicand[w, v]:.6g})")
    # the denominator below is 0 exactly where bz and the radicand are
    if bz == 0 and low == 0:
        w, v = np.argwhere(radicand == 0)[0]
        raise CalibrationError(
            f"the fitted surface has no height over pixel (row {w}, col {v}): "
            "it is vertical there")
    # qz and then the result are formed in g's buffer, and the
    # denominator in the radicand's: no other scan-sized array is made
    np.sqrt(radicand, out=radicand)
    np.copysign(radicand, bz, out=radicand)
    radicand += bz
    g *= -2.0
    g /= radicand
    g *= fit.scale
    g += oz
    return replace(matrix, z=np.subtract(matrix.z, g, out=g))


def calibrate_location(matrix):
    """Remove one location's form in place and return it.

    ``matrix.z`` is replaced by its calibrated heights, so the raw scan is
    freed.  A failed fit or subtraction raises ``CalibrationError``
    prefixed with the location id.
    """
    try:
        matrix.z = subtract_baseline(matrix, fit_sphere(matrix)).z
    except CalibrationError as exc:
        raise CalibrationError(f"{matrix.location_id}: {exc}") from exc
    return matrix


def calibrate_stage(record):
    """Per-location form removal for a whole stage, in place.

    Each scan covers an independent patch, so the form is fitted per
    location rather than once per stage.  Each location is calibrated in
    place by ``calibrate_location``, and ``record`` itself is returned; when
    a location fails, the locations before it are already calibrated.
    """
    if not record.locations:
        raise CalibrationError("empty stage")
    for m in record.locations:
        calibrate_location(m)
    return record
