"""Surface baseline removal: one form fit per scan, then its subtraction.

Raw profilometer heights ride on the nominal form of the part, a sphere
for a polished ball or a plane for a flat.  Each scan is fitted with
Pratt's algebraic hypersphere a|q|^2 + b.q + e = 0, |b|^2 - 4ae = 1
(Pratt 1987, SIGGRAPH), in coordinates centered on the scan and scaled
by its RMS radius.  A plane is the a -> 0 limit, so one fit covers both
geometries, and it avoids the Kasa fit's bias on shallow, rough caps
(Al-Sharadqah & Chernov 2009, Electron. J. Stat. 3).

A scan is a grid: X depends only on the column and Y only on the row.
So the fit of a height matrix reads its moments off the sums S[k, a, b]
of uz^k ux^a uy^b over the finite pixels, k + a + b <= 4, which the two
axes' Vandermonde matrices contract from one power of uz at a time; no
pixel is copied into a point.  The same sums hold every moment of degree
4 or less that a general quadric fit would need.  An (n, 3) point cloud
is fitted in one pass over its design rows.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .surface_io import HeightMatrix

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
        """Sphere center (Xc, Yc, zc) in micrometres.

        For a plane (a = 0) a component is +-inf where b is nonzero and nan
        where it is 0, so an exactly level plane gives (nan, nan, +-inf).
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = self.coef[1:4] / (-2.0 * self.coef[0])
        return tuple(self.origin + self.scale * offset)


def fit_sphere(points):
    """Pratt's sphere-or-plane fit through a scan's points, in µm.

    ``points`` is an (n, 3) array of (X, Y, z) points, fitted in one pass
    over its design rows, or a ``HeightMatrix``, whose finite pixels are
    fitted from sums over its grid and never copied as points.  Solves
    M c = eta N c (M the moments of the rows (|q|^2, qx, qy, qz, 1), N
    Pratt's constraint) for the smallest eta >= 0 with c'Nc > 0; closed
    form, no iteration.  The residual is the geometric distance
    2F / (1 + sqrt(1 + 4aF)), F the algebraic residual.  Coplanar points
    fit a plane; fewer than 4, identical, collinear or cocircular points
    raise, and so does a cloud of another shape or with a non-finite
    coordinate.
    """
    if isinstance(points, HeightMatrix):
        return _grid_fit(points)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise CalibrationError(
            f"need an (n, 3) array of (X, Y, z) points, got shape {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
    if bad.size:
        raise CalibrationError(
            f"row {bad[0]} of the points is not finite: {pts[bad[0]]}")
    n = len(pts)
    if n < 4:
        raise CalibrationError("need at least 4 (X, Y, z) points")
    d = np.empty((5, n))  # rows (|u|^2, ux, uy, uz, 1) of u = p - origin
    d[1:4] = pts.T
    origin = d[1:4].sum(axis=1) / n
    d[1:4] -= origin[:, None]
    np.einsum("in,in->n", d[1:4], d[1:4], out=d[0])
    d[4] = 1.0
    scale, coef, coef_u = _solve(np.einsum("in,jn->ij", d, d) / n)
    dist = _distance(np.einsum("j,jn->n", coef_u, d), coef[0], d[0])
    rms = scale * float(np.sqrt(np.einsum("n,n->", dist, dist) / n))
    return SphereFit(origin=origin, scale=scale, coef=coef, rms_residual=rms)


# the rows (|u|^2, ux, uy, uz, 1) as monomials uz^k ux^a uy^b, (k, a, b)
_ROWS = (((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((0, 1, 0),), ((0, 0, 1),),
         ((1, 0, 0),), ((0, 0, 0),))


def _grid_fit(m):
    """Pratt's fit of a matrix's finite pixels from sums over its grid.

    ux depends only on the column and uy only on the row, so each moment
    of the rows (|u|^2, ux, uy, uz, 1) is a sum of S[k, a, b], the sum of
    uz^k ux^a uy^b over the finite pixels, k + a + b <= 4.  uz is formed
    once.  One buffer, 1 on the finite pixels and 0 on the NaN ones, takes
    uz^0 to uz^4 in turn, and each power is contracted first with the
    rows' and then with the columns' Vandermonde matrix.  The residual
    pass reuses both buffers: F = uz (c0 uz + c3) + G_y[row] + G_x[col].
    ``einsum`` makes the scan-sized contractions, so no BLAS call runs
    over a whole scan: on per-pixel design rows, whole-scan ``dot`` /
    ``gemv`` cut the fit from 13 to 11 ms on a 480×640 scan, but at two
    BLAS threads on a 2-core Xeon a shop-floor ``decide`` then took 1.36
    to 1.58 s of CPU, not 0.79 to 0.85 s, for no gain in wall time.
    """
    holes = np.flatnonzero(~np.isfinite(m.z))  # flat indices of NaN pixels
    n = m.z.size - holes.size
    if n < 4:
        raise CalibrationError("need at least 4 (X, Y, z) points")
    rows, cols = m.z.shape
    x, y = m.axes()
    per_col = rows - np.bincount(holes % cols, minlength=cols)
    per_row = cols - np.bincount(holes // cols, minlength=rows)
    uz = m.z.copy()
    uz.flat[holes] = 0.0
    origin = np.array([np.einsum("c,c->", per_col, x) / n,
                       np.einsum("r,r->", per_row, y) / n, uz.sum() / n])
    uz -= origin[2]
    ux, uy = x - origin[0], y - origin[1]
    vx, vy = np.vander(ux, 5, increasing=True), np.vander(uy, 5, increasing=True)
    sums = np.zeros((5, 5, 5))  # S[k, a, b]
    power = np.ones_like(uz)  # uz^k on the finite pixels, 0 on the NaN ones
    power.flat[holes] = 0.0
    for k in range(5):
        if k:
            power *= uz
        t = np.einsum("rb,rc->bc", vy[:, :5 - k], power)
        sums[k, :5 - k, :5 - k] = (t @ vx[:, :5 - k]).T
    moments = np.array([[sum(sums[k + k2, a + a2, b + b2]
                             for k, a, b in row for k2, a2, b2 in col)
                         for col in _ROWS] for row in _ROWS]) / n
    scale, coef, (c0, c1, c2, c3, c4) = _solve(moments)
    f = np.multiply(uz, c0, out=power)
    f += c3
    f *= uz
    f += ((c0 * uy + c2) * uy + c4)[:, None]
    f += (c0 * ux + c1) * ux
    dist = _distance(f, coef[0], uz)
    dist.flat[holes] = 0.0
    rms = scale * float(np.sqrt(np.einsum("ij,ij->", dist, dist) / n))
    return SphereFit(origin=origin, scale=scale, coef=coef, rms_residual=rms)


def _solve(moments):
    """Pratt's coefficients from the mean moments M_u of centered rows.

    M_u holds the means of the products of the rows (|u|^2, ux, uy, uz,
    1), u = p - origin.  With s^2 = mean |u|^2 the scaled rows are D d_u,
    D = diag(1/s^2, 1/s, 1/s, 1/s, 1), so M_q = D M_u D.  Returns s, the
    coefficients c in q with |b|^2 - 4ae = 1, and c D, which gives the
    algebraic residual on the centered rows.
    """
    scale = float(np.sqrt(moments[0, 4]))
    if scale == 0:
        raise CalibrationError("degenerate point configuration (identical points)")
    dd = np.array([scale ** -2, 1 / scale, 1 / scale, 1 / scale, 1.0])
    eta, vecs = np.linalg.eig(np.linalg.solve(_PRATT, moments * (dd[:, None] * dd)))
    eta, vecs = eta.real, vecs.real
    norms = np.einsum("ik,ij,jk->k", vecs, _PRATT, vecs)
    admissible = np.flatnonzero(norms > 0)
    best, second = admissible[np.argsort(eta[admissible])[:2]]
    if eta[second] <= _PENCIL_TOL:
        raise CalibrationError(
            "degenerate point configuration (collinear or cocircular)")
    coef = vecs[:, best] / np.sqrt(norms[best])
    return scale, coef, coef * dd


def _distance(f, a, den):
    """Geometric distances 2F / (1 + sqrt(1 + 4aF)) of algebraic residuals F.

    They are formed in ``f``'s buffer, with ``den`` (f's shape) for the
    denominator.
    """
    np.multiply(f, 4.0 * a, out=den)
    den += 1.0
    np.maximum(den, 0.0, out=den)
    np.sqrt(den, out=den)
    den += 1.0
    f *= 2.0
    f /= den
    return f


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
    radicand = np.multiply(g, 4.0 * a)
    np.subtract(bz * bz, radicand, out=radicand)
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
