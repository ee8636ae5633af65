"""Distribution tail functions and the pointwise two-sample tests.

At every grid point of the quantile domain a one-sided two-sample test
is run, a t-test for the mean curves (Welch by default) or an F-test for
the variance curves.  Both p-values reduce to the regularized incomplete
beta function.  ``mean_test`` and ``variance_test`` each own their test
whole: the statistic, its degenerate points, its degrees of freedom, the
statistic bounds that settle p <= c, and p itself.  The permutation
engine screens each relabeling's statistic against those bounds and reads
p off the statistic it already holds, only at the points the bounds leave
unsettled; Welch's df is formed only there.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc, betaincinv


def student_t_sf(t, df):
    """Upper-tail probability P(T >= t) of Student's t distribution.

    Parameters
    ----------
    t : float or array_like
        Test statistic.
    df : float or array_like
        Degrees of freedom, > 0.

    Returns
    -------
    ndarray, 0-d for scalar arguments
    """
    t = np.asarray(t, dtype=float)
    df = np.asarray(df, dtype=float)
    if np.any(~np.isfinite(df)) or np.any(df <= 0):
        raise ValueError("degrees of freedom must be finite and > 0")
    if np.any(np.isnan(t)):
        raise ValueError("non-finite test statistic")
    # T^2 is F(1, df): P(T >= t) = P(F >= t^2) / 2 for t >= 0, reflect for t < 0;
    # t^2 overflows to inf past |t| = 1.3e154, where the tail is 0 all the same
    with np.errstate(over="ignore"):
        t2 = t * t
    tail = 0.5 * _f_tail(t2, 1.0, df)
    return np.where(t >= 0, tail, 1.0 - tail)


def f_sf(f, df1, df2):
    """Upper-tail probability P(F >= f) of the F distribution.

    Parameters
    ----------
    f : float or array_like
        Variance ratio, >= 0.
    df1, df2 : float or array_like
        Numerator / denominator degrees of freedom, > 0.

    Returns
    -------
    ndarray, 0-d for scalar arguments
    """
    f = np.asarray(f, dtype=float)
    df1 = np.asarray(df1, dtype=float)
    df2 = np.asarray(df2, dtype=float)
    if np.any(df1 <= 0) or np.any(df2 <= 0):
        raise ValueError("degrees of freedom must be > 0")
    if np.any(np.isnan(f)) or np.any(f < 0):
        raise ValueError("statistic must be finite and >= 0")
    return np.asarray(_f_tail(f, df1, df2))


def _f_tail(f, df1, df2):
    """P(F >= f), unchecked; f = inf gives x = 0, where betainc is 0.

    P(F >= f) = I_{df2/(df2 + df1 f)}(df2/2, df1/2), evaluated directly
    in the upper-tail form to keep small tail probabilities accurate.
    """
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def mean_test(mean1, var1, j1, mean2, var2, j2, direction, pooled=False):
    """One-sided two-sample t-test from group summaries.

    All summary arguments broadcast, so a whole batch of permuted
    relabelings is tested in one call.  Returns ``(t, degenerate, bounds,
    pvalue)``: t oriented so that large values favour ``direction``, the
    degenerate mask, ``bounds(c)`` (see ``_bounds``) and ``pvalue(i)``, the
    p at the entries ``i`` of t.  Where both groups have zero variance the
    point is degenerate and t is +inf, -inf or 0 as the mean difference
    agrees with ``direction``, disagrees or vanishes, so p is 0, 1 or 0.5
    (no evidence either way).  The df is j1 + j2 - 2 if pooled, otherwise
    Welch's.
    """
    if direction not in ("greater", "less"):
        raise ValueError("direction must be 'greater' or 'less'")
    mean1, var1, mean2, var2 = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (mean1, var1, mean2, var2)))
    # formed in place: every temporary is a pass over a batch-sized array
    diff = np.asarray(mean1 - mean2)
    if direction == "less":
        np.negative(diff, out=diff)
    if pooled:
        se2 = np.asarray(((j1 - 1) * var1 + (j2 - 1) * var2) / (j1 + j2 - 2)
                         * (1.0 / j1 + 1.0 / j2))
    else:
        se2 = np.asarray(var1 / j1)
        se2 += var2 / j2
    degenerate = se2 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.divide(diff, np.sqrt(se2, out=se2), out=se2)
    np.copyto(t, 0.0, where=degenerate & (diff == 0.0))

    def pvalue(i):
        # betainc is exactly 0 at x = 0 and 1 at x = 1, so the infinite or
        # zero t of a degenerate point gives p = 0, 1 or 0.5 at any df; there
        # Welch's df is 0 / 0, and df 1 stands in
        if pooled:
            return student_t_sf(t[i], j1 + j2 - 2)
        a = var1[i] / j1
        b = var2[i] / j2
        with np.errstate(divide="ignore", invalid="ignore"):
            df = (a + b) * (a + b) / (a * a / (j1 - 1) + b * b / (j2 - 1))
        return student_t_sf(t[i], np.where(degenerate[i], 1.0, df))

    def bounds(c):
        # Welch's df lies between the smaller group's and the pooled df.  At
        # a fixed t, P(T >= t) falls as df grows when t > 0 and rises when
        # t < 0, so the outer of the bounds at the two ends of the range
        # hold in between.
        dfs = np.array([j1 + j2 - 2 if pooled else min(j1, j2) - 1, j1 + j2 - 2], dtype=float)
        # x = df / (df + t^2) rounds to 1 once |t| < 1e-8 sqrt(df), where the
        # computed p sits flat at 0.5
        return _bounds(c, lambda q: student_t_isf(q, dfs), np.sqrt(j1 + j2 - 2))

    return t, degenerate, bounds, pvalue


def variance_test(var1, j1, var2, j2):
    """One-sided F-test (H1: var1 > var2) from group summaries.

    Returns ``(f, degenerate, bounds, pvalue)`` as ``mean_test`` does, with
    f = var1 / var2 on (j1 - 1, j2 - 1) df.  Where group 2 has zero
    variance the point is degenerate: f is +inf and p is 0 where group 1
    varies there, and f is NaN and p is 0.5 where neither does.
    """
    var1 = np.asarray(var1, dtype=float)
    var2 = np.asarray(var2, dtype=float)
    degenerate = var2 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.asarray(var1 / var2)

    def pvalue(i):
        fi = f[i]
        tie = np.isnan(fi)
        return np.where(tie, 0.5, f_sf(np.where(tie, 1.0, fi), j1 - 1, j2 - 1))

    def bounds(c):
        # x = df2 / (df2 + df1 f) carries 3e-16 of rounding, which is
        # 3e-16 df2 / df1 in f as f goes to 0
        return _bounds(c, lambda q: f_isf(q, j1 - 1, j2 - 1), 1e-6 * (j2 - 1) / (j1 - 1))

    return f, degenerate, bounds, pvalue


def f_isf(q, df1, df2):
    """The f with P(F >= f) = q, for q in [0, 1]: inverse of ``f_sf``."""
    x = betaincinv(df2 / 2.0, df1 / 2.0, q)
    with np.errstate(divide="ignore"):
        return df2 * (1.0 - x) / (df1 * x)


def student_t_isf(q, df):
    """The t with P(T >= t) = q, for q in [0, 1]: inverse of ``student_t_sf``."""
    if q > 0.5:
        return -student_t_isf(1.0 - q, df)
    # T^2 is F(1, df), and P(T >= t) = P(F >= t^2) / 2 for t >= 0
    return np.sqrt(f_isf(2.0 * q, 1.0, df))


def _bounds(c, isf, scale):
    """Statistic bounds ``(lo, hi)``: p <= c above hi, p > c below lo.

    ``isf(q)`` is the statistic at which p = q, one value per degree of
    freedom the points may have; p falls as the statistic grows.  The
    bounds are widened past the rounding of the p path, so a point
    outside [lo, hi] is settled exactly as its computed p would settle
    it.  Near p = 1, p = 1 - tail moves in steps of 1.1e-16, hence the
    1e-15 in p; the inverse is not trusted below q = 1e-15.  In the
    statistic, 1e-6 relative is far above the error of betainc and of the
    inverse, and ``scale`` covers where the statistic enters betainc
    through an x that rounds to 1 (see ``mean_test`` / ``variance_test``).
    """
    q_hi = min(c - 1e-15, 1.0) if c >= 2e-15 else 0.0
    q_lo = min(max(c + 1e-15, 0.0), 1.0)
    hi = float(np.max(isf(q_hi)))
    lo = float(np.min(isf(q_lo)))
    if np.isfinite(hi):
        hi += 1e-6 * (abs(hi) + scale)
    if np.isfinite(lo):
        lo -= 1e-6 * (abs(lo) + scale)
    return lo, hi
