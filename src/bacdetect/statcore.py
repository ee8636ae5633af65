"""Distribution tail functions and the pointwise two-sample tests.

At every grid point of the quantile domain a one-sided two-sample test
is run, a t-test for the mean curves (Welch by default) or an F-test for
the variance curves.  Both p-values reduce to the regularized incomplete
beta function.  The permutation engine needs p only for the observed
labelling; for relabelings it screens the statistic itself against the
bounds of ``t_bounds`` / ``f_bounds`` and evaluates p only at the points
those bounds leave unsettled.  So ``mean_t`` returns t and the degenerate
mask only; Welch's df, which the screen never reads, is formed by
``welch_mean_p`` for the points whose p it computes.
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
    # T^2 is F(1, df): P(T >= t) = P(F >= t^2) / 2 for t >= 0, reflect for t < 0
    tail = 0.5 * _f_tail(t * t, 1.0, df)
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


def mean_t(mean1, var1, j1, mean2, var2, j2, direction, pooled=False):
    """One-sided two-sample t statistics from group summaries.

    All summary arguments broadcast, so a whole batch of permuted
    relabelings can be evaluated in one call.  Returns the arrays
    ``(t, degenerate)``, with t oriented so that large values favour
    ``direction``.  Where both groups have zero variance the point is
    flagged degenerate and t is +inf, -inf or 0 as the mean difference
    agrees with ``direction``, disagrees or vanishes.
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
    return t, degenerate


def _mean_df(var1, j1, var2, j2, pooled):
    """The df of ``mean_t``'s t: j1 + j2 - 2 if pooled, otherwise Welch's."""
    if pooled:
        return float(j1 + j2 - 2)
    a = np.asarray(var1, dtype=float) / j1
    b = np.asarray(var2, dtype=float) / j2
    with np.errstate(divide="ignore", invalid="ignore"):
        return (a + b) * (a + b) / (a * a / (j1 - 1) + b * b / (j2 - 1))


def welch_mean_p(mean1, var1, j1, mean2, var2, j2, direction, pooled=False):
    """One-sided two-sample t-test p-values from group summaries.

    Arguments as for ``mean_t``.  Returns the arrays ``(p, degenerate)``.
    At a degenerate point (zero variance in both groups) p follows the
    sign of the mean difference: 0.5 for equal means (no evidence either
    way), otherwise 0 or 1 as the difference agrees with ``direction`` or
    not; the infinite or zero t of ``mean_t`` gives exactly that, with df 1.
    """
    t, degenerate = mean_t(mean1, var1, j1, mean2, var2, j2, direction, pooled)
    df = np.where(degenerate, 1.0, _mean_df(var1, j1, var2, j2, pooled))
    return student_t_sf(t, df), degenerate


def variance_f(var1, var2):
    """F statistics var1 / var2, and the points where var2 is zero.

    Returns the arrays ``(f, degenerate)``; f is 1 at degenerate points.
    """
    var1 = np.asarray(var1, dtype=float)
    var2 = np.asarray(var2, dtype=float)
    degenerate = var2 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.asarray(var1 / var2)
    np.copyto(f, 1.0, where=degenerate)
    return f, degenerate


def variance_f_p(var1, j1, var2, j2):
    """One-sided F-test p-values (H1: var1 > var2) from group summaries.

    Returns the arrays ``(p, degenerate)``.  Where group 2 has zero
    variance the point is flagged degenerate: p is 0 if group 1 varies
    there and 0.5 if neither does.
    """
    f, degenerate = variance_f(var1, var2)
    p = f_sf(f, j1 - 1, j2 - 1)
    p = np.where(degenerate, np.where(np.asarray(var1) > 0, 0.0, 0.5), p)
    return p, degenerate


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
    through an x that rounds to 1 (see ``t_bounds`` / ``f_bounds``).
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


def t_bounds(c, df_min, df_max):
    """Bounds ``(lo, hi)`` on t that settle p <= c for every df in range.

    For every df in [df_min, df_max], ``student_t_sf(t, df)`` is <= c
    where t > hi and > c where t < lo.  At a fixed t, P(T >= t) falls as
    df grows when t > 0 and rises when t < 0, so the outer of the bounds
    at the two ends of the range hold in between.
    """
    dfs = np.array([df_min, df_max], dtype=float)
    # x = df / (df + t^2) rounds to 1 once |t| < 1e-8 sqrt(df), where the
    # computed p sits flat at 0.5
    return _bounds(c, lambda q: student_t_isf(q, dfs), np.sqrt(df_max))


def f_bounds(c, df1, df2):
    """Bounds ``(lo, hi)`` on f: ``f_sf(f, df1, df2)`` <= c above hi, > c below lo."""
    # x = df2 / (df2 + df1 f) carries 3e-16 of rounding, which is
    # 3e-16 df2 / df1 in f as f goes to 0
    return _bounds(c, lambda q: f_isf(q, df1, df2), 1e-6 * df2 / df1)
