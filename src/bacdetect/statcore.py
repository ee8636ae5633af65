"""Distribution tail functions and the pointwise two-sample tests.

The permutation engine consumes vectors of pointwise p-values: at every
grid point of the quantile domain a one-sided two-sample test is run, a
t-test for the mean curves (Welch by default) or an F-test for the
variance curves.  Both p-values reduce to the regularized incomplete
beta function.
"""

from __future__ import annotations

import numpy as np
from scipy.special import betainc


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
    # P(T >= t) = 0.5 * I_{df/(df+t^2)}(df/2, 1/2) for t >= 0, reflect for t < 0
    x = df / (df + t * t)
    tail = 0.5 * betainc(df / 2.0, 0.5, x)
    out = np.where(t >= 0, tail, 1.0 - tail)
    # +inf / -inf map to 0 / 1
    out = np.where(np.isposinf(t), 0.0, out)
    return np.where(np.isneginf(t), 1.0, out)


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
    # P(F >= f) = I_{df2/(df2 + df1 f)}(df2/2, df1/2), evaluated directly
    # in the upper-tail form to keep small tail probabilities accurate.
    x = df2 / (df2 + df1 * f)
    out = betainc(df2 / 2.0, df1 / 2.0, x)
    return np.where(np.isposinf(f), 0.0, out)


def welch_mean_p(mean1, var1, j1, mean2, var2, j2, direction, pooled=False):
    """One-sided two-sample t-test p-values from group summaries.

    All summary arguments broadcast, so a whole batch of permuted
    relabelings can be evaluated in one call.  Returns the arrays
    ``(p, degenerate)``.  Where both groups have zero variance the point
    is flagged degenerate and p follows the sign of the mean difference:
    0.5 for equal means (no evidence either way), otherwise 0 or 1 as the
    difference agrees with ``direction`` or not.
    """
    if direction not in ("greater", "less"):
        raise ValueError("direction must be 'greater' or 'less'")
    mean1, var1 = np.asarray(mean1, dtype=float), np.asarray(var1, dtype=float)
    mean2, var2 = np.asarray(mean2, dtype=float), np.asarray(var2, dtype=float)
    diff = mean1 - mean2
    if pooled:
        vp = ((j1 - 1) * var1 + (j2 - 1) * var2) / (j1 + j2 - 2)
        se2 = vp * (1.0 / j1 + 1.0 / j2)
        df = np.broadcast_to(float(j1 + j2 - 2), np.shape(se2)).copy()
    else:
        a = var1 / j1
        b = var2 / j2
        se2 = a + b
        with np.errstate(divide="ignore", invalid="ignore"):
            df = se2 * se2 / (a * a / (j1 - 1) + b * b / (j2 - 1))
    degenerate = se2 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(se2)
    if direction == "less":
        t = -t
        diff = -diff
    df = np.where(degenerate, 1.0, df)
    t = np.where(degenerate, 0.0, t)
    p = student_t_sf(t, df)
    # zero variance in both groups: decided by the sign of the difference
    decided = np.where(diff > 0, 0.0, np.where(diff < 0, 1.0, 0.5))
    p = np.where(degenerate, decided, p)
    return p, degenerate


def variance_f_p(var1, j1, var2, j2):
    """One-sided F-test p-values (H1: var1 > var2) from group summaries.

    Returns the arrays ``(p, degenerate)``.  Where group 2 has zero
    variance the point is flagged degenerate: p is 0 if group 1 varies
    there and 0.5 if neither does.
    """
    var1 = np.asarray(var1, dtype=float)
    var2 = np.asarray(var2, dtype=float)
    degenerate = var2 <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        f = var1 / var2
    f = np.where(degenerate, 1.0, f)
    p = f_sf(f, j1 - 1, j2 - 1)
    p = np.where(degenerate, np.where(var1 > 0, 0.0, 0.5), p)
    return p, degenerate

