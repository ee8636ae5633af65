"""Distribution tail functions and the pointwise two-sample tests.

At every grid point of the quantile domain a one-sided two-sample test
is run, a t-test for the mean curves (Welch by default) or an F-test for
the variance curves.  Both p-values reduce to the regularized incomplete
beta function.  ``mean_test`` and ``variance_test`` each own their test
whole: the statistic, its degenerate points, its degrees of freedom, the
statistic bounds that settle p <= c, and p itself.  The permutation
engine screens each relabeling's statistic against those bounds and reads
p off the statistic it already holds, only at the points the bounds leave
unsettled; Welch's df is formed only there.  The incomplete beta and its
inverse are computed here, with numpy and ``math`` alone.
"""

from __future__ import annotations

import math

import numpy as np


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
    # a NaN carries through min and max, and fails both comparisons
    if df.size and not (df.min() > 0 and df.max() < np.inf):
        raise ValueError("degrees of freedom must be finite and > 0")
    if t.size and np.isnan(t.min()):
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
        Numerator / denominator degrees of freedom, finite and > 0.

    Returns
    -------
    ndarray, 0-d for scalar arguments
    """
    f = np.asarray(f, dtype=float)
    df1 = np.asarray(df1, dtype=float)
    df2 = np.asarray(df2, dtype=float)
    # a NaN carries through min and max, and fails every comparison
    if any(d.size and not (d.min() > 0 and d.max() < np.inf) for d in (df1, df2)):
        raise ValueError("degrees of freedom must be finite and > 0")
    # f = +inf is allowed: its tail is 0
    if f.size and not f.min() >= 0:
        raise ValueError("statistic must not be NaN and must be >= 0")
    return np.asarray(_f_tail(f, df1, df2))


def _f_tail(f, df1, df2):
    """P(F >= f), unchecked; f = inf gives x = 0, where I_x is 0.

    P(F >= f) = I_{df2/(df2 + df1 f)}(df2/2, df1/2), evaluated directly
    in the upper-tail form to keep small tail probabilities accurate.
    """
    return _betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


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
    args = [np.asarray(a, dtype=float) for a in (mean1, var1, mean2, var2)]
    if len({a.shape for a in args}) > 1:
        args = np.broadcast_arrays(*args)
    mean1, var1, mean2, var2 = args
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
        # I_x is exactly 0 at x = 0 and 1 at x = 1, so the infinite or
        # zero t of a degenerate point gives p = 0, 1 or 0.5 at any df; there
        # Welch's df is 0 / 0, and df 1 stands in
        if pooled:
            return student_t_sf(t[i], j1 + j2 - 2)
        a = var1[i] / j1
        b = var2[i] / j2
        s = a + b
        with np.errstate(divide="ignore", invalid="ignore"):
            df = s * s / (a * a / (j1 - 1) + b * b / (j2 - 1))

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
    q = _checked_q(q)
    x = _betaincinv(df2 / 2.0, df1 / 2.0, q)
    with np.errstate(divide="ignore"):
        return df2 * (1.0 - x) / (df1 * x)


def student_t_isf(q, df):
    """The t with P(T >= t) = q, for q in [0, 1]: inverse of ``student_t_sf``."""
    # a q outside [0, 1] reaches f_isf outside it too, and is rejected there
    q = np.asarray(q, dtype=float)

    # T^2 is F(1, df), and P(T >= t) = P(F >= t^2) / 2 for t >= 0; past
    # q = 1/2, t is the negative of the t at 1 - q
    upper = q > 0.5
    t = np.sqrt(f_isf(2.0 * np.where(upper, 1.0 - q, q), 1.0, df))
    return np.where(upper, -t, t)


def _checked_q(q):
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("tail probability q must lie in [0, 1]")
    return q


def _bounds(c, isf, scale):
    """Statistic bounds ``(lo, hi)``: p <= c above hi, p > c below lo.

    ``isf(q)`` is the statistic at which p = q, one value per degree of
    freedom the points may have; p falls as the statistic grows.  The
    bounds are widened past the rounding of the p path, so a point
    outside [lo, hi] is settled exactly as its computed p would settle
    it.  Near p = 1, p = 1 - tail moves in steps of 1.1e-16, hence the
    1e-15 in p; the inverse is not trusted below q = 1e-15.  In the
    statistic, 1e-6 relative is far above the error of the incomplete beta
    and of its inverse, and ``scale`` covers where the statistic enters the
    incomplete beta through an x that rounds to 1 (see ``mean_test`` /
    ``variance_test``).
    """
    q_hi = min(c - 1e-15, 1.0) if c >= 2e-15 else 0.0
    q_lo = min(max(c + 1e-15, 0.0), 1.0)
    # one inverse call: row 0 at q_hi, row 1 at q_lo
    stat = isf(np.array([[q_hi], [q_lo]]))
    hi = float(np.max(stat[0]))
    lo = float(np.min(stat[1]))
    if np.isfinite(hi):
        hi += 1e-6 * (abs(hi) + scale)
    if np.isfinite(lo):
        lo -= 1e-6 * (abs(lo) + scale)
    return lo, hi


# The regularized incomplete beta I_x(a, b) and its inverse.  With t = x u
# and then u = v^(1/a),
#
#     I_x(a, b) = x^a / (a B(a, b)) * integral_0^1 (1 - x v^(1/a))^(b-1) dv,
#
# an integrand without a singularity at v = 0 for any a > 0, summed by the
# tanh-sinh (double exponential) rule of Takahasi & Mori (1974) on fixed
# nodes.  Below the swap point x = (a + 1) / (a + b + 2) the integrand has
# its mass at v = 1, where the rule's nodes crowd; above it,
# I_x(a, b) = 1 - I_{1-x}(b, a) is used, so a small tail is never the
# difference of near-equal numbers (Press et al., *Numerical Recipes*, 3rd
# ed., 6.4).  Every entry is the same fixed sum of its own terms, so its
# value does not depend on what else is in the call.

# rule step and node range, t in [-3.25, 3.5]: 55 nodes, within 2e-13 of
# the integral for a, b in [0.5, 30], 2e-12 for a, b up to 60 and 4e-10
# for a, b up to 1,000 or a down to 0.01
_DE_STEP = 0.125
_DE_T = np.arange(-26, 29) * _DE_STEP
# log v and log(weight) at the nodes v = 1 / (1 + exp(-pi sinh t))
_DE_LOGV = -np.log1p(np.exp(-np.pi * np.sinh(_DE_T)))
_DE_LOGW = (np.log(_DE_STEP * np.pi * np.cosh(_DE_T)) + _DE_LOGV
            - np.log1p(np.exp(np.pi * np.sinh(_DE_T))))
# entries per pass: a pass's (entries, nodes) arrays hold about 16,000
# values, as the permutation engine's tiles do
_BETA_CHUNK = 16_000 // _DE_T.size


def _betainc(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]; ``a`` and ``b`` broadcast to ``x``."""
    x = np.asarray(x, dtype=float)
    shape = x.shape
    # a 0-d a or b stays one value, so its lgamma is taken once
    a, b = (v if v.ndim == 0 else (v if v.shape == shape else np.broadcast_to(v, shape)).ravel()
            for v in (np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    x = x.ravel()
    if x.size <= _BETA_CHUNK:
        return _betainc_flat(a, b, x).reshape(shape)
    out = np.empty(x.size)
    for start in range(0, x.size, _BETA_CHUNK):
        part = slice(start, start + _BETA_CHUNK)
        out[part] = _betainc_flat(*(v if v.ndim == 0 else v[part] for v in (a, b, x)))
    return out.reshape(shape)


def _lgamma(v):
    """``math.lgamma`` of each entry of ``v``; a float for a 0-d ``v``."""
    if v.ndim == 0:
        return math.lgamma(v)
    return np.fromiter(map(math.lgamma, v.tolist()), dtype=float, count=v.size)


def _betainc_flat(a, b, x, lnbeta=None):
    """I_x(a, b) of a flat ``x``; ``a`` and ``b`` are 0-d or of its size."""
    s = a + b
    if lnbeta is None:
        lnbeta = _lgamma(a) + _lgamma(b) - _lgamma(s)
    swap = x * (s + 2.0) > a + 1.0
    flip = swap.any()
    if flip:
        x, a, b = np.where(swap, 1.0 - x, x), np.where(swap, b, a), np.where(swap, a, b)
    with np.errstate(divide="ignore"):
        # x = 0 gives log x = -inf, and I_0 = 0
        alogx = a * np.log(x)
    # the log of each term, log(weight) + log(x^a / (a B(a, b)))
    # + (b - 1) log(1 - x v^(1/a)), worked in place in one (entries, nodes)
    # array from log(x v^(1/a)) = (a log x + log v) / a
    e = np.add.outer(alogx, _DE_LOGV)
    e /= np.reshape(a, (-1, 1))
    np.negative(np.exp(e, out=e), out=e)
    np.log1p(e, out=e)
    e *= np.reshape(b - 1.0, (-1, 1))
    e += (alogx - np.log(a) - lnbeta)[:, None]
    e += _DE_LOGW
    p = np.exp(e, out=e).sum(axis=1)
    return np.where(swap, 1.0 - p, p) if flip else p


def _betaincinv(a, b, q):
    """The x with I_x(a, b) = q, for a, b > 0 and q in [0, 1].

    Each entry solves its smaller tail, I_x(a, b) = q or, past q = 1/2,
    I_y(b, a) = 1 - q with y = 1 - x, so that its error is measured on the
    scale of the tail.  From ``_beta_start``, fourth-order Householder
    steps run, with one ``_betainc_flat`` call for all open entries per
    step, until an entry's step moves its unknown and 1 minus it by less
    than 3e-4 of themselves: the error left after a step is about the
    fourth power of that.  The few entries of a call are stepped as Python
    floats.
    """
    entries = np.broadcast(a, b, q)
    flip, terms = [], []
    for ak, bk, qk in entries:
        ak, bk, qk = float(ak), float(bk), float(qk)
        flip.append(qk > 0.5)
        if flip[-1]:
            ak, bk, qk = bk, ak, 1.0 - qk
        terms.append((ak, bk, qk, math.lgamma(ak) + math.lgamma(bk) - math.lgamma(ak + bk)))
    x = [_beta_start(ak, bk, qk) for ak, bk, qk, _ in terms]
    # an x of 0 is final: the root is within an ulp of it
    todo = [k for k in range(len(x)) if x[k] > 0.0]
    for k in todo:
        if not x[k] < 1.0:
            # a start rounded up to 1 begins at the mean instead
            x[k] = terms[k][0] / (terms[k][0] + terms[k][1])
    for _ in range(64):
        if not todo:
            break
        a, b, _, lnbeta = (np.array(v) for v in zip(*(terms[k] for k in todo)))
        tails = _betainc_flat(a, b, np.array([x[k] for k in todo]), lnbeta)
        left = []
        for k, tail in zip(todo, tails.tolist()):
            x[k], step = _householder(*terms[k], x[k], tail)
            if 0.0 < x[k] < 1.0 and not abs(step) <= 3e-4 * min(x[k], 1.0 - x[k]):
                left.append(k)
        todo = left
    return np.array([1.0 - xk if fk else xk for xk, fk in zip(x, flip)]).reshape(entries.shape)


def _householder(a, b, q, lnbeta, x, tail):
    """One step on I_x(a, b) = q from x, where I_x(a, b) is ``tail``: (new x, step)."""
    err = tail - q
    # the step u (6 - 3 u g) / (6 - 6 u g + u^2 g3), with u = (I - q) / I',
    # g = I''/I' and g3 = I'''/I' = g^2 + dg/dx; Newton's u if that fails
    scale = lnbeta - (a - 1.0) * math.log(x) - (b - 1.0) * math.log1p(-x)
    if scale < 700.0:
        u = err * math.exp(scale)
        g = (a - 1.0) / x - (b - 1.0) / (1.0 - x)
        g3 = g * g - (a - 1.0) / (x * x) - (b - 1.0) / ((1.0 - x) * (1.0 - x))
        den = 6.0 - 6.0 * u * g + u * u * g3
        step = u * (6.0 - 3.0 * u * g) / den if den > 0.0 else u
        if 0.0 < x - step < 1.0:
            return x - step, step
    # a step out of (0, 1), or past an underflowed density, goes halfway to
    # the end the error points to instead
    return (0.5 * x if err > 0.0 else 0.5 * (x + 1.0)), math.inf


def _beta_start(a, b, q):
    """A starting point for ``_betaincinv`` at q <= 1/2.

    The density taken as its power-law ends, x^(a-1) below a / (a + b) and
    (1 - x)^(b-1) above it, normalized and inverted in closed form (Press et
    al., *Numerical Recipes*, 3rd ed., 6.14).
    """
    if q <= 0.0:
        return 0.0
    s = math.exp(a * math.log(a / (a + b))) / a
    u = math.exp(b * math.log(b / (a + b))) / b
    if q < s / (s + u):
        return (a * (s + u) * q) ** (1.0 / a)
    return 1.0 - (b * (s + u) * (1.0 - q)) ** (1.0 / b)
