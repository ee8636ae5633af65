"""Whole-curve permutation engine with minP / maxP / medP family statistics.

Entire curves are relabeled between the two groups, which preserves the
within-curve correlation structure.  The corrected p-value is the rank of
the observed family statistic within its permutation null distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from numbers import Integral

import numpy as np

from .statcore import (
    f_bounds,
    mean_t,
    t_bounds,
    variance_f,
    variance_f_p,
    welch_mean_p,
)

_REDUCE = {"minP": np.min, "maxP": np.max, "medP": np.median}
FAMILY_KINDS = tuple(_REDUCE)

# relabelings are drawn in fixed-size blocks; block k is keyed by
# (seed, k) so a run is reproducible regardless of execution order
_DRAW_BLOCK = 512
# blocks are worked in row tiles of at most this many entries: a tile's
# float arrays (125 KiB) stay in L2 and under malloc's mmap threshold
_TILE = 16_000

# refuse exhaustive enumeration beyond this many label assignments
_MAX_EXHAUSTIVE = 500_000


@dataclass(frozen=True)
class PointwiseTest:
    """Which univariate test to run at every grid point."""

    kind: str = "mean"  # 'mean' or 'variance'
    direction: str = "greater"  # mean test only
    pooled: bool = False

    def __post_init__(self):
        if self.kind not in ("mean", "variance"):
            raise ValueError(f"unknown pointwise test kind {self.kind!r}")
        if self.direction not in ("greater", "less"):
            raise ValueError(f"unknown direction {self.direction!r}")


@dataclass
class PermutationConfig:
    n_permutations: int = 50_000
    seed: int = 0
    exhaustive: bool = False

    def __post_init__(self):
        if self.n_permutations < 1:
            raise ValueError("need at least one permutation")
        # a Philox key word is 64 bits; a wider or negative seed would be
        # wrapped or cast onto another seed's stream
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), not {seed!r}")


@dataclass
class FamilyTestResult:
    observed_stat: float
    corrected_p: float
    stat_kind: str
    n_used: int
    degenerate_points: int = 0


def _members(picks, j_total):
    """Boolean membership rows; row i puts curves ``picks[i]`` in group 1."""
    members = np.zeros((len(picks), j_total), dtype=bool)
    np.put_along_axis(members, picks, True, axis=1)
    return members


def _batch_relabelings(seed, block, count, j_total, j1):
    """Membership matrix for the first ``count`` permutations of ``block``."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    u = rng.random((count, j_total))
    order = np.argsort(u, axis=1, kind="stable")
    return _members(order[:, :j1], j_total)


def _pooled_sums(xd):
    """Squares and column sums of the pooled data, shared by a call's tiles."""
    xx = xd * xd
    return xx, xd.sum(axis=0), xx.sum(axis=0)


def _batch_moments(xd, sums, members, j1, j2, means=True):
    """Group means and variances for a batch of relabelings.

    ``xd`` is the pooled (j1+j2, md) data on the tested domain, ``sums``
    its ``_pooled_sums``, ``members`` a (n, j1+j2) boolean matrix
    selecting group 1.  Returns the (n, md) arrays ``(mean1, var1, mean2,
    var2)``; mean gaps are snapped only if ``means``, for the t test.
    """
    xx, s_tot, q_tot = sums
    b = members.astype(float)
    s1 = b @ xd
    q1 = b @ xx
    s2 = s_tot - s1
    mean1 = s1 / j1
    mean2 = s2 / j2
    # var = (q - s * mean) / (j - 1), formed in the buffers of s and q
    var1 = np.subtract(q1, np.multiply(s1, mean1, out=s1), out=s1)
    var1 /= j1 - 1
    q2 = np.subtract(q_tot, q1, out=q1)
    var2 = np.subtract(q2, np.multiply(s2, mean2, out=s2), out=s2)
    var2 /= j2 - 1
    # the matmul moments leave cancellation residue when curves coincide;
    # snap sub-roundoff variances (negative ones too, as vtol >= 0) and
    # mean gaps to exact zero so the degenerate-point convention can fire
    vtol = 1e-10 * (q_tot / (j1 + j2))
    np.copyto(var1, 0.0, where=var1 <= vtol)
    np.copyto(var2, 0.0, where=var2 <= vtol)
    if means:
        gap = np.subtract(mean1, mean2, out=q2)
        np.copyto(mean2, mean1, where=np.multiply(gap, gap, out=gap) <= vtol)
    return mean1, var1, mean2, var2


def _statistic(xd, sums, members, j1, j2, test):
    """The pointwise statistic, its degenerate mask, its bounds and its p.

    p falls as the statistic grows; ``bounds(c)`` returns ``(lo, hi)``
    with p <= c wherever the statistic is > hi and p > c wherever it is
    < lo, whatever each point's degrees of freedom.  ``pvalue(i)`` is the
    p at the entries ``i`` of the moment arrays of ``members``.
    """
    mean1, var1, mean2, var2 = _batch_moments(xd, sums, members, j1, j2, test.kind == "mean")
    if test.kind == "mean":
        t, degenerate = mean_t(mean1, var1, j1, mean2, var2, j2,
                               test.direction, pooled=test.pooled)
        # Welch's df lies between the smaller group's and the pooled df
        df_min = j1 + j2 - 2 if test.pooled else min(j1, j2) - 1
        return (t, degenerate, lambda c: t_bounds(c, df_min, j1 + j2 - 2),
                lambda i: welch_mean_p(mean1[i], var1[i], j1, mean2[i], var2[i], j2,
                                       test.direction, pooled=test.pooled)[0])
    f, degenerate = variance_f(var1, var2)
    return (f, degenerate, lambda c: f_bounds(c, j1 - 1, j2 - 1),
            lambda i: variance_f_p(var1[i], j1, var2[i], j2)[0])


def _block_counts(xd, sums, blocks, j1, j2, test, cut):
    """Per kind in ``cut``, how many relabelings of ``blocks`` reduce to <= its cut.

    Counted in statistic space: a point is settled by the bounds on its
    statistic, and p is evaluated only at the few points between the
    bounds and at degenerate points, whose p is fixed by convention.
    With the settled flags ``p <= cut`` known for every point, minP,
    maxP and medP are <= cut exactly when at least 1, m or m // 2 + 1
    points are; for an even m, a row with exactly m / 2 such points
    reduces to the mean of the two middle p's, so its median is taken.
    The counts equal those of reducing the full p matrix.  Each block's
    rows are worked through in tiles of at most ``_TILE`` entries.
    """
    m = xd.shape[1]
    need = {"minP": 1, "maxP": m, "medP": m // 2 + 1}
    counts = dict.fromkeys(cut, 0)
    limits = None
    step = max(1, _TILE // m)
    for tile in (b[i:i + step] for b in blocks for i in range(0, len(b), step)):
        stat, degenerate, bounds, pvalue = _statistic(xd, sums, tile, j1, j2, test)
        limits = limits or {kind: bounds(c) for kind, c in cut.items()}
        for kind, c in cut.items():
            lo, hi = limits[kind]
            le = stat > hi
            # a flat index: 2-D nonzero is ten times slower on these shapes
            flat = np.flatnonzero(degenerate | ~(le | (stat < lo)))
            if flat.size:
                le.flat[flat] = pvalue(np.divmod(flat, m)) <= c
            hits = np.count_nonzero(le, axis=1)
            ok = hits >= need[kind]
            if kind == "medP" and m % 2 == 0:
                tie = np.flatnonzero(hits == need[kind] - 1)
                if tie.size:
                    ok[tie] = np.median(pvalue(tie), axis=1) <= c
            counts[kind] += int(np.count_nonzero(ok))
    return counts


def westfall_young_all(g1, g2, test, cfg, domain=None, kinds=FAMILY_KINDS):
    """Family reductions from a single permutation pass.

    Parameters
    ----------
    g1, g2 : (J1, m) and (J2, m) arrays of curves, one row per location
    test : PointwiseTest
    cfg : PermutationConfig
    domain : bool array over the grid, optional
    kinds : the reductions to tally, from FAMILY_KINDS

    Returns
    -------
    dict mapping each of ``kinds`` to a FamilyTestResult.  The corrected
    p is the share of relabelings whose family statistic is <= the
    observed one.
    """
    if not set(kinds) <= set(_REDUCE):
        raise ValueError(f"unknown family statistic in {kinds!r}")
    x1 = np.asarray(g1, dtype=float)
    x2 = np.asarray(g2, dtype=float)
    if x1.ndim != 2 or x2.ndim != 2 or x1.shape[1] != x2.shape[1]:
        raise ValueError("curve groups must share one evaluation grid")
    j1, j2 = x1.shape[0], x2.shape[0]
    if j1 < 2 or j2 < 2:
        raise ValueError("each group needs at least 2 curves")
    m = x1.shape[1]
    mask = np.ones(m, dtype=bool) if domain is None else np.asarray(domain, dtype=bool)
    if not np.any(mask):
        raise ValueError("domain mask selects no grid points")
    xd = np.vstack([x1, x2])[:, mask]
    j_total = j1 + j2
    n_used = comb(j_total, j1) if cfg.exhaustive else cfg.n_permutations
    if cfg.exhaustive and n_used > _MAX_EXHAUSTIVE:
        raise ValueError(f"{n_used} label assignments is too many to enumerate")

    identity = _members(np.arange(j1)[None], j_total)
    sums = _pooled_sums(xd)
    _, deg, _, pvalue = _statistic(xd, sums, identity, j1, j2, test)
    p_obs = pvalue(0)
    observed = {k: float(_REDUCE[k](p_obs)) for k in kinds}

    if bool(np.all(deg)):
        # the groups coincide at every tested point: there is no evidence
        # for any one-sided alternative, so the corrected p is 1 rather
        # than the rank of the all-0.5 vector among mixed relabelings
        counts = dict.fromkeys(kinds, n_used)
    else:
        starts = range(0, n_used, _DRAW_BLOCK)
        if cfg.exhaustive:
            # a block at a time: all C(20, 10) rows at once would cost ~40 MB
            picks = itertools.combinations(range(j_total), j1)
            blocks = (_members(np.array(list(itertools.islice(picks, _DRAW_BLOCK))), j_total)
                      for _ in starts)
        else:
            blocks = (_batch_relabelings(cfg.seed, b, min(_DRAW_BLOCK, n_used - i), j_total, j1)
                      for b, i in enumerate(starts))
        # ties count as <=; the tolerance absorbs ulp-level drift between the
        # batched and single-row BLAS paths
        cut = {k: v + 1e-12 + 1e-9 * v for k, v in observed.items()}
        counts = _block_counts(xd, sums, blocks, j1, j2, test, cut)

    # sampled draws need not include the identity assignment
    floor = 0 if cfg.exhaustive else 1
    return {k: FamilyTestResult(observed_stat=observed[k],
                                corrected_p=max(counts[k], floor) / n_used,
                                stat_kind=k,
                                n_used=n_used,
                                degenerate_points=int(np.count_nonzero(deg)))
            for k in kinds}


def westfall_young(g1, g2, test, kind, cfg, domain=None):
    """Permutation-corrected family test of two groups of curves.

    ``westfall_young_all`` tallying the one reduction ``kind``, one of
    'minP', 'maxP', 'medP'.  Returns a FamilyTestResult.
    """
    return westfall_young_all(g1, g2, test, cfg, domain, kinds=(kind,))[kind]
