"""Whole-curve permutation engine with minP / maxP / medP family statistics.

Entire curves are relabeled between the two groups, which preserves the
within-curve correlation structure.  The corrected p-value is the rank of
the observed family statistic within its permutation null distribution.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import comb

import numpy as np

from .statcore import (
    PointwisePValues,
    _as_curves,
    variance_f_p,
    welch_mean_p,
)

_REDUCE = {"minP": np.min, "maxP": np.max, "medP": np.median}
FAMILY_KINDS = tuple(_REDUCE)

# relabelings are drawn in fixed-size blocks; block k is keyed by
# (seed, k) so a run is reproducible regardless of execution order
_DRAW_BLOCK = 512

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


@dataclass
class FamilyTestResult:
    observed_stat: float
    corrected_p: float
    stat_kind: str
    n_used: int
    degenerate_points: int = 0


def family_stat(p, kind):
    """Reduce a p-vector over its domain to a single family statistic.

    ``p`` may be a PointwisePValues or a plain array; for ``medP`` the
    median of an even count is the mean of the two middle order
    statistics.
    """
    if kind not in _REDUCE:
        raise ValueError(f"unknown family statistic {kind!r}")
    values = p.masked if isinstance(p, PointwisePValues) else np.asarray(p, dtype=float)
    if values.size == 0:
        raise ValueError("empty p-value family")
    return float(_REDUCE[kind](values))


def _block_rng(seed, block):
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), block]))


def _members(picks, j_total):
    """Boolean membership rows; row i puts curves ``picks[i]`` in group 1."""
    members = np.zeros((len(picks), j_total), dtype=bool)
    np.put_along_axis(members, picks, True, axis=1)
    return members


def _batch_relabelings(seed, start, count, j_total, j1):
    """Membership matrix for permutations [start, start+count)."""
    blocks = range(start // _DRAW_BLOCK, (start + count - 1) // _DRAW_BLOCK + 1)
    u = np.concatenate([_block_rng(seed, b).random((_DRAW_BLOCK, j_total)) for b in blocks])
    lo = start - blocks[0] * _DRAW_BLOCK
    order = np.argsort(u[lo:lo + count], axis=1, kind="stable")
    return _members(order[:, :j1], j_total)


def _batch_pvalues(xd, members, j1, j2, test):
    """Pointwise p-values for a batch of relabelings.

    ``xd`` is the pooled (j1+j2, md) data restricted to the tested
    domain, ``members`` a (n, j1+j2) boolean matrix selecting group 1.
    Returns an (n, md) p matrix plus the degenerate-point mask.
    """
    b = members.astype(float)
    s_tot = xd.sum(axis=0)
    q_tot = (xd * xd).sum(axis=0)
    s1 = b @ xd
    q1 = b @ (xd * xd)
    s2 = s_tot - s1
    q2 = q_tot - q1
    mean1 = s1 / j1
    mean2 = s2 / j2
    var1 = np.clip((q1 - s1 * mean1) / (j1 - 1), 0.0, None)
    var2 = np.clip((q2 - s2 * mean2) / (j2 - 1), 0.0, None)
    # the matmul moments leave cancellation residue when curves coincide;
    # snap sub-roundoff variances and mean gaps to exact zero so the
    # degenerate-point convention can fire
    scale = q_tot / (j1 + j2)
    vtol = 1e-10 * scale
    var1 = np.where(var1 <= vtol, 0.0, var1)
    var2 = np.where(var2 <= vtol, 0.0, var2)
    mean2 = np.where(np.abs(mean1 - mean2) ** 2 <= vtol, mean1, mean2)
    if test.kind == "mean":
        return welch_mean_p(mean1, var1, j1, mean2, var2, j2,
                            test.direction, pooled=test.pooled)
    return variance_f_p(var1, j1, var2, j2)


def _block_counts(xd, members, j1, j2, test, cut):
    """Per kind, how many relabelings in the block reduce to <= ``cut``.

    A function of its own so each block's p matrix is freed before the
    next block is drawn.
    """
    p, _ = _batch_pvalues(xd, members, j1, j2, test)
    return {k: int(np.count_nonzero(f(p, axis=1) <= cut[k])) for k, f in _REDUCE.items()}


def westfall_young_all(g1, g2, test, cfg, domain=None):
    """All three family reductions from a single permutation pass.

    Parameters
    ----------
    g1, g2 : StageSample or (J, m) array
    test : PointwiseTest
    cfg : PermutationConfig
    domain : bool array over the grid, optional

    Returns
    -------
    dict mapping each of FAMILY_KINDS to a FamilyTestResult.  The
    corrected p is the share of relabelings whose family statistic is
    <= the observed one.
    """
    x1 = _as_curves(g1)
    x2 = _as_curves(g2)
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

    p_obs, deg = _batch_pvalues(xd, _members(np.arange(j1)[None], j_total), j1, j2, test)
    observed = {k: float(f(p_obs[0])) for k, f in _REDUCE.items()}

    n_used = comb(j_total, j1) if cfg.exhaustive else cfg.n_permutations
    if bool(np.all(deg)):
        # the groups coincide at every tested point: there is no evidence
        # for any one-sided alternative, so the corrected p is 1 rather
        # than the rank of the all-0.5 vector among mixed relabelings
        counts = dict.fromkeys(_REDUCE, n_used)
    else:
        starts = range(0, n_used, _DRAW_BLOCK)
        if cfg.exhaustive:
            if n_used > _MAX_EXHAUSTIVE:
                raise ValueError(f"{n_used} label assignments is too many to enumerate")
            # a block at a time: all C(20, 10) rows at once would cost ~40 MB
            picks = itertools.combinations(range(j_total), j1)
            blocks = (_members(np.array(list(itertools.islice(picks, _DRAW_BLOCK))), j_total)
                      for _ in starts)
        else:
            blocks = (_batch_relabelings(cfg.seed, i, min(_DRAW_BLOCK, n_used - i), j_total, j1)
                      for i in starts)
        # ties count as <=; the tolerance absorbs ulp-level drift between the
        # batched and single-row BLAS paths
        cut = {k: v + 1e-12 + 1e-9 * v for k, v in observed.items()}
        counts = Counter()
        for members in blocks:
            counts.update(_block_counts(xd, members, j1, j2, test, cut))

    # sampled draws need not include the identity assignment
    floor = 0 if cfg.exhaustive else 1
    return {k: FamilyTestResult(observed_stat=observed[k],
                                corrected_p=max(counts[k], floor) / n_used,
                                stat_kind=k,
                                n_used=n_used,
                                degenerate_points=int(np.count_nonzero(deg)))
            for k in _REDUCE}


def westfall_young(g1, g2, test, kind, cfg, domain=None):
    """Permutation-corrected family test of two groups of curves.

    The ``kind`` entry of ``westfall_young_all``; ``kind`` is one of
    'minP', 'maxP', 'medP'.  Returns a FamilyTestResult.
    """
    if kind not in _REDUCE:
        raise ValueError(f"unknown family statistic {kind!r}")
    return westfall_young_all(g1, g2, test, cfg, domain)[kind]
