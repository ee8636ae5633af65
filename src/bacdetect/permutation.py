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

from .statcore import mean_test, variance_test

_REDUCE = {"minP": np.min, "maxP": np.max, "medP": np.median}

# relabelings are drawn in fixed-size blocks; block k is keyed by
# (seed, k) so a run is reproducible regardless of execution order
_DRAW_BLOCK = 512
# blocks are worked in tiles of at most this many entries: a tile's
# float arrays (125 KiB) stay in L2 and under malloc's mmap threshold
_TILE = 16_000
# glibc's malloc hands the free top of its heap back to the system past a
# trim threshold of 128 KiB, and serves blocks above that size from fresh
# maps, so arrays freed and made again page-fault back in each time: the
# engine's tile arrays (3,200 minor faults per decide_curves decide, 75 per
# type2_sim replicate) and a shop-floor decide's per-location scans (56.6k
# faults per raw_scans decide).  Freeing one block past the threshold raises
# it, and the trim threshold with it, for the whole process (mallopt(3),
# "dynamic mmap threshold"), so this 8 MiB block, larger than a 480×640
# scan's arrays, keeps them on the heap; elsewhere this allocation is a no-op.
np.empty(1 << 20)

# the first column chunk of a block is this wide, and each next one twice as wide
_CHUNK = 16

# refuse to enumerate more label assignments than this or the sampled budget
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
        n = self.n_permutations
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValueError(f"n_permutations must be an integer >= 1, not {n!r}")
        # a Philox key word is 64 bits; a wider or negative seed would be
        # wrapped or cast onto another seed's stream
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), not {seed!r}")
        # plain ints, so a report of numpy-integer settings serializes
        self.n_permutations, self.seed = int(n), int(seed)


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
    return _lowest_members(rng.random((count, j_total)), j1)


def _lowest_members(u, j1):
    """Membership rows putting the ``j1`` smallest entries of each row of ``u`` in group 1.

    The rows ``argsort(u, kind="stable")[:, :j1]`` picks, found by one row
    sort: group 1 is ``u <= `` its j1-th smallest value.  Where a row's
    j1-th and (j1 + 1)-th smallest values tie, the block takes the stable
    argsort, which breaks the tie by column.
    """
    cut = np.sort(u, axis=1)[:, j1 - 1:j1 + 1]
    if np.any(cut[:, 0] == cut[:, 1]):
        return _members(np.argsort(u, axis=1, kind="stable")[:, :j1], u.shape[1])
    return u <= cut[:, :1]


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

    ``statcore.mean_test`` / ``variance_test`` on the moments of
    ``members``: p falls as the statistic grows; ``bounds(c)`` returns
    ``(lo, hi)`` with p <= c wherever the statistic is > hi and p > c
    wherever it is < lo, whatever each point's degrees of freedom.
    ``pvalue(i)`` is the p at the entries ``i`` of the statistic.
    """
    mean1, var1, mean2, var2 = _batch_moments(xd, sums, members, j1, j2, test.kind == "mean")
    if test.kind == "mean":
        return mean_test(mean1, var1, j1, mean2, var2, j2, test.direction, test.pooled)
    return variance_test(var1, j1, var2, j2)


def _spread_order(m):
    """The m tested columns in bit-reversed index order.

    Every prefix of the order is spread evenly over the domain, and points
    far apart settle a relabeling sooner than neighbours do.
    """
    bits = max(1, (m - 1).bit_length())
    i = np.arange(m)
    return np.argsort(sum(((i >> b) & 1) << (bits - 1 - b) for b in range(bits)))


def _chunk_edges(m, kind):
    """Column counts after which a block's settled rows are dropped.

    Chunks grow as ``_CHUNK``, 2 ``_CHUNK``, 4 ``_CHUNK``, ... columns, with
    one more edge at m // 2 + 1, the first count at which a medP row can
    settle.  No chunk is one column wide unless m == 1: a one-column
    product takes BLAS's matrix-vector path, which rounds otherwise.
    """
    edges = {m, m // 2 + 1} if kind == "medP" else {m}
    e, w = _CHUNK, _CHUNK
    while e < m:
        edges.add(e)
        w *= 2
        e += w
    edges = sorted(edges)
    # an edge one column short of the next is dropped; m itself is kept
    return [0] + [e for e, nxt in zip(edges, edges[1:] + [m + 2]) if nxt - e > 1]


def _count_le(stat, degenerate, pvalue, limits, c):
    """Per row of ``stat``, how many points have p <= c.

    A point is settled by the bounds ``limits`` on its statistic; p is
    evaluated only at the points between them and at degenerate points,
    whose p is fixed by convention.
    """
    lo, hi = limits
    le = stat > hi
    # a flat index: 2-D nonzero is ten times slower on these shapes
    flat = np.flatnonzero(degenerate | ~(le | (stat < lo)))
    if flat.size:
        le.flat[flat] = pvalue(np.divmod(flat, stat.shape[1])) <= c
    return np.count_nonzero(le, axis=1)


def _two_rows(rows):
    """``rows``, repeated if it is one row: a one-row product is a matrix-vector one."""
    return rows if len(rows) > 1 else np.repeat(rows, 2)


def _block_counts(xd, sums, blocks, j1, j2, test, kind, cut):
    """How many relabelings of ``blocks`` reduce by ``kind`` to <= ``cut``.

    Each relabeling is worked only at the points that decide it.  The
    columns are taken in ``_spread_order`` and in the chunks of
    ``_chunk_edges``; each chunk's active rows are worked in tiles of at
    most ``_TILE`` entries, and every row keeps its count of points with
    p <= cut (``_count_le``).  minP, maxP and medP are <= cut exactly when
    at least 1, m or m // 2 + 1 points are, so a row is settled once that
    many points are, or once so many are not that it can no longer get
    there.  After each chunk, the settled rows are dropped.  For an even
    m, a row with exactly m / 2 points <= cut reduces to the mean of the
    two middle p's, so such a row is never settled early: its median is
    taken from its full p row.  The count equals that of reducing the full
    p matrix at a cut with the engine's tolerance; at a cut with none, a
    chunk's product may round an entry otherwise than the full product
    once J > 13.
    """
    m = xd.shape[1]
    need = {"minP": 1, "maxP": m, "medP": m // 2 + 1}[kind]
    even_median = kind == "medP" and m % 2 == 0
    # a row is settled by need hits or by more than spare misses
    spare = m - need + even_median
    order = _spread_order(m)
    edges = _chunk_edges(m, kind)
    chunks = [(b, xd[:, cols], tuple(s[..., cols] for s in sums))
              for a, b in zip(edges, edges[1:]) for cols in [order[a:b]]]
    count = 0
    limits = None
    for block in blocks:
        hits = np.zeros(len(block), dtype=np.intp)
        rows = np.arange(len(block))
        for done, xc, sc in chunks:
            step = max(1, _TILE // xc.shape[1])
            for tile in np.array_split(rows, -(-len(rows) // step)):
                stat, degenerate, bounds, pvalue = _statistic(
                    xc, sc, block[_two_rows(tile)], j1, j2, test)
                limits = limits or bounds(cut)
                hits[tile] += _count_le(stat, degenerate, pvalue, limits, cut)[:len(tile)]
            h = hits[rows]
            rows = rows[(h < need) & (done - h <= spare)]
            if not rows.size:
                break
        count += int(np.count_nonzero(hits >= need))
        if even_median:
            tie = np.flatnonzero(hits == need - 1)
            if tie.size:
                pvalue = _statistic(xd, sums, block[_two_rows(tie)], j1, j2, test)[3]
                p = pvalue(np.arange(tie.size))
                count += int(np.count_nonzero(np.median(p, axis=1) <= cut))
    return count


def westfall_young(g1, g2, test, kind, cfg, domain=None):
    """Permutation-corrected family test of two groups of curves.

    Parameters
    ----------
    g1, g2 : (J1, m) and (J2, m) arrays of curves, one row per location
    test : PointwiseTest
    kind : the family statistic, 'minP', 'maxP' or 'medP'
    cfg : PermutationConfig
    domain : bool array of shape (m,), the grid points tested; all if None

    Returns
    -------
    FamilyTestResult.  The corrected p is the share of relabelings whose
    family statistic is <= the observed one.
    """
    if kind not in _REDUCE:
        raise ValueError(f"unknown family statistic {kind!r}")
    x1 = np.asarray(g1, dtype=float)
    x2 = np.asarray(g2, dtype=float)
    if x1.ndim != 2 or x2.ndim != 2 or x1.shape[1] != x2.shape[1]:
        raise ValueError("curve groups must share one evaluation grid")
    j1, j2 = x1.shape[0], x2.shape[0]
    if j1 < 2 or j2 < 2:
        raise ValueError("each group needs at least 2 curves")
    m = x1.shape[1]
    mask = np.ones(m, dtype=bool) if domain is None else np.asarray(domain)
    # an index array would be cast to a mask without complaint
    if mask.dtype != bool or mask.shape != (m,):
        raise ValueError(f"domain must be a boolean mask of shape ({m},), "
                         f"not an array of shape {mask.shape} and dtype {mask.dtype}")
    if not np.any(mask):
        raise ValueError("domain mask selects no grid points")
    xd = np.vstack([x1, x2])[:, mask]
    j_total = j1 + j2
    n_used = comb(j_total, j1) if cfg.exhaustive else cfg.n_permutations
    if cfg.exhaustive and n_used > max(_MAX_EXHAUSTIVE, cfg.n_permutations):
        raise ValueError(f"{n_used} label assignments is too many to enumerate")

    identity = _members(np.arange(j1)[None], j_total)
    sums = _pooled_sums(xd)
    _, deg, _, pvalue = _statistic(xd, sums, identity, j1, j2, test)
    observed = float(_REDUCE[kind](pvalue(0)))

    if bool(np.all(deg)):
        # the groups coincide at every tested point: there is no evidence
        # for any one-sided alternative, so the corrected p is 1 rather
        # than the rank of the all-0.5 vector among mixed relabelings
        count = n_used
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
        cut = observed + 1e-12 + 1e-9 * observed
        count = _block_counts(xd, sums, blocks, j1, j2, test, kind, cut)

    # sampled draws need not include the identity assignment
    floor = 0 if cfg.exhaustive else 1
    return FamilyTestResult(observed_stat=observed,
                            corrected_p=max(count, floor) / n_used,
                            stat_kind=kind,
                            n_used=n_used,
                            degenerate_points=int(np.count_nonzero(deg)))
