"""Permutation engine: reductions, relabeling uniformity, corrected p-values."""

import re
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from bacdetect.permutation import (
    _DRAW_BLOCK,
    _REDUCE,
    _TILE,
    FAMILY_KINDS,
    PermutationConfig,
    PointwiseTest,
    _batch_moments,
    _batch_relabelings,
    _block_counts,
    _members,
    _pooled_sums,
    westfall_young,
    westfall_young_all,
)
from bacdetect.statcore import variance_f_p, welch_mean_p


class TestFamilyStat:
    """The observed family statistic of ``westfall_young_all``."""

    def test_direct_reductions(self, rng):
        g1, g2 = _toy_groups(rng, j1=5, j2=6, m=30)
        domain = np.arange(30) % 3 == 0  # 10 points, so medP averages two
        cfg = PermutationConfig(n_permutations=20, seed=1)
        var1, var2 = g1.var(axis=0, ddof=1), g2.var(axis=0, ddof=1)
        p_mean, _ = welch_mean_p(g1.mean(axis=0), var1, 5, g2.mean(axis=0), var2, 6, "less")
        p_var, _ = variance_f_p(var1, 5, var2, 6)
        for test, p in ((PointwiseTest(kind="mean", direction="less"), p_mean),
                        (PointwiseTest(kind="variance"), p_var)):
            res = westfall_young_all(g1, g2, test, cfg, domain)
            for kind, reduce in (("minP", np.min), ("maxP", np.max), ("medP", np.median)):
                assert res[kind].observed_stat == pytest.approx(reduce(p[domain]), rel=1e-9)

    def test_even_count_median(self, rng):
        g1, g2 = _toy_groups(rng, m=2)
        p, _ = welch_mean_p(g1.mean(axis=0), g1.var(axis=0, ddof=1), 4,
                            g2.mean(axis=0), g2.var(axis=0, ddof=1), 4, "greater")
        res = westfall_young(g1, g2, PointwiseTest(kind="mean"), "medP",
                             PermutationConfig(n_permutations=20))
        assert res.observed_stat == pytest.approx((p[0] + p[1]) / 2, rel=1e-9)

    def test_constant_vector(self, rng):
        # identical groups give p = 0.5 at every point
        g = rng.standard_normal((4, 12))
        res = westfall_young_all(g, g.copy(), PointwiseTest(kind="mean"),
                                 PermutationConfig(n_permutations=20))
        for kind in FAMILY_KINDS:
            assert res[kind].observed_stat == pytest.approx(0.5, abs=1e-12)

    def test_unknown_kind(self, rng):
        g1, g2 = _toy_groups(rng)
        with pytest.raises(ValueError, match="family statistic"):
            westfall_young(g1, g2, PointwiseTest(kind="mean"), "meanP",
                           PermutationConfig(n_permutations=10))

    def test_empty_family(self, rng):
        # a domain that selects no grid point leaves nothing to reduce
        g1, g2 = _toy_groups(rng, m=5)
        with pytest.raises(ValueError, match="no grid points"):
            westfall_young_all(g1, g2, PointwiseTest(kind="mean"),
                               PermutationConfig(n_permutations=10),
                               domain=np.zeros(5, dtype=bool))


class TestDrawRelabeling:
    """The engine's relabeling generator, ``_batch_relabelings``."""

    def test_two_curves_balanced(self):
        hits = _batch_relabelings(7, 0, 10_000, 2, 1)[:, 0].sum()
        sigma = np.sqrt(10_000 * 0.25)
        assert abs(hits - 5000) <= 3 * sigma

    def test_determinism(self):
        a = _batch_relabelings(3, 0, 700, 5, 2)
        b = _batch_relabelings(3, 0, 700, 5, 2)
        assert np.array_equal(a, b)
        assert np.all(a.sum(axis=1) == 2)

    def test_short_block_is_prefix_of_full_block(self):
        # the engine's last block is short; its rows must be the first rows
        # a full block would have drawn
        full = _batch_relabelings(5, 2, _DRAW_BLOCK, 9, 4)
        for count in (1, 100, 511):
            assert np.array_equal(_batch_relabelings(5, 2, count, 9, 4), full[:count])
        assert not np.array_equal(_batch_relabelings(5, 3, _DRAW_BLOCK, 9, 4), full)

    def test_partitions_uniform(self):
        # all C(8,4)=70 partitions equally likely: chi-square goodness of fit
        n = 100_000
        members = _batch_relabelings(99, 0, n, 8, 4)
        keys, counts = np.unique(members, axis=0, return_counts=True)
        assert len(keys) == 70
        assert np.all(keys.sum(axis=1) == 4)
        stat, p = chisquare(counts)
        assert p > 0.001
        sigma = np.sqrt(n * (1 / 70) * (69 / 70))
        assert max(abs(c - n / 70) for c in counts) <= 3.6 * sigma

    def test_seed_outside_key_range_rejected(self):
        for seed in (-1, 2**64, True, 1.0, "3"):
            with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in "
                                                           f"[0, 2**64), not {seed!r}")):
                PermutationConfig(seed=seed)
        assert PermutationConfig(seed=2**64 - 1).seed == 2**64 - 1

    def test_seeds_above_2_63_draw_distinct_blocks(self):
        a = _batch_relabelings(2**63, 0, _DRAW_BLOCK, 20, 10)
        b = _batch_relabelings(2**63 + 1, 0, _DRAW_BLOCK, 20, 10)
        assert not np.array_equal(a, b)

    def test_empty_group_rejected(self, rng):
        g2 = rng.standard_normal((4, 10))
        with pytest.raises(ValueError):
            westfall_young(np.empty((0, 10)), g2, PointwiseTest(kind="mean"), "minP",
                           PermutationConfig(n_permutations=10))


def _toy_groups(rng, j1=4, j2=4, m=30, shift=0.0):
    g1 = rng.standard_normal((j1, m))
    g2 = rng.standard_normal((j2, m)) + shift
    return g1, g2


class TestWestfallYoung:
    def test_extreme_shift_gives_minimal_p(self, rng):
        g2 = rng.standard_normal((5, 20))
        g1 = g2 + 10.0  # g2 is g1 shifted down by 10 sigma
        cfg = PermutationConfig(n_permutations=500, seed=4)
        res = westfall_young(g1, g2, PointwiseTest(kind="mean", direction="greater"),
                             "maxP", cfg)
        assert res.corrected_p == pytest.approx(1 / 500)

    def test_exhaustive_counts_identity(self, rng):
        g1, g2 = _toy_groups(rng)
        cfg = PermutationConfig(n_permutations=1, seed=0, exhaustive=True)
        for kind in FAMILY_KINDS:
            res = westfall_young(g1, g2, PointwiseTest(kind="mean"), kind, cfg)
            assert res.n_used == comb(8, 4)
            assert res.corrected_p >= 1 / comb(8, 4)
            assert res.corrected_p <= 1.0

    def test_sampled_close_to_exhaustive(self, rng):
        g1, g2 = _toy_groups(rng, m=25, shift=0.6)
        test = PointwiseTest(kind="mean", direction="greater")
        exact = westfall_young_all(
            g1, g2, test, PermutationConfig(n_permutations=1, exhaustive=True))
        sampled = westfall_young_all(
            g1, g2, test, PermutationConfig(n_permutations=4000, seed=21))
        for kind in FAMILY_KINDS:
            assert abs(exact[kind].corrected_p - sampled[kind].corrected_p) < 0.05

    def test_determinism(self, rng):
        g1, g2 = _toy_groups(rng)
        cfg = PermutationConfig(n_permutations=700, seed=5)
        test = PointwiseTest(kind="variance")
        a = westfall_young(g1, g2, test, "medP", cfg)
        b = westfall_young(g1, g2, test, "medP", cfg)
        assert a == b

    def test_all_matches_single_kind(self, rng):
        g1, g2 = _toy_groups(rng)
        cfg = PermutationConfig(n_permutations=600, seed=11)
        test = PointwiseTest(kind="mean", direction="less")
        bundle = westfall_young_all(g1, g2, test, cfg)
        for kind in FAMILY_KINDS:
            assert bundle[kind] == westfall_young(g1, g2, test, kind, cfg)

    def test_single_kind_matches_all_on_wide_domain(self, rng):
        g1, g2 = _toy_groups(rng, j1=6, j2=5, m=1000, shift=0.1)
        cfg = PermutationConfig(n_permutations=1100, seed=3)
        for test in (PointwiseTest(kind="mean", direction="greater"),
                     PointwiseTest(kind="variance")):
            bundle = westfall_young_all(g1, g2, test, cfg)
            for kind in FAMILY_KINDS:
                assert westfall_young(g1, g2, test, kind, cfg) == bundle[kind]

    def test_kinds_selects_reductions(self, rng):
        g1, g2 = _toy_groups(rng)
        cfg = PermutationConfig(n_permutations=300, seed=8)
        test = PointwiseTest(kind="variance")
        some = westfall_young_all(g1, g2, test, cfg, kinds=("medP", "minP"))
        assert list(some) == ["medP", "minP"]
        bundle = westfall_young_all(g1, g2, test, cfg)
        assert all(some[k] == bundle[k] for k in some)
        with pytest.raises(ValueError, match="family statistic"):
            westfall_young_all(g1, g2, test, cfg, kinds=("minP", "meanP"))

    def test_exhaustive_limit_checked_on_coincident_groups(self):
        # every point is degenerate, so nothing would be enumerated; the
        # C(30, 15) assignments are refused all the same
        g = np.tile(np.linspace(1.0, 2.0, 5), (15, 1))
        with pytest.raises(ValueError, match="too many"):
            westfall_young_all(g, g.copy(), PointwiseTest(kind="mean"),
                               PermutationConfig(n_permutations=1, exhaustive=True))

    def test_null_rate_controlled(self):
        # quick null check; the heavyweight FWER study lives in acceptance
        hits = 0
        reps = 120
        for r in range(reps):
            rep_rng = np.random.default_rng(1000 + r)
            g1, g2 = _toy_groups(rep_rng, j1=5, j2=5, m=20)
            res = westfall_young(
                g1, g2, PointwiseTest(kind="mean", direction="greater"), "minP",
                PermutationConfig(n_permutations=400, seed=r))
            hits += res.corrected_p <= 0.05
        sigma = np.sqrt(0.05 * 0.95 / reps)
        assert hits / reps <= 0.05 + 3 * sigma

    def test_domain_restriction(self, rng):
        g1, g2 = _toy_groups(rng, m=40)
        cfg = PermutationConfig(n_permutations=300, seed=2)
        domain = np.arange(40) < 10
        res = westfall_young(g1, g2, PointwiseTest(kind="mean"), "maxP", cfg, domain)
        assert 0 < res.corrected_p <= 1

    def test_input_validation(self, rng):
        g1, g2 = _toy_groups(rng)
        cfg = PermutationConfig(n_permutations=10)
        with pytest.raises(ValueError):
            westfall_young(g1, g2, PointwiseTest(kind="mean"), "badP", cfg)
        with pytest.raises(ValueError):
            westfall_young(g1[:1], g2, PointwiseTest(kind="mean"), "minP", cfg)
        with pytest.raises(ValueError):
            westfall_young(g1, g2, PointwiseTest(kind="mean"), "minP", cfg,
                           domain=np.zeros(30, dtype=bool))
        with pytest.raises(ValueError):
            PermutationConfig(n_permutations=0)
        with pytest.raises(ValueError):
            PointwiseTest(kind="median")


@settings(max_examples=60, deadline=None)
@given(j1=st.integers(2, 5), j2=st.integers(2, 5), m=st.integers(1, 20),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_exhaustive_invariant_to_row_order(j1, j2, m, seed, data):
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((j1, m))
    g2 = rng.standard_normal((j2, m))
    order1 = data.draw(st.permutations(range(j1)))
    order2 = data.draw(st.permutations(range(j2)))
    cfg = PermutationConfig(n_permutations=1, exhaustive=True)
    for test in (PointwiseTest(kind="mean", direction="greater"), PointwiseTest(kind="variance")):
        a = westfall_young_all(g1, g2, test, cfg)
        b = westfall_young_all(g1[list(order1)], g2[list(order2)], test, cfg)
        for kind in FAMILY_KINDS:
            assert a[kind].corrected_p == b[kind].corrected_p


TALLY_TESTS = [PointwiseTest(kind="mean", direction=d, pooled=pooled)
               for d in ("greater", "less") for pooled in (False, True)]
TALLY_TESTS += [PointwiseTest(kind="variance")]


def _p_space_reductions(xd, members, j1, j2, test):
    """Reference: every reduction of the full (relabelings x points) p matrix."""
    mean1, var1, mean2, var2 = _batch_moments(xd, _pooled_sums(xd), members, j1, j2)
    if test.kind == "mean":
        p, _ = welch_mean_p(mean1, var1, j1, mean2, var2, j2, test.direction,
                            pooled=test.pooled)
    else:
        p, _ = variance_f_p(var1, j1, var2, j2)
    return {k: f(p, axis=1) for k, f in _REDUCE.items()}


@settings(max_examples=150, deadline=None)
@given(j1=st.integers(2, 6), j2=st.integers(2, 6), m=st.integers(1, 30),
       seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["plain", "rounded", "constant", "offset"]),
       shift=st.sampled_from([0.0, 2.5, -2.5]), exhaustive=st.booleans(),
       data=st.data())
def test_statistic_tally_matches_p_space(j1, j2, m, seed, shape, shift, exhaustive, data):
    """``_block_counts`` counts exactly what reducing the full p matrix counts."""
    rng = np.random.default_rng(seed)
    xd = rng.standard_normal((j1 + j2, m))
    xd[j1:] += shift
    if shape == "rounded":
        xd = np.round(2 * xd) / 2
    elif shape == "constant":
        xd[:, rng.random(m) < 0.4] = 1.0
    elif shape == "offset":
        xd = 0.01 * xd + 1700.0
    if exhaustive:
        members = _members(np.array(list(combinations(range(j1 + j2), j1))), j1 + j2)
    else:
        members = _batch_relabelings(seed, 0, 300, j1 + j2, j1)
    identity = _members(np.arange(j1)[None], j1 + j2)
    rows = data.draw(st.lists(st.integers(0, len(members) - 1), min_size=2, max_size=2))
    for test in TALLY_TESTS:
        ref = _p_space_reductions(xd, members, j1, j2, test)
        observed = {k: v[0] for k, v in
                    _p_space_reductions(xd, identity, j1, j2, test).items()}
        cuts = [observed, {k: v + 1e-12 + 1e-9 * v for k, v in observed.items()},
                dict.fromkeys(_REDUCE, 1.0), dict.fromkeys(_REDUCE, 1.5)]
        # a permuted row's own reductions tie with that row exactly
        cuts += [{k: v[r] for k, v in ref.items()} for r in rows]
        for cut in cuts:
            expected = {k: int(np.count_nonzero(ref[k] <= cut[k])) for k in _REDUCE}
            assert (_block_counts(xd, _pooled_sums(xd), [members], j1, j2, test, cut)
                    == expected), (test, cut)


def test_tiled_tally_matches_p_space():
    """A block over several row tiles, the last one short, tallies as a whole."""
    j1, j2, m = 7, 6, 1200
    rng = np.random.default_rng(17)
    xd = rng.standard_normal((j1 + j2, m))
    xd[j1:] += 0.3
    xd[:, rng.random(m) < 0.02] = 1.0  # constant columns: degenerate points
    members = _batch_relabelings(17, 0, _DRAW_BLOCK, j1 + j2, j1)
    step = _TILE // m
    assert len(members) > 3 * step and len(members) % step, "want >= 3 tiles, one short"
    identity = _members(np.arange(j1)[None], j1 + j2)
    sums = _pooled_sums(xd)
    for test in TALLY_TESTS:
        ref = _p_space_reductions(xd, members, j1, j2, test)
        observed = {k: v[0] for k, v in
                    _p_space_reductions(xd, identity, j1, j2, test).items()}
        cuts = [observed, {k: v + 1e-12 + 1e-9 * v for k, v in observed.items()}]
        # a row's own even-m median mostly makes it a medP tie row; take rows
        # of the first, second, a middle and the short last tile
        cuts += [{k: v[r] for k, v in ref.items()}
                 for r in (step // 2, step + 1, len(members) // 2, len(members) - 2)]
        for cut in cuts:
            expected = {k: int(np.count_nonzero(ref[k] <= cut[k])) for k in _REDUCE}
            assert (_block_counts(xd, sums, [members], j1, j2, test, cut)
                    == expected), (test, cut)
            for k in _REDUCE:
                assert (_block_counts(xd, sums, [members], j1, j2, test, {k: cut[k]})
                        == {k: expected[k]}), (test, k, cut[k])


def test_blocks_of_unequal_length_tally_as_one():
    """A full and a short block tally in one call as each block alone, summed."""
    j1, j2, m = 6, 5, 40
    rng = np.random.default_rng(23)
    xd = rng.standard_normal((j1 + j2, m))
    xd[j1:] += 0.4
    xd[:, rng.random(m) < 0.1] = 1.0  # constant columns: degenerate points
    sums = _pooled_sums(xd)
    blocks = [_batch_relabelings(23, 0, _DRAW_BLOCK, j1 + j2, j1),
              _batch_relabelings(23, 1, 37, j1 + j2, j1)]
    identity = _members(np.arange(j1)[None], j1 + j2)
    for test in TALLY_TESTS:
        ref = _p_space_reductions(xd, np.vstack(blocks), j1, j2, test)
        observed = {k: v[0] for k, v in
                    _p_space_reductions(xd, identity, j1, j2, test).items()}
        # the observed cut, a full-block row's own and a short-block row's own
        for cut in (observed, {k: v[100] for k, v in ref.items()},
                    {k: v[_DRAW_BLOCK + 20] for k, v in ref.items()}):
            expected = {k: int(np.count_nonzero(ref[k] <= cut[k])) for k in _REDUCE}
            alone = [_block_counts(xd, sums, [b], j1, j2, test, cut) for b in blocks]
            assert {k: alone[0][k] + alone[1][k] for k in cut} == expected, (test, cut)
            assert _block_counts(xd, sums, blocks, j1, j2, test, cut) == expected, (test, cut)


def test_moments_snap_cancellation_residue():
    """Coincident curves at a large offset: variances exactly 0, none negative."""
    rng = np.random.default_rng(3)
    xd = 1700.0 + 0.01 * rng.standard_normal((9, 40))
    xd[:, :10] = 1700.0 + 0.01 * rng.standard_normal(10)  # curves coincide here
    members = _batch_relabelings(2, 0, 300, 9, 4)
    _, var1, _, var2 = _batch_moments(xd, _pooled_sums(xd), members, 4, 5)
    for var in (var1, var2):
        assert np.all(var[:, :10] == 0.0)
        assert not np.any(np.signbit(var))
