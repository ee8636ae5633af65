"""Permutation engine: reductions, relabeling uniformity, corrected p-values."""

import re
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from bacdetect import permutation
from bacdetect.permutation import (
    _DRAW_BLOCK,
    _REDUCE,
    _TILE,
    PermutationConfig,
    PointwiseTest,
    _batch_moments,
    _batch_relabelings,
    _block_counts,
    _chunk_edges,
    _lowest_members,
    _members,
    _pooled_sums,
    _spread_order,
    westfall_young,
)
from bacdetect.statcore import mean_test, variance_test


class TestFamilyStat:
    """The observed family statistic of ``westfall_young``."""

    def test_direct_reductions(self, rng):
        g1, g2 = _toy_groups(rng, j1=5, j2=6, m=30)
        domain = np.arange(30) % 3 == 0  # 10 points, so medP averages two
        cfg = PermutationConfig(n_permutations=20, seed=1)
        var1, var2 = g1.var(axis=0, ddof=1), g2.var(axis=0, ddof=1)
        p_mean = mean_test(g1.mean(axis=0), var1, 5, g2.mean(axis=0), var2, 6, "less")[3](...)
        p_var = variance_test(var1, 5, var2, 6)[3](...)
        for test, p in ((PointwiseTest(kind="mean", direction="less"), p_mean),
                        (PointwiseTest(kind="variance"), p_var)):
            for kind, reduce in (("minP", np.min), ("maxP", np.max), ("medP", np.median)):
                res = westfall_young(g1, g2, test, kind, cfg, domain)
                assert res.observed_stat == pytest.approx(reduce(p[domain]), rel=1e-9)

    def test_even_count_median(self, rng):
        g1, g2 = _toy_groups(rng, m=2)
        p = mean_test(g1.mean(axis=0), g1.var(axis=0, ddof=1), 4,
                      g2.mean(axis=0), g2.var(axis=0, ddof=1), 4, "greater")[3](...)
        res = westfall_young(g1, g2, PointwiseTest(kind="mean"), "medP",
                             PermutationConfig(n_permutations=20))
        assert res.observed_stat == pytest.approx((p[0] + p[1]) / 2, rel=1e-9)

    def test_constant_vector(self, rng):
        # identical groups give p = 0.5 at every point
        g = rng.standard_normal((4, 12))
        for kind in _REDUCE:
            res = westfall_young(g, g.copy(), PointwiseTest(kind="mean"), kind,
                                 PermutationConfig(n_permutations=20))
            assert res.observed_stat == pytest.approx(0.5, abs=1e-12)

    def test_unknown_kind(self, rng):
        g1, g2 = _toy_groups(rng)
        with pytest.raises(ValueError, match="family statistic"):
            westfall_young(g1, g2, PointwiseTest(kind="mean"), "meanP",
                           PermutationConfig(n_permutations=10))

    def test_empty_family(self, rng):
        # a domain that selects no grid point leaves nothing to reduce
        g1, g2 = _toy_groups(rng, m=5)
        with pytest.raises(ValueError, match="no grid points"):
            westfall_young(g1, g2, PointwiseTest(kind="mean"), "minP",
                           PermutationConfig(n_permutations=10), domain=np.zeros(5, dtype=bool))

    def test_domain_of_wrong_length_rejected(self, rng):
        g1, g2 = _toy_groups(rng, m=10)
        with pytest.raises(ValueError, match=re.escape("shape (10,), not an array of "
                                                       "shape (9,) and dtype bool")):
            westfall_young(g1, g2, PointwiseTest(kind="mean"), "maxP",
                           PermutationConfig(n_permutations=10), domain=np.ones(9, dtype=bool))

    def test_index_domain_rejected(self, rng):
        # cast to a mask, index 0 would drop column 0 and keep the rest
        g1, g2 = _toy_groups(rng, m=10)
        with pytest.raises(ValueError, match=re.escape("shape (10,), not an array of "
                                                       "shape (10,) and dtype int")):
            westfall_young(g1, g2, PointwiseTest(kind="mean"), "maxP",
                           PermutationConfig(n_permutations=10), domain=list(range(10)))


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

    def test_permutation_count_must_be_integer(self):
        for n in (0, 2.5, True, "50"):
            with pytest.raises(ValueError, match=re.escape(f"n_permutations must be an "
                                                           f"integer >= 1, not {n!r}")):
                PermutationConfig(n_permutations=n)

    def test_numpy_integers_stored_plain(self):
        cfg = PermutationConfig(n_permutations=np.int64(50), seed=np.uint64(5))
        assert type(cfg.n_permutations) is int and type(cfg.seed) is int
        assert (cfg.n_permutations, cfg.seed) == (50, 5)

    def test_seeds_above_2_63_draw_distinct_blocks(self):
        a = _batch_relabelings(2**63, 0, _DRAW_BLOCK, 20, 10)
        b = _batch_relabelings(2**63 + 1, 0, _DRAW_BLOCK, 20, 10)
        assert not np.array_equal(a, b)

    def test_one_sort_draw_matches_stable_argsort(self, rng):
        # the threshold draw picks what a stable argsort picks, also where
        # the j1-th and (j1 + 1)-th smallest uniforms of a row tie
        for j_total, j1 in ((3, 1), (9, 4), (18, 9), (25, 15)):
            u = rng.random((400, j_total))
            s = np.sort(u, axis=1)
            tied = u.copy()
            rows = rng.random(400) < 0.3
            # the (j1 + 1)-th smallest takes the j1-th smallest's value
            tied[rows] = np.where(u[rows] == s[rows, j1:j1 + 1], s[rows, j1 - 1:j1], u[rows])
            assert np.count_nonzero(np.sort(tied, axis=1)[:, j1 - 1] == s[:, j1 - 1]) == 400
            coarse = rng.integers(0, 4, (400, j_total)) / 4.0  # ties everywhere
            for v in (u, tied, coarse, tied[~rows]):
                expected = _members(np.argsort(v, axis=1, kind="stable")[:, :j1], j_total)
                assert np.array_equal(_lowest_members(v, j1), expected), (j_total, j1)

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
        for kind in _REDUCE:
            res = westfall_young(g1, g2, PointwiseTest(kind="mean"), kind, cfg)
            assert res.n_used == comb(8, 4)
            assert res.corrected_p >= 1 / comb(8, 4)
            assert res.corrected_p <= 1.0

    def test_sampled_close_to_exhaustive(self, rng):
        g1, g2 = _toy_groups(rng, m=25, shift=0.6)
        test = PointwiseTest(kind="mean", direction="greater")
        for kind in _REDUCE:
            exact = westfall_young(
                g1, g2, test, kind, PermutationConfig(n_permutations=1, exhaustive=True))
            sampled = westfall_young(
                g1, g2, test, kind, PermutationConfig(n_permutations=4000, seed=21))
            assert abs(exact.corrected_p - sampled.corrected_p) < 0.05

    def test_determinism(self, rng):
        g1, g2 = _toy_groups(rng)
        cfg = PermutationConfig(n_permutations=700, seed=5)
        test = PointwiseTest(kind="variance")
        a = westfall_young(g1, g2, test, "medP", cfg)
        b = westfall_young(g1, g2, test, "medP", cfg)
        assert a == b

    @pytest.mark.parametrize("j1, j2, m, shift", [(4, 4, 30, 0.0), (6, 5, 1000, 0.1)],
                             ids=["4+4", "6+5-wide"])
    def test_each_kind_matches_p_space(self, rng, j1, j2, m, shift):
        """Each kind's corrected p ranks the observed reduction among the full p matrix's."""
        g1, g2 = _toy_groups(rng, j1=j1, j2=j2, m=m, shift=shift)
        cfg = PermutationConfig(n_permutations=1100, seed=3)
        xd = np.vstack([g1, g2])
        members = np.vstack([_batch_relabelings(3, b, min(_DRAW_BLOCK, 1100 - i), j1 + j2, j1)
                             for b, i in enumerate(range(0, 1100, _DRAW_BLOCK))])
        identity = _members(np.arange(j1)[None], j1 + j2)
        for test in TALLY_TESTS:
            ref = _p_space_reductions(xd, members, j1, j2, test)
            observed = _p_space_reductions(xd, identity, j1, j2, test)
            for kind in _REDUCE:
                res = westfall_young(g1, g2, test, kind, cfg)
                v = observed[kind][0]
                cut = v + 1e-12 + 1e-9 * v
                count = int(np.count_nonzero(ref[kind] <= cut))
                assert res.corrected_p == max(count, 1) / 1100, (test, kind)

    def test_exhaustive_limit_checked_on_coincident_groups(self):
        # every point is degenerate, so nothing would be enumerated; the
        # C(30, 15) assignments are refused all the same
        g = np.tile(np.linspace(1.0, 2.0, 5), (15, 1))
        with pytest.raises(ValueError, match="too many"):
            westfall_young(g, g.copy(), PointwiseTest(kind="mean"), "minP",
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


# westfall_young on one 6 + 5 input, m = 40 with three constant columns:
# (corrected_p, observed_stat, n_used, degenerate_points) per
# (relabelings, pointwise test, kind).  At J <= 13 the chunked tally
# counts exactly what the full p matrix counts, so a refactor of the
# engine must reproduce these.
PINNED = {
    ("sampled", "greater", "minP"): (0.9828571428571429, 0.19758942920242475, 700, 3),
    ("sampled", "greater", "maxP"): (0.9842857142857143, 0.9991959940047227, 700, 3),
    ("sampled", "greater", "medP"): (1.0, 0.8647255369939526, 700, 3),
    ("sampled", "less", "minP"): (0.018571428571428572, 0.0008040059952773217, 700, 3),
    ("sampled", "less", "maxP"): (0.02, 0.8024105707975753, 700, 3),
    ("sampled", "less", "medP"): (0.002857142857142857, 0.13527446300604734, 700, 3),
    ("sampled", "pooled", "minP"): (0.9871428571428571, 0.20492777188240163, 700, 3),
    ("sampled", "pooled", "maxP"): (0.9957142857142857, 0.99963606491378, 700, 3),
    ("sampled", "pooled", "medP"): (1.0, 0.874921712859902, 700, 3),
    ("sampled", "variance", "minP"): (0.4642857142857143, 0.015728427121980002, 700, 3),
    ("sampled", "variance", "maxP"): (0.07285714285714286, 0.9545332002736262, 700, 3),
    ("sampled", "variance", "medP"): (0.9185714285714286, 0.5511903436496493, 700, 3),
    ("exhaustive", "greater", "minP"): (0.9848484848484849, 0.19758942920242475, 462, 3),
    ("exhaustive", "greater", "maxP"): (0.9805194805194806, 0.9991959940047227, 462, 3),
    ("exhaustive", "greater", "medP"): (1.0, 0.8647255369939526, 462, 3),
    ("exhaustive", "less", "minP"): (0.021645021645021644, 0.0008040059952773217, 462, 3),
    ("exhaustive", "less", "maxP"): (0.017316017316017316, 0.8024105707975753, 462, 3),
    ("exhaustive", "less", "medP"): (0.0021645021645021645, 0.13527446300604734, 462, 3),
    ("exhaustive", "pooled", "minP"): (0.987012987012987, 0.20492777188240163, 462, 3),
    ("exhaustive", "pooled", "maxP"): (0.9913419913419913, 0.99963606491378, 462, 3),
    ("exhaustive", "pooled", "medP"): (1.0, 0.874921712859902, 462, 3),
    ("exhaustive", "variance", "minP"): (0.47186147186147187, 0.015728427121980002, 462, 3),
    ("exhaustive", "variance", "maxP"): (0.07792207792207792, 0.9545332002736262, 462, 3),
    ("exhaustive", "variance", "medP"): (0.9112554112554112, 0.5511903436496493, 462, 3),
}

PINNED_TESTS = {"greater": PointwiseTest(kind="mean", direction="greater"),
                "less": PointwiseTest(kind="mean", direction="less"),
                "pooled": PointwiseTest(kind="mean", direction="greater", pooled=True),
                "variance": PointwiseTest(kind="variance")}
PINNED_CFGS = {"sampled": PermutationConfig(n_permutations=700, seed=9),
               "exhaustive": PermutationConfig(n_permutations=1, exhaustive=True)}


def test_engine_outputs_pinned():
    rng = np.random.default_rng(2021)
    x = rng.standard_normal((11, 40))
    x[6:] += 0.5
    x[:, [3, 17, 30]] = 1.0
    for (label, name, kind), (p, stat, n_used, degenerate) in PINNED.items():
        res = westfall_young(x[:6], x[6:], PINNED_TESTS[name], kind, PINNED_CFGS[label])
        assert (res.corrected_p, res.n_used, res.degenerate_points, res.stat_kind) == (
            p, n_used, degenerate, kind), (label, name, kind)
        # the observed p's come from a BLAS product, whose last bit may
        # differ with the CPU's kernel
        assert res.observed_stat == pytest.approx(stat, rel=1e-12, abs=0), (label, name, kind)


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
        for kind in _REDUCE:
            a = westfall_young(g1, g2, test, kind, cfg)
            b = westfall_young(g1[list(order1)], g2[list(order2)], test, kind, cfg)
            assert a.corrected_p == b.corrected_p


TALLY_TESTS = [PointwiseTest(kind="mean", direction=d, pooled=pooled)
               for d in ("greater", "less") for pooled in (False, True)]
TALLY_TESTS += [PointwiseTest(kind="variance")]


def _p_space_reductions(xd, members, j1, j2, test):
    """Reference: every reduction of the full (relabelings x points) p matrix."""
    mean1, var1, mean2, var2 = _batch_moments(xd, _pooled_sums(xd), members, j1, j2)
    if test.kind == "mean":
        p = mean_test(mean1, var1, j1, mean2, var2, j2, test.direction,
                      pooled=test.pooled)[3](...)
    else:
        p = variance_test(var1, j1, var2, j2)[3](...)
    return {k: f(p, axis=1) for k, f in _REDUCE.items()}


def _counts(xd, sums, blocks, j1, j2, test, cut):
    """``_block_counts`` of each kind in ``cut`` at its own cut."""
    return {k: _block_counts(xd, sums, blocks, j1, j2, test, k, c) for k, c in cut.items()}


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
            assert _counts(xd, _pooled_sums(xd), [members], j1, j2, test, cut) == expected, (
                test, cut)


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
            assert _counts(xd, sums, [members], j1, j2, test, cut) == expected, (test, cut)


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
            alone = [_counts(xd, sums, [b], j1, j2, test, cut) for b in blocks]
            assert {k: alone[0][k] + alone[1][k] for k in cut} == expected, (test, cut)
            assert _counts(xd, sums, blocks, j1, j2, test, cut) == expected, (test, cut)


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


def _tally_cases(xd, members, j1, j2, rows):
    """(test, cut, expected counts) for the observed cuts and rows' own reductions."""
    identity = _members(np.arange(j1)[None], j1 + j2)
    for test in TALLY_TESTS:
        ref = _p_space_reductions(xd, members, j1, j2, test)
        observed = {k: v[0] for k, v in
                    _p_space_reductions(xd, identity, j1, j2, test).items()}
        cuts = [observed, {k: v + 1e-12 + 1e-9 * v for k, v in observed.items()}]
        cuts += [{k: v[r] for k, v in ref.items()} for r in rows]
        for cut in cuts:
            yield test, cut, {k: int(np.count_nonzero(ref[k] <= cut[k])) for k in _REDUCE}


CHUNK_MS = [16, 17, 18, 33, 251, 1000, 1001]


@pytest.mark.parametrize("shape", ["plain", "offset"])
@pytest.mark.parametrize("m", CHUNK_MS)
def test_chunked_tally_matches_p_space(m, shape):
    """Across every chunk edge, each kind tallies as the full p matrix."""
    _check_chunked_tally(m, shape, 6, 5, rows=(3, 100, 255))


@pytest.mark.parametrize("shape", ["plain", "offset"])
@pytest.mark.parametrize("m", CHUNK_MS)
@pytest.mark.parametrize("groups", [(15, 10), (16, 16)], ids=["15+10", "16+16"])
def test_chunked_tally_matches_p_space_many_curves(groups, m, shape):
    """The same at J > 13, the ``decide_curves`` shape (15, 10) included.

    Only the observed cut and the engine's tolerance cut are checked here.
    A permuted row's own reduction is a cut with no tolerance, and past
    J = 13 BLAS may round a sub-product's sums otherwise than the full
    product's, so exact equality at such a cut is checked only at J <= 13,
    the largest group count (7 + 6) any tally test uses.
    """
    _check_chunked_tally(m, shape, *groups, rows=())


def _check_chunked_tally(m, shape, j1, j2, rows):
    rng = np.random.default_rng(m)
    xd = rng.standard_normal((j1 + j2, m))
    xd[j1:] += 0.3
    xd[:, rng.random(m) < 0.05] = 1.0  # constant columns: degenerate points
    if shape == "offset":
        # variances cancel to about 1e-8 relative: a product that rounds
        # otherwise moves p's well past the cut's tolerance
        xd = 0.1 * xd + 1700.0
    members = _batch_relabelings(m, 0, 256, j1 + j2, j1)
    sums = _pooled_sums(xd)
    for test, cut, expected in _tally_cases(xd, members, j1, j2, rows):
        assert _counts(xd, sums, [members], j1, j2, test, cut) == expected, (test, cut)


@pytest.mark.parametrize("shape", ["plain", "offset"])
def test_even_median_ties_on_duplicated_rows(shape):
    """Rows whose own even-m median is the cut, alone or duplicated, resolve as in p space."""
    j1, j2, m = 4, 4, 250
    rng = np.random.default_rng(31)
    xd = rng.standard_normal((j1 + j2, m))
    xd[j1] = xd[0]  # swapping curves 0 and j1 leaves every statistic as it is
    xd[:, rng.random(m) < 0.05] = 1.0
    if shape == "offset":
        xd = 0.1 * xd + 1700.0
    exhaustive = _members(np.array(list(combinations(range(j1 + j2), j1))), j1 + j2)
    sums = _pooled_sums(xd)
    for members in (exhaustive, np.vstack([exhaustive, exhaustive[::-1]])):
        for test, cut, expected in _tally_cases(xd, members, j1, j2, rows=(0, 5, 40, 69)):
            assert _counts(xd, sums, [members], j1, j2, test, cut) == expected, (test, cut)


def test_chunk_edges():
    """Edges run from 0 to m, doubling, with the medP edge; no chunk is one column."""
    assert _chunk_edges(1000, "maxP") == [0, 16, 48, 112, 240, 496, 1000]
    assert _chunk_edges(1000, "medP") == [0, 16, 48, 112, 240, 496, 501, 1000]
    assert _chunk_edges(1, "medP") == [0, 1]
    for m in range(2, 1100):
        for kind in _REDUCE:
            edges = _chunk_edges(m, kind)
            assert edges[0] == 0 and edges[-1] == m
            assert min(np.diff(edges)) >= 2, (m, kind)
        assert sorted(_spread_order(m)) == list(range(m))


def test_settled_rows_are_dropped(monkeypatch):
    """On a strong mean shift, a maxP tally works out few relabelings x points."""
    statistic = permutation._statistic
    computed = []

    def counted(xd, sums, members, *args):
        computed.append(len(members) * xd.shape[1])
        return statistic(xd, sums, members, *args)

    monkeypatch.setattr(permutation, "_statistic", counted)
    rng = np.random.default_rng(8)
    g1, g2 = _toy_groups(rng, j1=8, j2=7, m=400, shift=-3.0)
    cfg = PermutationConfig(n_permutations=2000, seed=3)
    res = westfall_young(g1, g2, PointwiseTest(kind="mean", direction="greater"), "maxP", cfg)
    assert res.corrected_p == 1 / 2000
    assert sum(computed) < 0.25 * 2000 * 400


def test_no_product_is_one_row_or_one_column(monkeypatch):
    """A lone surviving row, a one-row block and a single tie row are worked as two rows."""
    statistic = permutation._statistic
    shapes = []

    def recorded(xd, sums, members, *args):
        shapes.append((len(members), xd.shape[1]))
        return statistic(xd, sums, members, *args)

    monkeypatch.setattr(permutation, "_statistic", recorded)
    j1, j2, m = 5, 4, 34
    rng = np.random.default_rng(41)
    xd = rng.standard_normal((j1 + j2, m))
    members = _batch_relabelings(41, 0, 300, j1 + j2, j1)
    sums = _pooled_sums(xd)
    for test in TALLY_TESTS:
        ref = _p_space_reductions(xd, members, j1, j2, test)
        # the row of least maxP is the last one a maxP tally drops; a row's
        # own medP makes it the one tie row
        for r in (int(np.argmin(ref["maxP"])), 7):
            cut = {k: v[r] for k, v in ref.items()}
            _counts(xd, sums, [members, members[r:r + 1]], j1, j2, test, cut)
    assert min(shapes) >= (2, 2)
    assert (2, m) in shapes  # a tie row recomputed alongside a copy of itself
