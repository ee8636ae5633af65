"""Permutation engine: reductions, relabeling uniformity, corrected p-values."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from bacdetect.permutation import (
    FAMILY_KINDS,
    PermutationConfig,
    PointwiseTest,
    _batch_relabelings,
    family_stat,
    westfall_young,
    westfall_young_all,
)


class TestFamilyStat:
    def test_direct_reductions(self):
        p = [0.1, 0.2, 0.3]
        assert family_stat(p, "minP") == 0.1
        assert family_stat(p, "maxP") == 0.3
        assert family_stat(p, "medP") == 0.2

    def test_even_count_median(self):
        assert family_stat([0.1, 0.2, 0.3, 0.4], "medP") == pytest.approx(0.25)

    def test_constant_vector(self):
        for kind in FAMILY_KINDS:
            assert family_stat([0.42, 0.42, 0.42], kind) == pytest.approx(0.42)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            family_stat([0.1], "meanP")

    def test_empty_family(self):
        with pytest.raises(ValueError):
            family_stat([], "minP")


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

    def test_rows_independent_of_call_split(self):
        whole = _batch_relabelings(5, 0, 1500, 9, 4)
        for cuts in ([0, 1500], [0, 512, 1024, 1500], [0, 1, 511, 513, 1499, 1500],
                     [0, 700, 1500]):
            parts = [_batch_relabelings(5, lo, hi - lo, 9, 4)
                     for lo, hi in zip(cuts[:-1], cuts[1:])]
            assert np.array_equal(np.concatenate(parts), whole)

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
