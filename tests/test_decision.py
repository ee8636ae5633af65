"""Three-family decision logic: banding, tail tests, recommendations."""

import numpy as np
import pytest

from bacdetect import decision
from bacdetect.decision import (
    OVERALL_DETECTED,
    OVERALL_MARGINAL,
    OVERALL_NONE,
    RECOMMEND_CHANGE,
    RECOMMEND_CONTINUE,
    RECOMMEND_STOP,
    FAMILIES,
    DecisionConfig,
    band_p_value,
    combine_families,
    decide,
    recommend,
)
from bacdetect.permutation import PermutationConfig
from bacdetect.roughness import StageSample, default_grid
from bacdetect.surface_io import load_report, save_report


def _sample(curves, grid, stage_id="s"):
    return StageSample(curves=np.asarray(curves, dtype=float), grid=grid,
                       stage_id=stage_id)


def _null_pair(rng, grid, j=6):
    base = rng.standard_normal((2 * j, grid.m)).cumsum(axis=1) * 0.1
    return _sample(base[:j], grid, "prev"), _sample(base[j:], grid, "curr")


@pytest.fixture
def grid():
    return default_grid(m=80)


@pytest.fixture
def cfg(grid):
    return DecisionConfig(grid=grid,
                          perm=PermutationConfig(n_permutations=400, seed=3))


class TestBanding:
    def test_low_p_is_significant(self):
        assert band_p_value(0.02, 0.1) == "significant"

    def test_mid_p_is_marginal(self):
        assert band_p_value(0.04, 0.1) == "marginal"

    def test_high_p_is_none(self):
        assert band_p_value(0.5, 0.1) == "none"

    def test_bands_closed_on_the_right(self):
        alpha = 0.1
        assert band_p_value(alpha / 3, alpha) == "significant"
        assert band_p_value(alpha / 3 + 1e-12, alpha) == "marginal"
        assert band_p_value(2 * alpha / 3, alpha) == "marginal"
        assert band_p_value(2 * alpha / 3 + 1e-12, alpha) == "none"

    def test_combine_rules(self):
        assert combine_families(0.02, 0.8, 0.9, 0.1) == OVERALL_DETECTED
        assert combine_families(0.04, 0.8, 0.9, 0.1) == OVERALL_MARGINAL
        assert combine_families(0.9, 0.8, 0.7, 0.1) == OVERALL_NONE
        # any single significant family is enough
        assert combine_families(0.9, 0.9, 0.01, 0.1) == OVERALL_DETECTED


class TestRecommend:
    def test_detected_continues(self, cfg):
        assert recommend(OVERALL_DETECTED, cfg) == RECOMMEND_CONTINUE

    def test_marginal_default_continues(self, cfg):
        assert recommend(OVERALL_MARGINAL, cfg) == RECOMMEND_CONTINUE

    def test_marginal_strict_changes_tool(self, grid):
        cfg = DecisionConfig(grid=grid, marginal_continues=False)
        assert recommend(OVERALL_MARGINAL, cfg) == RECOMMEND_CHANGE

    def test_none_changes_tool(self, cfg):
        assert recommend(OVERALL_NONE, cfg) == RECOMMEND_CHANGE

    def test_none_finest_stops(self, grid):
        cfg = DecisionConfig(grid=grid, finest_tool=True)
        assert recommend(OVERALL_NONE, cfg) == RECOMMEND_STOP


class TestTailTests:
    def test_upper_tail_extreme_improvement(self, rng, grid, cfg):
        prev_curves = np.sort(rng.standard_normal((6, grid.m)), axis=1)[:, ::-1]
        curr_curves = prev_curves.copy()
        curr_curves[:, grid.upper_tail_mask()] -= 10.0  # peaks cut down
        record = decide(_sample(prev_curves, grid), _sample(curr_curves, grid), cfg)
        assert record.families["upper_tail"].result.corrected_p == pytest.approx(1 / 400)

    def test_lower_tail_extreme_improvement(self, rng, grid, cfg):
        prev_curves = np.sort(rng.standard_normal((6, grid.m)), axis=1)[:, ::-1]
        curr_curves = prev_curves.copy()
        curr_curves[:, grid.lower_tail_mask()] += 10.0  # valleys filled
        record = decide(_sample(prev_curves, grid), _sample(curr_curves, grid), cfg)
        assert record.families["lower_tail"].result.corrected_p == pytest.approx(1 / 400)

    def test_upper_only_improvement_leaves_lower_not_raised(self, rng, grid, cfg):
        prev_curves = rng.standard_normal((6, grid.m))
        curr_curves = rng.standard_normal((6, grid.m))  # independent null draw
        curr_curves[:, grid.upper_tail_mask()] -= 10.0
        record = decide(_sample(prev_curves, grid, "p"),
                        _sample(curr_curves, grid, "c"), cfg)
        assert record.families["upper_tail"].verdict == "lowered"
        assert record.families["lower_tail"].verdict == "not_raised"

    def test_variance_extreme_reduction(self, rng, grid, cfg):
        prev_curves = rng.standard_normal((8, grid.m))
        mean = prev_curves.mean(axis=0)
        curr_curves = 0.2 * (prev_curves - mean) + mean
        record = decide(_sample(prev_curves, grid), _sample(curr_curves, grid), cfg)
        assert record.families["variance"].result.corrected_p == pytest.approx(1 / 400)

    def test_variance_minority_reduction_not_reduced(self, rng, grid, cfg):
        prev_curves = rng.standard_normal((8, grid.m))
        mean = prev_curves.mean(axis=0)
        scale = np.where(np.arange(grid.m) < int(0.4 * grid.m), 0.2, 5.0)
        curr_curves = scale * (prev_curves - mean) + mean
        record = decide(_sample(prev_curves, grid, "p"),
                        _sample(curr_curves, grid, "c"), cfg)
        assert record.families["variance"].verdict == "not_reduced"

    def test_null_rarely_significant(self, grid):
        hits = 0
        reps = 250
        for r in range(reps):
            rep_rng = np.random.default_rng(5000 + r)
            prev, curr = _null_pair(rep_rng, grid)
            cfg = DecisionConfig(
                grid=grid, perm=PermutationConfig(n_permutations=300, seed=r))
            hits += decide(prev, curr, cfg).families["upper_tail"].verdict == "lowered"
        # non-significant in >= 96% of null replicates
        assert hits / reps <= 0.04


class TestDecide:
    def test_full_improvement_detected(self, rng, grid, cfg):
        prev_curves = np.sort(rng.standard_normal((7, grid.m)), axis=1)[:, ::-1]
        curr_curves = 0.1 * prev_curves + 0.01 * rng.standard_normal((7, grid.m))
        record = decide(_sample(prev_curves, grid, "stage1"),
                        _sample(curr_curves, grid, "stage2"), cfg)
        assert record.overall == OVERALL_DETECTED
        assert record.recommendation == RECOMMEND_CONTINUE
        assert record.stage_prev == "stage1"
        assert record.stage_curr == "stage2"
        assert record.families["upper_tail"].result.stat_kind == "maxP"
        assert record.families["lower_tail"].result.stat_kind == "maxP"
        assert record.families["variance"].result.stat_kind == "medP"

    def test_families_share_one_relabeling_stream(self, monkeypatch, rng, grid, cfg):
        seeds = []
        original = decision.westfall_young

        def record(g1, g2, test, kind, perm, domain=None):
            seeds.append(perm.seed)
            return original(g1, g2, test, kind, perm, domain)

        monkeypatch.setattr(decision, "westfall_young", record)
        decide(*_null_pair(rng, grid), cfg)
        assert seeds == [cfg.perm.seed] * len(FAMILIES)

    def test_each_block_drawn_once(self, rng, grid, philox_keys):
        cfg = DecisionConfig(grid=grid, perm=PermutationConfig(n_permutations=1100, seed=3))
        decide(*_null_pair(rng, grid), cfg)
        assert philox_keys == [(3, 0), (3, 1), (3, 2)]

    def test_p_exact_in_record_rounded_in_report(self, rng, grid):
        # most counts k give a k / 300 with more than 6 significant digits
        cfg = DecisionConfig(grid=grid, perm=PermutationConfig(n_permutations=300, seed=3))
        record = decide(*_null_pair(rng, grid), cfg)
        for name, outcome in record.families.items():
            p = outcome.result.corrected_p
            k = round(p * 300)
            assert p == k / 300, name
            assert outcome.to_dict()["corrected_p"] == float(f"{k / 300:.6g}"), name
        assert any(o.result.corrected_p != o.to_dict()["corrected_p"]
                   for o in record.families.values())

    def test_identical_stages_no_improvement(self, rng, grid, cfg):
        prev, curr = _null_pair(rng, grid)
        record = decide(prev, curr, cfg)
        assert record.overall == OVERALL_NONE
        assert record.recommendation == RECOMMEND_CHANGE

    def test_record_serialization_fields(self, rng, grid, cfg):
        prev, curr = _null_pair(rng, grid)
        record = decide(prev, curr, cfg)
        # the CLI prints the families in this order
        assert list(record.families) == list(FAMILIES)
        d = record.to_dict()
        assert set(d["families"]) == {"upper_tail", "lower_tail", "variance"}
        assert d["provenance"]["tau"] == cfg.grid.tau
        assert d["tool"]["name"] == "bacdetect"

    def test_config_validation(self, grid):
        # tau is validated where it lives, on the grid
        with pytest.raises(ValueError):
            DecisionConfig(grid=default_grid(m=80, tau=0.6))
        with pytest.raises(ValueError):
            DecisionConfig(grid=grid, alpha=0.0)

    def test_grid_tau_sets_domain_and_provenance(self):
        grid = default_grid(m=80, tau=0.2)
        cfg = DecisionConfig(grid=grid, perm=PermutationConfig(n_permutations=50, seed=1))
        flat = np.full((4, grid.m), 3.0)
        record = decide(_sample(flat, grid, "p"), _sample(flat, grid, "c"), cfg)
        # constant curves are degenerate at every tested point
        families = record.families
        assert families["upper_tail"].result.degenerate_points == grid.upper_tail_mask().sum()
        assert families["lower_tail"].result.degenerate_points == grid.lower_tail_mask().sum()
        assert record.provenance["tau"] == 0.2

    def test_pooled_report_records_its_t_test(self, tmp_path):
        # 6 curves at 3x the spread of 15: the two t tests give different p's
        rng = np.random.default_rng(1)
        grid = default_grid(m=50)
        base = rng.standard_normal((21, grid.m)).cumsum(axis=1) * 0.1
        prev, curr = _sample(3.0 * base[:6], grid, "prev"), _sample(base[6:], grid, "curr")
        perm = PermutationConfig(n_permutations=200, seed=1)
        welch, pooled = (decide(prev, curr, DecisionConfig(grid=grid, perm=perm, pooled=p))
                         for p in (False, True))
        assert "t_test" not in welch.provenance
        assert pooled.provenance["t_test"] == "pooled"
        assert welch.to_dict() != pooled.to_dict()
        path = tmp_path / "pooled.json"
        save_report(pooled, path)
        assert load_report(path).provenance["t_test"] == "pooled"

    def test_exhaustive_report_says_it_enumerated(self, tmp_path, rng, grid):
        # 4 + 4 curves have C(8, 4) = 70 labelings
        prev, curr = _null_pair(rng, grid, j=4)
        sampled = PermutationConfig(n_permutations=500, seed=1)
        exhaustive = PermutationConfig(n_permutations=500, seed=1, exhaustive=True)
        record = decide(prev, curr, DecisionConfig(grid=grid, perm=exhaustive))
        assert record.provenance["exhaustive"] is True
        assert all(o.result.n_used == 70 for o in record.families.values())
        sampled_record = decide(prev, curr, DecisionConfig(grid=grid, perm=sampled))
        assert "exhaustive" not in sampled_record.provenance
        path = tmp_path / "exhaustive.json"
        save_report(record, path)
        assert load_report(path).provenance["exhaustive"] is True

    def test_sample_on_another_grid_rejected(self, rng, grid, cfg):
        other = default_grid(m=grid.m, s_max=0.99)
        prev, curr = _null_pair(rng, grid)
        with pytest.raises(ValueError):
            decide(prev, _sample(curr.curves, other, "curr"), cfg)
