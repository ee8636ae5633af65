"""Sa metrics, bearing area curves, and quantile-grid evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bacdetect.roughness import (
    BearingAreaCurve,
    QuantileGrid,
    StageSample,
    build_stage_sample,
    compute_sa,
    default_grid,
    evaluate_on_grid,
    extract_bac,
    median_sa,
)
from bacdetect.surface_io import HeightMatrix, StageRecord
from conftest import rough_stage


class TestComputeSa:
    def test_constant_matrix_is_zero(self):
        assert compute_sa(HeightMatrix(z=np.full((5, 5), 3.7))) == pytest.approx(
            0.0, abs=1e-12)

    def test_two_level_surface(self):
        z = np.concatenate([np.full(8, 2.5), np.full(8, -2.5)]).reshape(4, 4)
        assert compute_sa(HeightMatrix(z=z)) == pytest.approx(2.5, abs=1e-12)

    def test_one_to_nine(self):
        z = np.arange(1.0, 10.0).reshape(3, 3)
        assert compute_sa(HeightMatrix(z=z)) == pytest.approx(20 / 9, abs=1e-12)

    def test_translation_invariance(self, rng):
        z = rng.standard_normal((10, 12))
        assert compute_sa(HeightMatrix(z=z)) == pytest.approx(
            compute_sa(HeightMatrix(z=z + 17.3)), abs=1e-12)

    def test_absolute_homogeneity(self, rng):
        z = rng.standard_normal((10, 12))
        assert compute_sa(HeightMatrix(z=-4.0 * z)) == pytest.approx(
            4.0 * compute_sa(HeightMatrix(z=z)), abs=1e-12)

    def test_ignores_nan_pixels(self, rng):
        z = rng.standard_normal((6, 6))
        z2 = z.copy()
        z2[0, 0] = np.nan
        sa = compute_sa(HeightMatrix(z=z2))
        ref = np.abs(z2[np.isfinite(z2)] - np.nanmean(z2)).mean()
        assert sa == pytest.approx(ref, abs=1e-12)


class TestMedianSa:
    def _stage(self, sas):
        locs = [HeightMatrix(z=np.array([[s, -s], [s, -s]]), location_id=str(i))
                for i, s in enumerate(sas)]
        return StageRecord(stage_id="s", locations=locs)

    def test_odd_count(self):
        assert median_sa(self._stage([1, 2, 3])) == 2.0

    def test_even_count(self):
        assert median_sa(self._stage([1, 2, 3, 4])) == 2.5

    def test_identical_matrices(self, rng):
        z = rng.standard_normal((5, 5))
        locs = [HeightMatrix(z=z.copy(), location_id=str(i)) for i in range(4)]
        rec = StageRecord(stage_id="s", locations=locs)
        assert median_sa(rec) == pytest.approx(compute_sa(locs[0]), abs=1e-12)


class TestExtractBac:
    def test_simple_sort(self):
        bac = extract_bac(HeightMatrix(z=np.array([[3.0, 1.0, 2.0]])))
        assert np.array_equal(bac.sorted_heights, [3.0, 2.0, 1.0])

    def test_constant_matrix(self):
        bac = extract_bac(HeightMatrix(z=np.full((2, 3), 1.5)))
        assert np.array_equal(bac.sorted_heights, np.full(6, 1.5))

    def test_permutation_and_monotone(self, rng):
        z = rng.standard_normal((8, 9))
        bac = extract_bac(HeightMatrix(z=z))
        assert np.array_equal(np.sort(bac.sorted_heights), np.sort(z.ravel()))
        assert np.all(np.diff(bac.sorted_heights) <= 0)

    def test_ascending_input_rejected(self):
        with pytest.raises(ValueError):
            BearingAreaCurve(sorted_heights=[1.0, 2.0])


class TestQuantileGrid:
    def test_default_grid_shape(self):
        grid = default_grid()
        assert grid.m == 1000
        assert grid.s_max == pytest.approx(0.998)
        assert grid.tau == 0.25
        assert grid.upper_tail_mask().sum() + grid.lower_tail_mask().sum() < grid.m

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileGrid(points=np.array([0.0, 0.5, 0.4]))
        with pytest.raises(ValueError):
            QuantileGrid(points=np.array([0.0, 1.2]))
        with pytest.raises(ValueError):
            # a NaN fails every comparison of the range and increasing checks
            QuantileGrid(points=np.array([0.0, np.nan, 0.9]))
        with pytest.raises(ValueError):
            QuantileGrid(points=np.linspace(0, 1, 10), tau=0.6)
        with pytest.raises(ValueError):
            # never reaches the lower tail
            QuantileGrid(points=np.linspace(0.0, 0.5, 10), tau=0.25)
        with pytest.raises(ValueError):
            default_grid(m=1)
        with pytest.raises(ValueError):
            default_grid(s_max=0.0)


@st.composite
def _curves_and_grids(draw):
    """A descending curve, with ties and offsets, and an equally spaced grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.standard_normal(draw(st.integers(2, 60)))
    h *= draw(st.sampled_from([1e-3, 1.0, 100.0]))
    decimals = draw(st.sampled_from([None, 0, 1]))
    if decimals is not None:  # ties, -0.0 among them
        h = np.round(h, decimals)
    offset = draw(st.sampled_from([0.0, 1e5, -1e5]))
    if offset:
        h += offset
    s_max = draw(st.sampled_from([1.0, 0.998]) | st.floats(0.6, 1.0))
    points = np.linspace(0.0, s_max, draw(st.integers(2, 80)))
    return np.sort(h)[::-1], QuantileGrid(points=points, tau=0.45)


class TestEvaluateOnGrid:
    @settings(max_examples=500, deadline=None)
    @given(case=_curves_and_grids())
    def test_matches_interp_bit_for_bit(self, case):
        # evaluate_on_grid reads only the order statistics around each
        # grid point; np.interp over the whole curve is the reference
        h, grid = case
        out = evaluate_on_grid(BearingAreaCurve(sorted_heights=h), grid)
        expected = np.interp(grid.points * (h.size - 1), np.arange(h.size), h)
        assert out.tobytes() == expected.tobytes()

    def test_two_point_interpolation(self):
        bac = BearingAreaCurve(sorted_heights=[10.0, 0.0])
        grid = QuantileGrid(points=np.array([0.0, 0.5, 1.0]))
        assert np.allclose(evaluate_on_grid(bac, grid), [10.0, 5.0, 0.0])

    def test_constant_curve(self):
        bac = BearingAreaCurve(sorted_heights=np.full(7, 2.0))
        grid = default_grid(m=13)
        assert np.allclose(evaluate_on_grid(bac, grid), 2.0)

    def test_exact_order_statistic(self):
        # s = 1/3 on four points lands exactly on index 1
        bac = BearingAreaCurve(sorted_heights=[4.0, 3.0, 2.0, 1.0])
        grid = QuantileGrid(points=np.array([0.0, 1 / 3, 1.0]))
        assert evaluate_on_grid(bac, grid)[1] == pytest.approx(3.0, abs=1e-12)


class TestStageSample:
    def test_shapes(self, rng):
        rec = rough_stage(rng, "s1", n_loc=9)
        sample = build_stage_sample(rec, default_grid(m=100))
        assert sample.curves.shape == (9, 100)

    def test_equal_grids_comparable(self, rng):
        grid = default_grid(m=50)
        s1 = build_stage_sample(rough_stage(rng, "a"), grid)
        s2 = build_stage_sample(rough_stage(rng, "b"), grid)
        assert s1.curves.shape[1] == s2.curves.shape[1]

    def test_single_location_rejected(self):
        grid = default_grid(m=10)
        with pytest.raises(ValueError):
            StageSample(curves=np.zeros((1, 10)), grid=grid)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StageSample(curves=np.zeros((3, 9)), grid=default_grid(m=10))
