"""Distribution primitives and pointwise tests against quadrature oracles."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from bacdetect.permutation import PermutationConfig, PointwiseTest, westfall_young_all
from bacdetect.statcore import f_sf, student_t_sf, variance_f_p, welch_mean_p


def t_sf_oracle(t, df):
    """Upper tail of Student's t by direct density quadrature."""
    logc = gammaln((df + 1) / 2.0) - gammaln(df / 2.0) - 0.5 * np.log(df * np.pi)

    def density(u):
        return np.exp(logc - (df + 1) / 2.0 * np.log1p(u * u / df))

    val, _ = quad(density, t, np.inf, limit=200)
    return val


def f_sf_oracle(f, df1, df2):
    """Upper tail of the F distribution by direct density quadrature."""
    logc = (
        gammaln((df1 + df2) / 2.0)
        - gammaln(df1 / 2.0)
        - gammaln(df2 / 2.0)
        + (df1 / 2.0) * np.log(df1 / df2)
    )

    def density(u):
        return np.exp(
            logc
            + (df1 / 2.0 - 1.0) * np.log(u)
            - (df1 + df2) / 2.0 * np.log1p(df1 * u / df2)
        )

    val, _ = quad(density, f, np.inf, limit=200)
    return val


class TestStudentTSF:
    def test_zero_statistic_is_half(self):
        for df in (1, 2, 5, 10, 100):
            assert abs(student_t_sf(0.0, df) - 0.5) < 1e-12

    def test_limits(self):
        assert student_t_sf(np.inf, 5) == 0.0
        assert student_t_sf(-np.inf, 5) == 1.0
        assert student_t_sf(1e8, 5) < 1e-12

    def test_spot_value(self):
        assert abs(student_t_sf(2.0, 10) - 0.036694) < 1e-5

    def test_reflection(self):
        for t in (0.3, 1.7, 4.2):
            assert abs(student_t_sf(t, 7) + student_t_sf(-t, 7) - 1.0) < 1e-12

    def test_matches_quadrature_oracle(self):
        for t, df in [(0.5, 3), (2.0, 10), (-1.3, 6), (3.7, 21.5)]:
            assert abs(student_t_sf(t, df) - t_sf_oracle(t, df)) < 1e-10

    def test_vectorized(self):
        out = student_t_sf(np.array([0.0, 1.0, -1.0]), 4)
        assert out.shape == (3,)
        assert abs(out[1] + out[2] - 1.0) < 1e-12

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            student_t_sf(1.0, 0)

    def test_is_reflected_half_of_f_tail(self):
        # T^2 is F(1, df): bit for bit, including the infinite and signed zero t
        rng = np.random.default_rng(3)
        t = rng.standard_normal(10_000) * np.exp(rng.uniform(-5, 5, 10_000))
        t[:4] = [np.inf, -np.inf, 0.0, -0.0]
        df = np.exp(rng.uniform(-3, 8, t.size))
        half = 0.5 * f_sf(t * t, 1, df)
        assert np.array_equal(student_t_sf(t, df), np.where(t >= 0, half, 1.0 - half))

    def test_scalar_arguments_give_0d_arrays(self):
        for out in (student_t_sf(1.0, 3), f_sf(1.0, 2, 3)):
            assert isinstance(out, np.ndarray) and out.shape == ()


class TestFSF:
    def test_unit_statistic_equal_df_is_half(self):
        for d in (1, 4, 8, 30):
            assert abs(f_sf(1.0, d, d) - 0.5) < 1e-12

    def test_zero_statistic_is_one(self):
        assert f_sf(0.0, 3, 5) == 1.0

    def test_infinite_statistic_is_zero(self):
        assert f_sf(np.inf, 3, 5) == 0.0

    def test_matches_quadrature_oracle(self):
        for f, d1, d2 in [(3.0, 8, 8), (0.4, 5, 12), (2.2, 1, 9), (7.0, 16, 4)]:
            assert abs(f_sf(f, d1, d2) - f_sf_oracle(f, d1, d2)) < 1e-10

    def test_reciprocal_identity(self):
        for f, d1, d2 in [(2.0, 4, 9), (0.7, 11, 3)]:
            assert abs(f_sf(f, d1, d2) - (1.0 - f_sf(1.0 / f, d2, d1))) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            f_sf(1.0, 0, 5)
        with pytest.raises(ValueError):
            f_sf(-1.0, 3, 5)


class TestWelchMeanP:
    def test_degenerate_equal_means(self):
        p, deg = welch_mean_p(1.0, 0.0, 5, 1.0, 0.0, 5, "greater")
        assert p == 0.5 and deg

    def test_degenerate_signed(self):
        p_up, _ = welch_mean_p(2.0, 0.0, 5, 1.0, 0.0, 5, "greater")
        p_down, _ = welch_mean_p(2.0, 0.0, 5, 1.0, 0.0, 5, "less")
        assert p_up == 0.0 and p_down == 1.0

    def test_pooled_uses_fixed_df(self):
        p_w, _ = welch_mean_p(1.0, 2.0, 6, 0.0, 0.1, 6, "greater", pooled=False)
        p_p, _ = welch_mean_p(1.0, 2.0, 6, 0.0, 0.1, 6, "greater", pooled=True)
        assert p_w != p_p

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            welch_mean_p(0.0, 1.0, 5, 0.0, 1.0, 5, "sideways")


def _moments(g):
    return g.mean(axis=0), g.var(axis=0, ddof=1), g.shape[0]


def _mean_p(g1, g2, direction):
    """welch_mean_p on numpy moments of two (J, m) curve groups."""
    return welch_mean_p(*_moments(g1), *_moments(g2), direction)[0]


def _variance_p(g1, g2):
    """variance_f_p on numpy moments of two (J, m) curve groups."""
    _, var1, j1 = _moments(g1)
    _, var2, j2 = _moments(g2)
    return variance_f_p(var1, j1, var2, j2)[0]


class TestPointwiseMeanTest:
    def test_identical_groups_give_half(self, rng):
        g = rng.standard_normal((5, 30))
        assert np.allclose(_mean_p(g, g.copy(), "greater"), 0.5, atol=1e-12)

    def test_large_separation(self, rng):
        g2 = rng.standard_normal((8, 25))
        g1 = g2 + 10.0
        assert np.all(_mean_p(g1, g2, "greater") <= 1e-4)

    def test_direction_complementarity(self, rng):
        g1 = rng.standard_normal((6, 20))
        g2 = rng.standard_normal((7, 20))
        up = _mean_p(g1, g2, "greater")
        down = _mean_p(g1, g2, "less")
        assert np.allclose(up + down, 1.0, atol=1e-12)
        # swapping the groups reverses the alternative
        assert np.allclose(_mean_p(g2, g1, "greater"), down, atol=1e-12)

    def test_domain_mask(self, rng):
        # each point is tested on its own column, so the engine may slice
        # the domain out of the data before forming moments
        g1 = rng.standard_normal((4, 10))
        g2 = rng.standard_normal((4, 10))
        mask = np.arange(10) < 3
        full = _mean_p(g1, g2, "greater")
        assert np.array_equal(_mean_p(g1[:, mask], g2[:, mask], "greater"), full[mask])

    def test_grid_mismatch(self, rng):
        # the engine is the one place curves reach the pointwise test
        with pytest.raises(ValueError, match="one evaluation grid"):
            westfall_young_all(rng.standard_normal((4, 10)), rng.standard_normal((4, 11)),
                               PointwiseTest(kind="mean", direction="greater"),
                               PermutationConfig(n_permutations=10))


class TestPointwiseVarianceTest:
    def test_identical_groups_give_half(self, rng):
        g = rng.standard_normal((6, 15))
        assert np.allclose(_variance_p(g, g.copy()), 0.5, atol=1e-12)

    def test_inflated_spread_detected(self, rng):
        g2 = rng.standard_normal((12, 20))
        g1 = 10.0 * (g2 - g2.mean(axis=0)) + g2.mean(axis=0)
        assert np.all(_variance_p(g1, g2) < 0.05)

    def test_swap_symmetry(self, rng):
        g1 = rng.standard_normal((7, 12))
        g2 = rng.standard_normal((7, 12))
        assert np.allclose(_variance_p(g1, g2) + _variance_p(g2, g1), 1.0, atol=1e-12)

    def test_degenerate_zero_variance(self):
        g1 = np.zeros((4, 5))
        g2 = np.zeros((4, 5))
        p, deg = variance_f_p(g1.var(axis=0, ddof=1), 4, g2.var(axis=0, ddof=1), 4)
        assert np.all(p == 0.5) and np.all(deg)
