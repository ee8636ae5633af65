"""Distribution primitives and pointwise tests against quadrature oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc as scipy_betainc
from scipy.special import betaincinv as scipy_betaincinv
from scipy.special import gammaln

from bacdetect import statcore
from bacdetect.permutation import PermutationConfig, PointwiseTest, westfall_young
from bacdetect.statcore import (
    f_isf,
    f_sf,
    mean_test,
    student_t_isf,
    student_t_sf,
    variance_test,
)


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
        # t^2 overflows here, silently: the tail is 0 or 1 all the same
        assert np.array_equal(student_t_sf([1e300, -1e300, 1e154, 2e154], 5), [0, 1, 0, 0])

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


def _mean_test_p(*args, **kwargs):
    """``(p, degenerate)`` of ``mean_test`` at every entry."""
    _, degenerate, _, pvalue = mean_test(*args, **kwargs)
    return pvalue(...), degenerate


class TestWelchMeanP:
    def test_degenerate_equal_means(self):
        p, deg = _mean_test_p(1.0, 0.0, 5, 1.0, 0.0, 5, "greater")
        assert p == 0.5 and deg

    def test_degenerate_signed(self):
        p_up, _ = _mean_test_p(2.0, 0.0, 5, 1.0, 0.0, 5, "greater")
        p_down, _ = _mean_test_p(2.0, 0.0, 5, 1.0, 0.0, 5, "less")
        assert p_up == 0.0 and p_down == 1.0

    def test_degenerate_unequal_groups(self):
        # Welch's df is 0 / 0 here, and df 1 stands in
        p, deg = _mean_test_p([2.0, 1.0, 1.0], 0.0, 5, [1.0, 2.0, 1.0], 0.0, 7, "greater")
        assert np.array_equal(p, [0.0, 1.0, 0.5]) and np.all(deg)

    def test_degenerate_pooled(self):
        # the pooled df stands in for Welch's df 1: betainc is exact at x = 0, 1
        p, deg = _mean_test_p([2.0, 1.0, 1.0], 0.0, 5, [1.0, 2.0, 1.0], 0.0, 7,
                              "greater", pooled=True)
        assert np.array_equal(p, [0.0, 1.0, 0.5]) and np.all(deg)

    def test_pooled_uses_fixed_df(self):
        p_w, _ = _mean_test_p(1.0, 2.0, 6, 0.0, 0.1, 6, "greater", pooled=False)
        p_p, _ = _mean_test_p(1.0, 2.0, 6, 0.0, 0.1, 6, "greater", pooled=True)
        assert p_w != p_p

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            mean_test(0.0, 1.0, 5, 0.0, 1.0, 5, "sideways")


def _moments(g):
    return g.mean(axis=0), g.var(axis=0, ddof=1), g.shape[0]


def _mean_p(g1, g2, direction):
    """mean_test's p on numpy moments of two (J, m) curve groups."""
    return mean_test(*_moments(g1), *_moments(g2), direction)[3](...)


def _variance_p(g1, g2):
    """variance_test's p on numpy moments of two (J, m) curve groups."""
    _, var1, j1 = _moments(g1)
    _, var2, j2 = _moments(g2)
    return variance_test(var1, j1, var2, j2)[3](...)


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
            westfall_young(rng.standard_normal((4, 10)), rng.standard_normal((4, 11)),
                           PointwiseTest(kind="mean", direction="greater"), "maxP",
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
        _, deg, _, pvalue = variance_test(g1.var(axis=0, ddof=1), 4, g2.var(axis=0, ddof=1), 4)
        p = pvalue(...)
        assert np.all(p == 0.5) and np.all(deg)

    def test_degenerate_only_group_2_constant(self):
        # f = var1 / 0 is +inf, where betainc gives p = 0 exactly
        _, deg, _, pvalue = variance_test([2.0, 0.0], 4, [0.0, 0.0], 6)
        assert np.array_equal(pvalue(...), [0.0, 0.5]) and np.all(deg)


SCREEN_SHAPES = [(2, 2), (3, 9), (9, 9), (15, 10), (6, 15)]
SCREEN_CUTS = np.concatenate([np.geomspace(1e-12, 0.5, 12), 1.0 - np.geomspace(1e-9, 0.4, 8)])


def _check_screen(bounds, p_at, c, lowest=-np.inf):
    """A statistic one step above hi has p <= c, one step below lo p > c."""
    lo, hi = bounds(c)
    if np.isfinite(hi):
        assert p_at(np.nextafter(hi, np.inf)) <= c, (c, hi)
    below = np.nextafter(lo, -np.inf)
    if np.isfinite(lo) and below >= lowest:
        assert p_at(below) > c, (c, lo)


class TestScreenContract:
    """``bounds(c)`` settles a statistic exactly as its computed p would."""

    @pytest.mark.parametrize("j1, j2", SCREEN_SHAPES)
    def test_pooled_mean(self, j1, j2):
        bounds = mean_test(0.0, 1.0, j1, 0.0, 1.0, j2, "greater", pooled=True)[2]
        for c in SCREEN_CUTS:
            _check_screen(bounds, lambda t: student_t_sf(t, j1 + j2 - 2), c)

    @pytest.mark.parametrize("j1, j2", SCREEN_SHAPES)
    def test_welch_mean_at_both_df_ends_and_between(self, j1, j2):
        bounds = mean_test(0.0, 1.0, j1, 0.0, 1.0, j2, "greater")[2]
        # Welch's df lies between the smaller group's df and the pooled df
        for df in np.linspace(min(j1, j2) - 1, j1 + j2 - 2, 5):
            for c in SCREEN_CUTS:
                _check_screen(bounds, lambda t: student_t_sf(t, df), c)

    @pytest.mark.parametrize("j1, j2", SCREEN_SHAPES)
    def test_variance(self, j1, j2):
        bounds = variance_test(1.0, j1, 1.0, j2)[2]
        for c in SCREEN_CUTS:
            _check_screen(bounds, lambda f: f_sf(f, j1 - 1, j2 - 1), c, lowest=0.0)


# The incomplete beta is checked against scipy's, which the runtime no longer
# imports, over the (a, b, x) the engine reaches: a = df2 / 2 and b = df1 / 2
# for the F test, b = 1/2 for the t test.
def _engine_range(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.5, 30.0, n)
    b = rng.choice([0.5, 1.0, 3.5, 7.0], n)
    b[::2] = rng.uniform(0.5, 30.0, b[::2].size)
    return a, b


class TestIncompleteBeta:
    def test_matches_scipy_over_engine_range(self):
        a, b = _engine_range(20_000, 1)
        rng = np.random.default_rng(2)
        swap = (a + 1.0) / (a + b + 2.0)
        # x anywhere, near 0, near 1, and within an ulp-scale step of the swap point
        x = np.concatenate([rng.uniform(0.0, 1.0, a.size), 10.0 ** rng.uniform(-12, -1, a.size),
                            1.0 - 10.0 ** rng.uniform(-12, -1, a.size),
                            swap * (1.0 + rng.uniform(-1e-12, 1e-12, a.size))])
        aa, bb = np.tile(a, 4), np.tile(b, 4)
        ref = scipy_betainc(aa, bb, x)
        keep = ref > 1e-250  # below that, both underflow their last digits
        got = statcore._betainc(aa, bb, x)
        assert np.max(np.abs(got - ref)[keep] / ref[keep]) <= 1e-12

    def test_inverse_matches_scipy_over_engine_range(self):
        a, b = _engine_range(5_000, 3)
        rng = np.random.default_rng(4)
        q = np.concatenate([rng.uniform(0.0, 1.0, a.size), 10.0 ** rng.uniform(-14, -1, a.size),
                            1.0 - 10.0 ** rng.uniform(-14, -1, a.size)])
        aa, bb = np.tile(a, 3), np.tile(b, 3)
        ref = scipy_betaincinv(aa, bb, q)
        got = statcore._betaincinv(aa, bb, q)
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_exact_at_the_ends(self):
        a, b = _engine_range(50, 5)
        assert np.array_equal(statcore._betainc(a, b, np.zeros(50)), np.zeros(50))
        assert np.array_equal(statcore._betainc(a, b, np.ones(50)), np.ones(50))
        assert np.array_equal(statcore._betaincinv(a, b, np.zeros(50)), np.zeros(50))
        assert np.array_equal(statcore._betaincinv(a, b, np.ones(50)), np.ones(50))

    def test_monotone_in_x_across_the_swap_point(self):
        # the only switch of method is each entry's own swap point; steps of
        # 1e-9 in x move I_x by far more than its rounding
        for a, b in [(4.0, 0.5), (11.5, 0.5), (0.5, 4.5), (4.5, 7.0), (7.0, 4.5), (30.0, 30.0)]:
            s = (a + 1.0) / (a + b + 2.0)
            x = s + np.linspace(-2e-7, 2e-7, 401)
            assert np.all(np.diff(statcore._betainc(a, b, x)) > 0), (a, b)

    def test_inverse_monotone_across_its_switches(self):
        # q = 1/2 flips the tail solved, and with it the (a, b) the start is
        # taken at
        for a, b in [(4.0, 0.5), (0.5, 4.0), (1.9, 0.5), (2.0, 0.5), (4.5, 7.0), (0.7, 0.9)]:
            q = 0.5 + np.linspace(-1e-7, 1e-7, 201)
            assert np.all(np.diff(statcore._betaincinv(a, b, q)) > 0), (a, b)

    def test_inverse_round_trip(self):
        a, b = _engine_range(2_000, 6)
        q = np.random.default_rng(7).uniform(0.0, 1.0, a.size)
        x = statcore._betaincinv(a, b, q)
        # the forward is steep at large a and b: I_x moves 50 times its
        # relative error in x there
        assert np.allclose(statcore._betainc(a, b, x), q, rtol=1e-10, atol=1e-15)
        # the statistic back from its tail, where p < 0.9 holds it to ten digits
        f = np.exp(np.random.default_rng(8).uniform(-4, 4, a.size))
        df1, df2 = 2 * b, 2 * a
        p = f_sf(f, df1, df2)
        assert np.allclose(f_isf(p, df1, df2)[p < 0.9], f[p < 0.9], rtol=1e-10)
        t = np.random.default_rng(9).uniform(-6, 6, a.size)
        p = student_t_sf(t, df2)
        assert np.allclose(student_t_isf(p, df2)[p < 0.9], t[p < 0.9], rtol=1e-10, atol=1e-12)


class TestClosedForms:
    t = np.array([-40.0, -3.0, -0.4, 0.0, 0.3, 1.0, 2.5, 7.0, 150.0])

    # each closed form in a form without cancellation: t >= 0 directly, t < 0
    # as 1 minus the tail at -t
    @staticmethod
    def _reflected(tail, t):
        return np.where(t >= 0, tail(np.abs(t)), 1.0 - tail(np.abs(t)))

    def test_t_one_df_is_cauchy(self):
        # 1/2 - atan(t) / pi = atan(1 / t) / pi for t > 0
        with np.errstate(divide="ignore"):
            exact = self._reflected(lambda t: np.arctan(1.0 / t) / np.pi, self.t)
        assert np.allclose(student_t_sf(self.t, 1), exact, rtol=1e-13, atol=0)

    def test_t_two_df(self):
        # 1/2 - t / (2 sqrt(2 + t^2)) = 1 / (r (r + t)) with r = sqrt(2 + t^2)
        r = np.sqrt(2 + self.t**2)
        exact = self._reflected(lambda t: 1.0 / (r * (r + t)), self.t)
        assert np.allclose(student_t_sf(self.t, 2), exact, rtol=1e-13, atol=0)

    def test_f_two_numerator_df(self):
        f = np.array([0.0, 0.01, 0.5, 1.0, 3.0, 20.0, 400.0])
        for d2 in (1.0, 4.0, 9.0, 23.0):
            exact = (d2 / (d2 + 2 * f)) ** (d2 / 2)
            assert np.allclose(f_sf(f, 2, d2), exact, rtol=1e-13, atol=0), d2


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 700), data=st.data())
def test_each_entry_alone_bit_for_bit(seed, n, data):
    """An entry's p is its own: alone, in any slice and in any reshape, bit for bit."""
    rng = np.random.default_rng(seed)
    a, b = _engine_range(n, seed)
    x = rng.uniform(0.0, 1.0, n) ** rng.choice([1.0, 4.0], n)
    p = statcore._betainc(a, b, x)
    k = data.draw(st.integers(0, n - 1))
    assert statcore._betainc(a[k], b[k], x[k]) == p[k]
    lo = data.draw(st.integers(0, n - 1))
    hi = data.draw(st.integers(lo + 1, n))
    assert np.array_equal(statcore._betainc(a[lo:hi], b[lo:hi], x[lo:hi]), p[lo:hi])
    assert np.array_equal(statcore._betainc(a[::-1], b[::-1], x[::-1]), p[::-1])
    if n % 2 == 0:
        shape = (2, n // 2)
        assert np.array_equal(statcore._betainc(a.reshape(shape), b.reshape(shape),
                                                x.reshape(shape)), p.reshape(shape))
    # a 0-d shape parameter, as the F test and the pooled t test pass it
    assert np.array_equal(statcore._betainc(a[k], b[k], x), statcore._betainc(
        np.full(n, a[k]), np.full(n, b[k]), x))


class TestInverseArguments:
    @pytest.mark.parametrize("q", [-0.1, 1.2, np.nan])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            student_t_isf(q, 5)
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            f_isf(q, 2, 5)

    def test_f_sf_statistic_message(self):
        with pytest.raises(ValueError, match="must not be NaN and must be >= 0"):
            f_sf(np.nan, 2, 5)
        # +inf is allowed by design: its tail is 0
        assert f_sf(np.inf, 2, 5) == 0.0

    def test_f_sf_infinite_df_rejected(self):
        with pytest.raises(ValueError, match="finite and > 0"):
            f_sf(1.0, np.inf, 5)
