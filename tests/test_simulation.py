"""GP simulation harness: kernel, perturbation, norms, error rates."""

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.stats import ttest_ind

from bacdetect import decision, simulation
from bacdetect.decision import DecisionConfig, decide
from bacdetect.permutation import PermutationConfig
from bacdetect.roughness import QuantileGrid, StageSample
from bacdetect.simulation import (
    SimConfig,
    estimate_type2,
    l2_distance_pct,
    perturbation,
    sample_gp_groups,
    se_kernel,
)


def delta_l2_norm_oracle():
    """||delta||_L2 by adaptive quadrature of the closed form, per tail."""

    def dsq(x):
        return (np.sin(np.pi * (x - 0.2) / 0.6) / 3.0) ** 2

    upper, _ = quad(dsq, 0.0, 0.25)
    lower, _ = quad(dsq, 0.75, 1.0)
    return np.sqrt(upper + lower)


def l2_pct_oracle(sigma_f, theta):
    """E[100 ||delta|| / ||z||] for z ~ GP(0, SE kernel) on [0, 1].

    Draws 4,000 z's through the eigendecomposition of the kernel on a
    1,001-point grid (not the Cholesky sampler of the harness), integrates
    ||z|| by Simpson's rule and takes ||delta|| from quadrature.
    """
    x = np.linspace(0.0, 1.0, 1001)
    k = sigma_f**2 * np.exp(-0.5 * ((x[:, None] - x[None, :]) / theta) ** 2)
    lam, vec = np.linalg.eigh(k)
    keep = lam > 1e-12 * lam[-1]
    xi = np.random.default_rng(0).standard_normal((int(keep.sum()), 4000))
    z = vec[:, keep] @ (np.sqrt(lam[keep])[:, None] * xi)
    z_norm = np.sqrt(simpson(z * z, x=x, axis=0))
    return float(np.mean(100.0 * delta_l2_norm_oracle() / z_norm))


def tail_maxp_oracle(prev, curr, domain, alternative, n_permutations, rng):
    """Westfall-Young maxP corrected p built on scipy's Welch t-test.

    Relabels whole curves by ``rng``-drawn permutations of the pooled
    rows and returns the share of relabelings whose maxP over ``domain``
    is <= the observed one.
    """
    pooled = np.vstack([prev, curr])[:, domain]
    j1, j_total = prev.shape[0], pooled.shape[0]

    def max_p(a, b):
        return ttest_ind(a, b, axis=-2, equal_var=False,
                         alternative=alternative).pvalue.max(axis=-1)

    observed = max_p(pooled[:j1], pooled[j1:])
    order = rng.permuted(np.tile(np.arange(j_total), (n_permutations, 1)), axis=1)
    relabeled = pooled[order]
    permuted = max_p(relabeled[:, :j1], relabeled[:, j1:])
    return np.count_nonzero(permuted <= observed) / n_permutations


class TestKernel:
    def test_zero_lag(self):
        assert se_kernel(0.3, 0.3, 5.0, 0.2) == pytest.approx(25.0)

    def test_one_length_scale(self):
        assert se_kernel(0.0, 0.2, 5.0, 0.2) == pytest.approx(25 * np.exp(-0.5))
        assert se_kernel(0.0, 0.2, 5.0, 0.2) == pytest.approx(15.1633, abs=1e-4)

    def test_long_range_decay(self):
        assert se_kernel(0.0, 100.0, 5.0, 0.2) < 1e-300

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            se_kernel(0.0, 1.0, 5.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    @pytest.mark.parametrize("name", ["sigma_f", "theta"])
    def test_invalid_scale_named(self, name, value):
        scales = {"sigma_f": 5.0, "theta": 0.2, name: value}
        with pytest.raises(ValueError, match=name):
            se_kernel(np.array([0.0, 0.5]), np.array([0.1, 0.2]), **scales)


class TestPerturbation:
    def test_zero_crossings(self):
        assert perturbation(0.2) == 0.0
        assert perturbation(0.8) == pytest.approx(0.0, abs=1e-15)

    def test_middle_body_is_zero(self):
        x = np.linspace(0.26, 0.74, 50)
        assert np.all(perturbation(x) == 0.0)

    def test_boundary_value(self):
        assert perturbation(0.25) == pytest.approx(-np.sin(np.pi / 12) / 3, abs=1e-12)
        assert perturbation(0.25) == pytest.approx(-0.086273, abs=1e-6)

    def test_endpoint_values(self):
        assert perturbation(0.0) == pytest.approx(np.sin(np.pi / 3) / 3, abs=1e-12)
        assert perturbation(1.0) == pytest.approx(np.sin(np.pi * 0.8 / 0.6) / 3,
                                                  abs=1e-12)

    def test_antisymmetry(self):
        x = np.linspace(0.0, 1.0, 401)
        assert np.allclose(perturbation(1.0 - x), -perturbation(x), atol=1e-12)


class TestSampleGpGroups:
    def test_shapes_and_determinism(self):
        cfg = SimConfig(n_curves_per_group=5, n_input_points=40, runs=1)
        a = sample_gp_groups(cfg, np.random.default_rng(8))
        b = sample_gp_groups(cfg, np.random.default_rng(8))
        x, z, g1, g2 = a
        assert x.shape == (40,) and z.shape == (40,)
        assert g1.shape == (5, 40) and g2.shape == (5, 40)
        assert np.all(np.diff(x) >= 0)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_degenerate_kernel_limit(self):
        cfg = SimConfig(n_curves_per_group=4, n_input_points=30, runs=1,
                        sigma_f=1e-8, sigma_eps=0.5)
        x, z, g1, g2 = sample_gp_groups(cfg, np.random.default_rng(2))
        assert np.max(np.abs(z)) < 1e-6
        # group 2 carries the perturbation on top of noise
        assert abs((g2 - g1).mean(axis=0)[0] - perturbation(x[0])) < 1.0

    def test_empirical_covariance_matches_kernel(self):
        x = np.array([0.1, 0.35])
        k = se_kernel(x[:, None], x[None, :], 5.0, 0.2)
        chol = np.linalg.cholesky(k + 1e-10 * np.eye(2))
        rng = np.random.default_rng(31)
        draws = (chol @ rng.standard_normal((2, 10_000))).T
        emp = np.cov(draws, rowvar=False)
        # 3 sigma of a sample covariance: sd ~ sqrt((k11*k22 + k12^2)/n)
        tol = 3 * np.sqrt((k[0, 0] * k[1, 1] + k[0, 1] ** 2) / 10_000)
        assert abs(emp[0, 1] - k[0, 1]) < tol

    def test_null_model_drops_perturbation(self):
        cfg = SimConfig(n_curves_per_group=4, n_input_points=30, runs=1,
                        null_model=True, sigma_eps=1e-9)
        x, z, g1, g2 = sample_gp_groups(cfg, np.random.default_rng(5))
        assert np.allclose(g1.mean(axis=0), g2.mean(axis=0), atol=1e-7)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(sigma_f=-1.0)
        for name in ("sigma_f", "theta", "sigma_eps"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
                    SimConfig(**{name: value})
        with pytest.raises(ValueError):
            SimConfig(runs=0)
        with pytest.raises(ValueError):
            SimConfig(n_curves_per_group=1)
        with pytest.raises(ValueError, match="input points"):
            SimConfig(n_input_points=1)
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=-5)
        with pytest.raises(ValueError, match="seed"):
            SimConfig(perm=PermutationConfig(seed=-1))
        # the ranges DecisionConfig and QuantileGrid enforce: a level
        # outside (0, 1), and tails that are empty or overlap
        for kw in (dict(alpha=0.0), dict(alpha=5.0), dict(tau=0.0), dict(tau=0.5),
                   dict(tau=0.6)):
            with pytest.raises(ValueError):
                SimConfig(**kw)


class TestL2DistancePct:
    def test_identical_means(self):
        mu = np.linspace(1.0, 2.0, 50)
        assert l2_distance_pct(mu, mu) == 0.0

    def test_doubling_is_hundred_percent(self):
        mu = np.linspace(1.0, 2.0, 50)
        assert l2_distance_pct(mu, 2 * mu) == pytest.approx(100.0)

    def test_perturbed_constant_matches_quadrature(self):
        x = np.linspace(0.0, 1.0, 200_001)
        mu1 = np.ones_like(x)
        got = l2_distance_pct(mu1, mu1 + perturbation(x), x=x)
        assert got == pytest.approx(100.0 * delta_l2_norm_oracle(), abs=1e-3)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            l2_distance_pct(np.zeros(10), np.ones(10))


class TestEstimateType2:
    def _cfg(self, **kw):
        base = dict(n_curves_per_group=5, n_input_points=40, runs=3,
                    perm=PermutationConfig(n_permutations=200), seed=9)
        base.update(kw)
        return SimConfig(**base)

    def test_deterministic(self):
        a = estimate_type2(self._cfg())
        b = estimate_type2(self._cfg())
        assert a == b

    def test_single_run_rates_are_binary(self):
        res = estimate_type2(self._cfg(runs=1))
        assert res.type2_upper in (0.0, 1.0)
        assert res.type2_lower in (0.0, 1.0)
        assert res.runs_used == 1

    def test_null_model_zero_l2(self):
        res = estimate_type2(self._cfg(null_model=True))
        assert res.avg_l2_pct == 0.0

    def test_relabeling_streams_distinct_across_runs(self, monkeypatch):
        seeds = []
        original = simulation.westfall_young

        def record(g1, g2, test, kind, cfg, domain=None):
            seeds.append(cfg.seed)
            return original(g1, g2, test, kind, cfg, domain)

        monkeypatch.setattr(simulation, "westfall_young", record)
        estimate_type2(self._cfg(runs=8, perm=PermutationConfig(n_permutations=20, seed=3)))
        # two tails per run share the run's stream; no two runs share one
        assert len(seeds) == 16
        assert seeds[0::2] == seeds[1::2]
        assert len(set(seeds)) == 8


def test_decide_and_tail_tests_make_the_same_family_calls(monkeypatch, rng):
    # the simulation's tail tests are the decision's tail families on a
    # grid of the run's points: same test, statistic, stream and domain
    x = np.sort(rng.uniform(0.0, 1.0, 40))
    tau = 0.2
    perm = PermutationConfig(n_permutations=30, seed=6)
    calls = {}

    def recorder(module):
        original = module.westfall_young

        def record(g1, g2, test, kind, cfg, domain=None):
            calls.setdefault(module, []).append((test, kind, cfg.seed, domain))
            return original(g1, g2, test, kind, cfg, domain)

        return record

    for module in (decision, simulation):
        monkeypatch.setattr(module, "westfall_young", recorder(module))
    grid = QuantileGrid(points=x, tau=tau)
    prev, curr = rng.standard_normal((2, 5, x.size))
    decide(StageSample(prev, grid), StageSample(curr, grid),
           DecisionConfig(grid=grid, perm=perm))
    simulation.run_tail_tests(x, prev, curr, tau, perm)

    upper, lower, variance = calls[decision]
    assert len(calls[simulation]) == 2
    for ours, theirs in zip((upper, lower), calls[simulation]):
        assert ours[:3] == theirs[:3]
        assert np.array_equal(ours[3], theirs[3])
    assert np.array_equal(upper[3], x <= tau)
    assert np.array_equal(lower[3], x >= 1.0 - tau)
    assert variance[3] is None
