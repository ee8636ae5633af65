"""Type II error study on simulated Gaussian-process curve groups.

Each run draws a shared latent curve from a squared-exponential GP,
builds two groups of noisy copies, perturbs one group in the quantile
tails, and runs the two tail mean tests.  The perturbed group plays the
role of the earlier (rougher) stage: the perturbation raises the peaks
region and deepens the valleys region, so both tail tests are oriented
toward detecting the improvement.  Failures to reject are type II
errors; a delta-free variant measures the type I error.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .decision import FAMILIES
from .permutation import PermutationConfig, shared_draws, westfall_young
from .roughness import EmptyTailError, QuantileGrid

# Cholesky jitter escalation, relative to sigma_f^2
_JITTER_START = 1e-10
_JITTER_MAX = 1e-6


def _check_scales(**scales):
    for name, value in scales.items():
        # a NaN fails every comparison, so it fails this one too
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and > 0, not {value!r}")


@dataclass
class SimConfig:
    n_curves_per_group: int = 9
    n_input_points: int = 100
    sigma_f: float = 5.0
    theta: float = 0.2
    sigma_eps: float = 0.5
    tau: float = 0.25
    alpha: float = 0.03
    runs: int = 1000
    perm: PermutationConfig = field(default_factory=lambda: PermutationConfig(n_permutations=2000))
    seed: int = 0
    null_model: bool = False  # force delta to 0 for type I studies

    def __post_init__(self):
        _check_scales(sigma_f=self.sigma_f, theta=self.theta, sigma_eps=self.sigma_eps)
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.n_curves_per_group < 2:
            raise ValueError("need at least two curves per group")
        if self.n_input_points < 2:
            raise ValueError("need at least two input points")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0 < self.tau < 0.5):
            raise ValueError("tau must lie in (0, 0.5)")


@dataclass
class SimResult:
    type2_upper: float
    type2_lower: float
    avg_l2_pct: float
    runs_used: int


def se_kernel(x, x2, sigma_f, theta):
    """Squared exponential covariance sigma_f^2 * exp(-0.5 ((x-x')/theta)^2)."""
    _check_scales(sigma_f=sigma_f, theta=theta)
    d = (np.asarray(x, dtype=float) - np.asarray(x2, dtype=float)) / theta
    return sigma_f**2 * np.exp(-0.5 * d * d)


def perturbation(x):
    """Tail perturbation delta(x), implemented exactly as defined.

    -1/3 * sin(pi (x - 0.2) / 0.6) on x <= 0.25, zero on the middle
    body, +1/3 * sin(pi (x - 0.2) / 0.6) on x >= 0.75.  The jump
    discontinuities at 0.25 and 0.75 are intentional.
    """
    x = np.asarray(x, dtype=float)
    s = np.sin(np.pi * (x - 0.2) / 0.6) / 3.0
    out = np.where(x <= 0.25, -s, np.where(x >= 0.75, s, 0.0))
    if out.ndim == 0:
        return float(out)
    return out


def _chol_with_jitter(k, sigma_f):
    jitter = _JITTER_START * sigma_f**2
    while True:
        try:
            return np.linalg.cholesky(k + jitter * np.eye(k.shape[0]))
        except np.linalg.LinAlgError:
            jitter *= 10.0
            if jitter > _JITTER_MAX * sigma_f**2:
                raise


def sample_gp_groups(cfg, rng):
    """One run's input points, latent curve, and two curve groups.

    The latent z(x) is shared between the groups, so with delta forced
    to zero the groups are exchangeable.  Noise is iid per curve and
    evaluation point.

    Returns ``(x, z, group1, group2)`` with groups of shape (N, n).
    """
    n = cfg.n_input_points
    x = np.sort(rng.uniform(0.0, 1.0, n))
    k = se_kernel(x[:, None], x[None, :], cfg.sigma_f, cfg.theta)
    chol = _chol_with_jitter(k, cfg.sigma_f)
    z = chol @ rng.standard_normal(n)
    delta = np.zeros(n) if cfg.null_model else perturbation(x)
    shape = (cfg.n_curves_per_group, n)
    group1 = z + rng.normal(0.0, cfg.sigma_eps, shape)
    group2 = z + delta + rng.normal(0.0, cfg.sigma_eps, shape)
    return x, z, group1, group2


def l2_distance_pct(mu1, mu2, x=None):
    """100 * ||mu1 - mu2|| / ||mu1||, L2 norms by the trapezoid rule over
    the sorted points x alone: [0, x_(1)] and [x_(n), 1] are skipped."""
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    norm1 = np.sqrt(np.trapezoid(mu1 * mu1, x=x))
    if norm1 == 0:
        raise ValueError("reference mean function has zero L2 norm")
    diff = mu1 - mu2
    return 100.0 * np.sqrt(np.trapezoid(diff * diff, x=x)) / norm1


def run_tail_tests(x, prev, curr, tau, perm_cfg):
    """Upper- and lower-tail mean tests on raw curve groups.

    The ``upper_tail`` and ``lower_tail`` families of the stage-pair
    decision, with the points x as the quantile grid.
    """
    grid = QuantileGrid(points=x, tau=tau)
    tails = (FAMILIES["upper_tail"], FAMILIES["lower_tail"])
    with shared_draws():
        return tuple(westfall_young(prev, curr, test, kind, perm_cfg, domain(grid))
                     for test, kind, _, domain in tails)


def estimate_type2(cfg):
    """Monte Carlo type II error of the two tail tests.

    Each tail is compared to cfg.alpha directly (no Bonferroni inside
    the simulation).  Run r draws its data from ``(cfg.seed, r)`` and
    the relabelings of both tails from ``(cfg.perm.seed, r)``.  A run
    whose points leave a tail empty is skipped, and the rates and L2%
    are taken over the ``runs_used`` tested runs.  Run r draws the same
    input points and latent curve for every group count, but not the
    same noise: group 2's noise starts after group 1's N*n draws.
    Estimates at different N under one seed are therefore not paired;
    compare them as independent estimates, each with its own Monte
    Carlo error.  L2% is integrated over each run's sorted random points
    (``l2_distance_pct``), not [0, 1], so it reads about 0.14 below the
    [0, 1] integral at the defaults (2.79 against 2.92).
    """
    tested = []  # (upper tail missed, lower tail missed, L2%) of each tested run
    for run in range(cfg.runs):
        run_rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(run,))))
        x, z, group1, group2 = sample_gp_groups(cfg, run_rng)
        perm_seed = np.random.SeedSequence(entropy=cfg.perm.seed, spawn_key=(run,))
        perm_cfg = replace(cfg.perm, seed=int(perm_seed.generate_state(1, np.uint64)[0]))
        try:
            upper, lower = run_tail_tests(x, group2, group1, cfg.tau, perm_cfg)
        except EmptyTailError:
            continue
        delta = np.zeros_like(x) if cfg.null_model else perturbation(x)
        tested.append((upper.corrected_p > cfg.alpha, lower.corrected_p > cfg.alpha,
                       l2_distance_pct(z, z + delta, x=x)))
    if not tested:
        raise ValueError(f"no run's {cfg.n_input_points} points reach both tails of "
                         f"tau = {cfg.tau}: raise n_input_points")
    miss_upper, miss_lower, l2 = (sum(col) / len(tested) for col in zip(*tested))
    return SimResult(type2_upper=miss_upper, type2_lower=miss_lower, avg_l2_pct=l2,
                     runs_used=len(tested))
