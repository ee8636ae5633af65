"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Criterion 3 checks that the type II study computes the type II errors of
its stated recipe, and that power does not fall as the group count grows.
At N=9 and N=15 each run's corrected p's must agree with an independent
Westfall-Young maxP oracle built on scipy's Welch t-test, run on the same
draws; the type II rates must agree with the oracle's; the two tails'
rates must agree with each other, as the recipe's reflection symmetry
requires; and the average L2% at N=9 must agree with a fine-grid GP
oracle.  The paper's reference table is printed beside these results but
not checked, because the recipe behind it is not in the repository.

Set BACDETECT_FULL_ACCEPTANCE=1 to run the simulation study and its
oracles at 1000 runs instead of the 200-run smoke variant.  The
tolerances are derived from the same standard errors at that run count;
none is widened.
"""

import json
import os
import time
from math import comb

import numpy as np
import pytest

from bacdetect import simulation
from bacdetect.calibration import fit_sphere
from bacdetect.cli import main
from bacdetect.decision import (
    OVERALL_DETECTED,
    OVERALL_MARGINAL,
    OVERALL_NONE,
    combine_families,
)
from bacdetect.permutation import PermutationConfig, PointwiseTest, westfall_young
from bacdetect.roughness import compute_sa
from bacdetect.simulation import (
    SimConfig,
    estimate_type2,
    run_tail_tests,
    sample_gp_groups,
)
from bacdetect.statcore import f_sf, student_t_sf
from bacdetect.surface_io import HeightMatrix
from conftest import rough_stage, write_stage_dir
from test_calibration import random_sphere_points
from test_simulation import l2_pct_oracle, tail_maxp_oracle
from test_statcore import f_sf_oracle, t_sf_oracle

FULL_SCALE = os.environ.get("BACDETECT_FULL_ACCEPTANCE") == "1"

KINDS = ("minP", "maxP", "medP")


def _report(number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {number}: {verdict} - {detail}")
    assert ok, detail


def test_criterion_1_exhaustive_oracle_equivalence():
    rng = np.random.default_rng(1001)
    g1 = rng.standard_normal((4, 50))
    g2 = rng.standard_normal((4, 50)) + 0.5
    sampled_cfg = PermutationConfig(n_permutations=50_000, seed=77)
    exact_cfg = PermutationConfig(n_permutations=1, exhaustive=True)
    tests = {
        "t": PointwiseTest(kind="mean", direction="greater"),
        "F": PointwiseTest(kind="variance"),
    }
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for label, test in tests.items():
        for kind in KINDS:
            exact = westfall_young(g1, g2, test, kind, exact_cfg)
            sampled = westfall_young(g1, g2, test, kind, sampled_cfg)
            assert exact.n_used == comb(8, 4)
            gap = abs(exact.corrected_p - sampled.corrected_p)
            worst = max(worst, gap)
            ok &= gap <= 0.02
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(1, ok, f"max |sampled - exhaustive| = {worst:.4f} (<= 0.02), "
                   f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_2_fwer_control():
    reps = 500
    cfg = SimConfig(n_curves_per_group=9, n_input_points=200, runs=1,
                    null_model=True)
    test = PointwiseTest(kind="mean", direction="greater")
    hits = dict.fromkeys(KINDS, 0)
    for r in range(reps):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=2024, spawn_key=(r,))))
        _, _, g1, g2 = sample_gp_groups(cfg, rng)
        # one cfg for every kind: the same relabelings rank each reduction
        perm = PermutationConfig(n_permutations=2000, seed=r)
        for kind in KINDS:
            hits[kind] += westfall_young(g1, g2, test, kind, perm).corrected_p <= 0.05
    bound = 0.05 + 3 * np.sqrt(0.05 * 0.95 / reps)
    rates = {k: hits[k] / reps for k in KINDS}
    ok = all(rate <= bound for rate in rates.values())
    detail = ", ".join(f"{k}={rates[k]:.3f}" for k in KINDS)
    _report(2, ok, f"null rejection rates {detail} (all <= {bound:.3f})")


def _sim_config(n, runs, seed=17041):
    return SimConfig(n_curves_per_group=n, runs=runs, seed=seed,
                     perm=PermutationConfig(n_permutations=2000, seed=seed))


# the paper's table as (upper, lower, L2%) per group count; the recipe
# behind it is not in the repository, so it is printed, not checked
PAPER_TYPE2 = {9: (0.156, 0.272, 3.54), 15: (0.091, 0.174, None)}

# scipy's Welch t-test costs about twice the engine per relabeling; half
# the engine's count keeps criterion 3 within twice the study's wall time
ORACLE_RELABELINGS = 1000


def _rates(upper, lower, l2_pct=None):
    l2 = "" if l2_pct is None else f", L2%={l2_pct:.2f}"
    return f"({upper:.3f}, {lower:.3f}{l2})"


def _oracle_tails(cfg, draws, program_p):
    """Oracle type II rates and per-run agreement of the corrected p's.

    ``draws`` and ``program_p`` are the runs' (x, z, group1, group2) and
    the (upper, lower) corrected p's that estimate_type2 produced.
    """
    n, n_oracle = cfg.perm.n_permutations, ORACLE_RELABELINGS
    oracle_p = np.empty_like(program_p)
    for run, (x, _, group1, group2) in enumerate(draws):
        rng = np.random.default_rng([271828, run])
        # group 2 carries delta: it is the earlier, rougher stage
        oracle_p[run] = (
            tail_maxp_oracle(group2, group1, x <= cfg.tau, "greater",
                             n_oracle, rng),
            tail_maxp_oracle(group2, group1, x >= 1.0 - cfg.tau, "less",
                             n_oracle, rng),
        )
    p_bar = (program_p + oracle_p) / 2
    # 4 standard errors of the difference of the two independent
    # relabeling estimates, plus 1/n for the engine's floor of one count
    se = np.sqrt(p_bar * (1 - p_bar) * (1.0 / n + 1.0 / n_oracle))
    tol = 4 * se + 1.0 / n
    agree = np.abs(program_p - oracle_p) <= tol
    return (oracle_p > cfg.alpha).mean(axis=0), agree


def test_criterion_3_simulated_type2_errors(monkeypatch):
    runs = 1000 if FULL_SCALE else 200
    draws, program_p = [], []

    def record_draws(cfg, rng):
        out = sample_gp_groups(cfg, rng)
        draws.append(out)
        return out

    def record_p(*args):
        upper, lower = run_tail_tests(*args)
        program_p.append((upper.corrected_p, lower.corrected_p))
        return upper, lower

    monkeypatch.setattr(simulation, "sample_gp_groups", record_draws)
    monkeypatch.setattr(simulation, "run_tail_tests", record_p)
    ns = (6, 9, 12, 15)
    results, oracle = {}, {}
    for n in ns:
        draws.clear()
        program_p.clear()
        cfg = _sim_config(n, runs)
        results[n] = estimate_type2(cfg)
        if n in PAPER_TYPE2:
            oracle[n] = _oracle_tails(cfg, draws, np.array(program_p))
    l2_oracle = l2_pct_oracle(cfg.sigma_f, cfg.theta)

    checks = {"avg_l2_pct(9)": abs(results[9].avg_l2_pct - l2_oracle) <= 0.4}
    lines = []
    for n, paper in PAPER_TYPE2.items():
        r = results[n]
        rates, agree = oracle[n]
        checks[f"per-run p({n})"] = bool(agree.all())
        checks[f"type2_upper({n})"] = abs(r.type2_upper - rates[0]) <= 0.03
        checks[f"type2_lower({n})"] = abs(r.type2_lower - rates[1]) <= 0.03
        # reflecting x -> 1 - x maps one tail test onto the other
        se = np.sqrt((r.type2_upper * (1 - r.type2_upper)
                      + r.type2_lower * (1 - r.type2_lower)) / runs)
        checks[f"tail symmetry({n})"] = (
            abs(r.type2_upper - r.type2_lower) <= 3 * se)
        l2 = (r.avg_l2_pct, l2_oracle) if n == 9 else (None, None)
        lines.append(
            f"N={n}: measured {_rates(r.type2_upper, r.type2_lower, l2[0])}, "
            f"oracle {_rates(*rates, l2[1])}, "
            f"paper reference, not reproduced {_rates(*paper)}; "
            f"per-run p within 4 SE of oracle: {int(agree.sum())}/{agree.size}")
    slack = 0.05  # Monte Carlo slack on the monotone non-increase
    for a, b in zip(ns, ns[1:]):
        checks[f"monotone upper {a}->{b}"] = (
            results[b].type2_upper <= results[a].type2_upper + slack)
        checks[f"monotone lower {a}->{b}"] = (
            results[b].type2_lower <= results[a].type2_lower + slack)
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(3, ok, f"{'; '.join(lines)}; runs={runs}; "
                   f"failed checks: {failed or 'none'}")


def test_criterion_4_simulated_type1_control():
    runs = 1000
    res = estimate_type2(SimConfig(
        n_curves_per_group=9, runs=runs, seed=40404, null_model=True,
        perm=PermutationConfig(n_permutations=2000, seed=40404)))
    rate_upper = 1.0 - res.type2_upper
    rate_lower = 1.0 - res.type2_lower
    bound = 0.03 + 3 * np.sqrt(0.03 * 0.97 / runs)
    ok = rate_upper <= bound and rate_lower <= bound
    _report(4, ok, f"null rejection rates upper={rate_upper:.3f}, "
                   f"lower={rate_lower:.3f} (<= {bound:.3f})")


def test_criterion_5_sphere_fit_recovery():
    rng = np.random.default_rng(55)
    center = np.array([1.0, 2.0, 3.0])
    radius = 1688.0
    exact = fit_sphere(random_sphere_points(rng, 1000, center, radius))
    err_c = np.linalg.norm(np.array(exact.center) - center) / radius
    err_r = abs(exact.radius - radius) / radius
    noisy = fit_sphere(random_sphere_points(rng, 100_000, center, radius,
                                            noise=0.01))
    err_noisy = abs(noisy.radius - radius) / radius
    ok = err_c <= 1e-9 and err_r <= 1e-9 and err_noisy <= 1e-4
    _report(5, ok, f"exact rel errors center={err_c:.2e}, radius={err_r:.2e} "
                   f"(<= 1e-9); noisy radius rel error {err_noisy:.2e} (<= 1e-4)")


def test_criterion_6_sa_analytic_cases():
    rng = np.random.default_rng(66)
    two_level = np.concatenate([np.full(8, 1.5), np.full(8, -1.5)]).reshape(4, 4)
    z = rng.standard_normal((15, 20))
    checks = {
        "constant": abs(compute_sa(HeightMatrix(z=np.full((6, 6), 2.0)))) <= 1e-12,
        "two-level": abs(compute_sa(HeightMatrix(z=two_level)) - 1.5) <= 1e-12,
        "1..9": abs(compute_sa(HeightMatrix(z=np.arange(1.0, 10.0).reshape(3, 3)))
                    - 20 / 9) <= 1e-12,
        "translation": abs(compute_sa(HeightMatrix(z=z + 11.0))
                           - compute_sa(HeightMatrix(z=z))) <= 1e-12,
        "homogeneity": abs(compute_sa(HeightMatrix(z=-3.0 * z))
                           - 3.0 * compute_sa(HeightMatrix(z=z))) <= 1e-12,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(6, ok, f"analytic Sa cases and invariances to 1e-12; "
                   f"failed: {failed or 'none'}")


def test_criterion_7_distribution_primitives():
    exact_ok = all(abs(student_t_sf(0.0, df) - 0.5) <= 1e-12
                   for df in (1, 3, 10, 50))
    exact_ok &= all(abs(f_sf(1.0, d, d) - 0.5) <= 1e-12 for d in (2, 8, 20))
    t_spot = student_t_sf(2.0, 10)
    f_spot = f_sf(3.0, 8, 8)
    t_gap = abs(t_spot - t_sf_oracle(2.0, 10))
    f_gap = abs(f_spot - f_sf_oracle(3.0, 8, 8))
    ok = exact_ok and t_gap <= 1e-5 and f_gap <= 1e-5
    _report(7, ok, f"symmetry points exact to 1e-12: {exact_ok}; "
                   f"t_sf(2,10)={t_spot:.6f} (|err|={t_gap:.1e}), "
                   f"f_sf(3,8,8)={f_spot:.6f} (|err|={f_gap:.1e}) vs quadrature")


def test_criterion_8_decision_logic_and_end_to_end(tmp_path):
    high = 0.8
    banding_ok = (
        combine_families(0.02, high, high, 0.1) == OVERALL_DETECTED
        and combine_families(0.04, high, high, 0.1) == OVERALL_MARGINAL
        and combine_families(high, 0.02, high, 0.1) == OVERALL_DETECTED
        and combine_families(high, high, 0.04, 0.1) == OVERALL_MARGINAL
        and combine_families(high, high, high, 0.1) == OVERALL_NONE
    )
    rng = np.random.default_rng(88)
    prev = write_stage_dir(tmp_path, "stage1",
                           rough_stage(rng, "stage1", n_loc=8, scale=1.0))
    curr = write_stage_dir(tmp_path, "stage2",
                           rough_stage(rng, "stage2", n_loc=8, scale=0.2))
    out = tmp_path / "report.json"
    args = ["decide", str(prev), str(curr), "--no-calibrate", "--grid-size",
            "200", "--permutations", "2000", "--seed", "17041",
            "--out", str(out)]
    code_a = main(args)
    payload_a = json.loads(out.read_text())
    code_b = main(args)
    payload_b = json.loads(out.read_text())
    e2e_ok = (code_a == 0 and code_b == 0 and payload_a == payload_b
              and payload_a["overall"] == "improvement_detected")
    ok = banding_ok and e2e_ok
    _report(8, ok, f"banding rows: {banding_ok}; end-to-end pipeline exit 0, "
                   f"deterministic report, overall={payload_a['overall']}")
