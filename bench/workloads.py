"""Seeded inputs, the timed operation and the correctness checks of each workload.

Every workload is built from ``--seed`` before timing starts and plants a
known truth, so each operation's output can be checked:

- ``raw_scans``: ``bacdetect decide`` through ``cli.main`` on two directories
  of raw sphere-cap CSV scans.  The later stage has lower peaks, raised
  valleys and less spread between locations, so the expected exit code is 0
  with the verdicts lowered / raised / reduced.
- ``decide_curves``: ``decision.decide`` on in-memory stage samples of
  unequal size.  The later stage has lower peaks, valleys that are not raised
  (slightly deeper) and less spread.
- ``type2_sim``: one ``simulation.estimate_type2`` replicate per operation;
  the run's type II rates must fall in a binomial band around the rates
  measured at the commit that introduced this benchmark.

Modules of ``bacdetect`` are looked up through their module objects at call
time (``cli.main``, ``decision.decide``, ...), so the tracer in ``spans.py``
sees every call it wraps.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

# full-size parameters; SMALL replaces them for the smoke test
FULL = {
    "raw_locations": 8,
    "raw_rows": 480,
    "raw_cols": 640,
    "raw_pitch_scale": 1,
    "raw_permutations": 2000,
    "grid_m": 1000,
    "curves_j": (15, 10),
    "curves_permutations": 5000,
    "sim_n": 9,
    "sim_points": 100,
    "sim_permutations": 2000,
}
SMALL = {
    "raw_locations": 6,
    "raw_rows": 60,
    "raw_cols": 80,
    "raw_pitch_scale": 8,  # the same physical field as the full-size scans
    "raw_permutations": 200,
    "grid_m": 200,
    "curves_j": (8, 6),
    "curves_permutations": 300,
    "sim_n": 9,
    "sim_points": 100,
    "sim_permutations": 200,
}

ALPHA = 0.1
# the instrument's pixel pitch (micrometres) and a ball whose raw heights
# sit near 1,700 um, as on the shop floor
DX_UM, DY_UM = 0.359, 0.369
RADIUS_UM = 1688.0
NAN_PIXELS = 20  # per scan, well under surface_io's 1% corrupt-scan limit

# Type II rates of the two tail tests at N=9, 100 input points, 2,000
# permutations, alpha=0.03, measured over 4,000 replicates of this
# benchmark's seed scheme at the commit that introduced it.
SIM_REFERENCE = {"type2_upper": 0.8705, "type2_lower": 0.8765}
# band = 3.5 binomial standard errors plus an absolute slack that absorbs a
# (b+1)/(n+1) permutation p-value and similar small level corrections
SIM_BAND_Z = 3.5
SIM_BAND_SLACK = 0.02
SIM_ALPHA = 0.03


def _texture(rng, rows, cols, sigma, corr_px=3.0):
    """Smooth Gaussian random field with standard deviation ``sigma``."""
    noise = rng.standard_normal((rows, cols))
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.rfftfreq(cols)[None, :]
    kernel = np.exp(-2.0 * (np.pi * corr_px) ** 2 * (fx * fx + fy * fy))
    field = np.fft.irfft2(np.fft.rfft2(noise) * kernel, s=(rows, cols))
    return sigma * field / field.std()


def _sphere_cap(rows, cols, dx, dy, center, radius):
    """Raw heights of a spherical cap seen from above (lower branch).

    The same construction as the test suite's ``sphere_cap`` helper.
    """
    xx, yy = np.meshgrid(np.arange(cols) * dx, np.arange(rows) * dy)
    xc, yc, zc = center
    return zc - np.sqrt(radius**2 - (xx - xc) ** 2 - (yy - yc) ** 2)


def _write_raw_stage(rng, directory, size, sigma_median, sigma_spread):
    """CSV scans of textured sphere caps plus a manifest with the pitch."""
    rows, cols = size["raw_rows"], size["raw_cols"]
    dx, dy = DX_UM * size["raw_pitch_scale"], DY_UM * size["raw_pitch_scale"]
    directory.mkdir(parents=True)
    files = []
    for i in range(size["raw_locations"]):
        center = (cols * dx / 2 + rng.uniform(-20, 20),
                  rows * dy / 2 + rng.uniform(-20, 20),
                  RADIUS_UM + 1700.0 + rng.uniform(-5, 5))
        sigma = sigma_median * math.exp(sigma_spread * rng.standard_normal())
        z = _sphere_cap(rows, cols, dx, dy, center, RADIUS_UM)
        z += _texture(rng, rows, cols, sigma)
        z.flat[rng.choice(z.size, NAN_PIXELS, replace=False)] = np.nan
        files.append(f"loc{i:02d}.csv")
        np.savetxt(directory / files[-1], z, fmt="%.5f", delimiter=",")
    manifest = {"stage_label": directory.name, "files": files,
                "dx_um": dx, "dy_um": dy}
    (directory / "manifest.json").write_text(json.dumps(manifest))


def _quantile_shape(grid_points):
    """Standard normal quantile at 1 - s: a textbook BAC shape."""
    from scipy.special import ndtri

    return ndtri(1.0 - (0.002 + 0.996 * grid_points))


def _stage_curves(rng, q, j, upper_scale, lower_scale, spread, offset_sd):
    """(j, m) BACs: per-location peak/valley scales, offsets, smooth wiggle."""
    m = q.size
    s = np.linspace(0.0, 1.0, m)
    scale = np.exp(spread * rng.standard_normal((j, 1)))
    shape = np.where(q > 0, upper_scale * q, lower_scale * q)
    wiggle = sum(rng.normal(0, 0.01, (j, 1)) * np.sin((k + 1) * np.pi * s)
                 for k in range(4))
    return scale * shape + rng.normal(0, offset_sd, (j, 1)) + wiggle


class Workload:
    """One workload: ``prepare`` builds inputs, ``op`` runs one timed operation.

    ``op`` returns ``(ok, detail)``: whether this operation's output is
    correct.  ``finish`` runs the run-level checks and returns a list of
    failure messages.
    """

    name = ""
    op_label = ""

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = size
        self.workdir = Path(workdir)

    def prepare(self):
        pass

    def op(self, index):
        raise NotImplementedError

    def finish(self):
        return []

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class RawScans(Workload):
    name = "raw_scans"
    op_label = "decide"
    expected = {"upper_tail": "lowered", "lower_tail": "raised",
                "variance": "reduced"}

    def prepare(self):
        from bacdetect import cli

        self.cli = cli
        rng = np.random.default_rng([self.seed, 1])
        self.prev = self.workdir / "stage_prev"
        self.curr = self.workdir / "stage_curr"
        _write_raw_stage(rng, self.prev, self.size, 0.40, 0.35)
        _write_raw_stage(rng, self.curr, self.size, 0.15, 0.12)
        self.first_report = None

    def op(self, index):
        out = self.workdir / f"report_{index}.json"
        argv = ["decide", str(self.prev), str(self.curr),
                "--grid-size", str(self.size["grid_m"]),
                "--permutations", str(self.size["raw_permutations"]),
                "--alpha", str(ALPHA), "--seed", str(self.seed),
                "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        if code != 0:
            return False, f"exit code {code}, expected 0"
        report = out.read_bytes()
        out.unlink()
        return _check_report(self, report)


class DecideCurves(Workload):
    name = "decide_curves"
    op_label = "decide"
    expected = {"upper_tail": "lowered", "lower_tail": "not_raised",
                "variance": "reduced"}

    def prepare(self):
        from bacdetect import decision, permutation, roughness

        self.decision = decision
        rng = np.random.default_rng([self.seed, 2])
        grid = roughness.default_grid(m=self.size["grid_m"])
        q = _quantile_shape(grid.points)
        j_prev, j_curr = self.size["curves_j"]
        self.prev = roughness.StageSample(
            curves=_stage_curves(rng, q, j_prev, 1.0, 1.0, 0.30, 0.10),
            grid=grid, stage_id="prev")
        self.curr = roughness.StageSample(
            curves=_stage_curves(rng, q, j_curr, 0.5, 1.15, 0.08, 0.03),
            grid=grid, stage_id="curr")
        self.cfg = decision.DecisionConfig(
            grid=grid, alpha=ALPHA,
            perm=permutation.PermutationConfig(
                n_permutations=self.size["curves_permutations"], seed=self.seed))
        self.first_report = None

    def op(self, index):
        record = self.decision.decide(self.prev, self.curr, self.cfg)
        report = json.dumps(record.to_dict(), indent=2, sort_keys=True).encode()
        return _check_report(self, report)


def _check_report(workload, report):
    """Planted verdicts, and byte-identity with the run's first report."""
    payload = json.loads(report)
    verdicts = {k: v["verdict"] for k, v in payload["families"].items()}
    if verdicts != workload.expected:
        return False, f"verdicts {verdicts}, expected {workload.expected}"
    if payload["overall"] != "improvement_detected":
        return False, f"overall {payload['overall']}"
    if workload.first_report is None:
        workload.first_report = report
    elif report != workload.first_report:
        return False, "report differs from the first same-seed report"
    return True, ""


class Type2Sim(Workload):
    name = "type2_sim"
    op_label = "replicate"

    def prepare(self):
        from bacdetect import permutation, simulation

        self.simulation = simulation
        self.permutation = permutation
        self.misses = {"type2_upper": 0, "type2_lower": 0}
        self.replicates = 0
        self.first = None

    def _config(self, index):
        # one replicate per call: a distinct 32-bit seed per (run seed, index)
        seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0])
        return self.simulation.SimConfig(
            n_curves_per_group=self.size["sim_n"],
            n_input_points=self.size["sim_points"],
            alpha=SIM_ALPHA, runs=1, seed=seed,
            perm=self.permutation.PermutationConfig(
                n_permutations=self.size["sim_permutations"], seed=seed))

    def op(self, index):
        res = self.simulation.estimate_type2(self._config(index))
        ok = (res.runs_used == 1
              and res.type2_upper in (0.0, 1.0) and res.type2_lower in (0.0, 1.0)
              and math.isfinite(res.avg_l2_pct) and res.avg_l2_pct > 0)
        if not ok:
            return False, f"malformed replicate result {res}"
        if index == 0:
            self.first = res
        self.misses["type2_upper"] += int(res.type2_upper)
        self.misses["type2_lower"] += int(res.type2_lower)
        self.replicates += 1
        return True, ""

    def rates(self):
        return {k: v / self.replicates for k, v in self.misses.items()}

    def finish(self):
        errors = []
        if self.replicates == 0:
            return ["no replicate completed"]
        # a second same-seed replicate must reproduce the first exactly
        again = self.simulation.estimate_type2(self._config(0))
        if repr(again) != repr(self.first):
            errors.append("replicate 0 is not reproducible")
        for key, rate in self.rates().items():
            ref = SIM_REFERENCE[key]
            band = (SIM_BAND_Z * math.sqrt(ref * (1 - ref) / self.replicates)
                    + SIM_BAND_SLACK)
            if abs(rate - ref) > band:
                errors.append(f"{key} {rate:.4f} outside {ref} +- {band:.4f} "
                              f"over {self.replicates} replicates")
        return errors


WORKLOADS = {w.name: w for w in (RawScans, DecideCurves, Type2Sim)}
