"""Command-line front end: ingest, calibrate, test, report, simulate.

A command that reads a stage checks it with ``open_stage``, then reads,
cleans and calibrates one location at a time (``_read``) and reduces it, to
its curve, its Sa or a written file, before it reads the next.

Exit codes of ``decide`` are machine-readable so shop-floor scripts can
branch without parsing the report: 0 = improvement detected, 10 =
marginal, 20 = no improvement, 101 = error.  A usage error (an unknown
flag, or a value argparse cannot convert, such as ``--seed foo``) exits
2 before any work is done.
"""

from __future__ import annotations

import argparse
import json
import secrets
import shutil
import sys
import tempfile
from math import comb
from pathlib import Path

import numpy as np

from . import __version__, statcore
from .calibration import CalibrationError, calibrate_location
from .decision import (
    OVERALL_DETECTED,
    OVERALL_MARGINAL,
    DecisionConfig,
    decide,
)
from .permutation import PermutationConfig
from .roughness import StageSample, compute_sa, default_grid, evaluate_on_grid, extract_bac
from .simulation import SimConfig, estimate_type2
from .surface_io import SurfaceDataError, load_report, open_stage, save_report

# no command calls these three; bench/spans.py times them under their cli
# names, so they stay importable from here
from .calibration import calibrate_stage  # noqa: F401
from .roughness import build_stage_sample  # noqa: F401
from .surface_io import load_stage  # noqa: F401

DEFAULT_SEED = 17041

EXIT_DETECTED = 0
EXIT_MARGINAL = 10
EXIT_NONE = 20
EXIT_ERROR = 101


def _seed_type(value):
    if value == "random":
        return secrets.randbits(32)
    return int(value)


def _add_common_grid_flags(p):
    p.add_argument("--tau", type=float, default=0.25,
                   help="quantile cut-off for the tails (default: 0.25)")
    p.add_argument("--grid-size", type=int, default=1000, metavar="M",
                   help="number of quantile grid points (default: 1000)")
    p.add_argument("--s-max", type=float, default=0.998,
                   help="last grid quantile; excludes extreme-depth valley "
                        "pixels (default: 0.998)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bacdetect",
        description="Detect surface-quality change between finishing stages "
                    "by permutation tests on bearing area curves.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="remove the surface baseline and "
                                         "write calibrated matrices")
    p.add_argument("stage_dir", help="stage directory or manifest")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("sa", help="per-location Sa table and the stage median")
    p.add_argument("stage_dir")
    p.add_argument("--no-calibrate", action="store_true",
                   help="treat input matrices as already calibrated")
    p.add_argument("--out", help="write the table to this file")

    p = sub.add_parser("bac", help="grid-evaluated BAC summary columns for plotting")
    p.add_argument("stage_dir")
    _add_common_grid_flags(p)
    p.add_argument("--no-calibrate", action="store_true",
                   help="treat input matrices as already calibrated")
    p.add_argument("--confidence", type=float, default=0.967,
                   help="pointwise confidence level of the bands (default: 0.967)")
    p.add_argument("--out", help="write the columns to this file")

    p = sub.add_parser("decide", help="run the three-family change detection "
                                      "on two consecutive stages")
    p.add_argument("prev_dir", help="earlier stage directory or manifest")
    p.add_argument("curr_dir", help="later stage directory or manifest")
    _add_common_grid_flags(p)
    p.add_argument("--alpha", type=float, default=0.1,
                   help="overall significance level (default: 0.1)")
    p.add_argument("--permutations", type=int, default=50_000, metavar="N",
                   help="relabelings per family at most; all C(J1+J2, J1) are "
                        "enumerated when there are no more (default: 50000)")
    p.add_argument("--seed", type=_seed_type, default=DEFAULT_SEED,
                   help="integer seed, or 'random' (default: %(default)s)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--welch", dest="pooled", action="store_false", default=False,
                   help="unequal-variance t statistic (default)")
    g.add_argument("--pooled", dest="pooled", action="store_true",
                   help="pooled-variance t statistic")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--marginal-continues", dest="marginal_continues",
                   action="store_true", default=True,
                   help="marginal detection still recommends continuing (default)")
    g.add_argument("--strict", dest="marginal_continues", action="store_false",
                   help="only full significance recommends continuing")
    p.add_argument("--finest-tool", action="store_true",
                   help="current tool is the finest: no-improvement means stop")
    p.add_argument("--no-calibrate", action="store_true",
                   help="treat input matrices as already calibrated")
    p.add_argument("--out", help="report file (default: report.json)")

    p = sub.add_parser("simulate", help="GP curve simulation estimating the "
                                        "tail tests' type II errors")
    p.add_argument("--n", type=int, nargs="+", default=[9],
                   help="curves per group, one table row each (default: 9)")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--input-points", type=int, default=100)
    p.add_argument("--sigma-f", type=float, default=5.0)
    p.add_argument("--theta", type=float, default=0.2)
    p.add_argument("--sigma-eps", type=float, default=0.5)
    p.add_argument("--tau", type=float, default=0.25)
    p.add_argument("--alpha", type=float, default=0.03,
                   help="per-tail significance level (default: 0.03)")
    p.add_argument("--permutations", type=int, default=2000, metavar="N")
    p.add_argument("--null", action="store_true",
                   help="drop the perturbation to measure the type I error")
    p.add_argument("--seed", type=_seed_type, default=DEFAULT_SEED)
    p.add_argument("--out", help="write results as JSON")

    p = sub.add_parser("report", help="pretty-print a saved decision report")
    p.add_argument("report_file")

    return parser


def _read(stage, path, skip):
    """One location's cleaned scan, calibrated in place unless ``skip``.

    Callers reduce it in the expression that reads it: a name bound to it
    would hold it while the next file is read.
    """
    m = stage.read(path)
    return m if skip else calibrate_location(m)


def _curves(stage, grid, skip):
    """A stage's (J, m) curves; each scan is freed once it is sorted."""
    return np.array([evaluate_on_grid(extract_bac(_read(stage, f, skip)), grid)
                     for f in stage.files])


def _out_path(out, what):
    """``out`` as a Path, or None if not given; checked before any work."""
    if not out:
        return None
    out = Path(out)
    if not out.parent.is_dir():
        raise SurfaceDataError(f"cannot write {what} to {out}: "
                               f"no directory {out.parent}")
    if out.is_dir():
        raise SurfaceDataError(f"cannot write {what} to {out}: it is a directory")
    return out


def _emit(text, out):
    if out:
        out.write_text(text)
    else:
        sys.stdout.write(text)


def cmd_calibrate(args):
    out = Path(args.out)
    # made before any scan is read, so an --out that cannot be made fails
    # at once
    made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    # each scan is written as soon as it is calibrated, into a fresh
    # directory in --out, and moved to its name once every scan is; a
    # failed stage removes that directory and those made for --out, so it
    # writes nothing and replaces no file
    tmp = Path(tempfile.mkdtemp(prefix=".bacdetect-", dir=out))
    try:
        stage = open_stage(args.stage_dir)
        # a directory in the way would fail its move after earlier files
        # were replaced, so every name is checked before any scan is read
        for f in stage.files:
            _out_path(out / f"{f.stem}.csv", "a calibrated matrix")
        for f in stage.files:
            np.savetxt(tmp / f"{f.stem}.csv", _read(stage, f, False).z, delimiter=",")
        for f in stage.files:
            (tmp / f"{f.stem}.csv").replace(out / f"{f.stem}.csv")
    except BaseException:
        shutil.rmtree(tmp)
        for p in made:
            p.rmdir()
        raise
    tmp.rmdir()
    print(f"wrote {len(stage.files)} calibrated matrices to {out}")
    return 0


def cmd_sa(args):
    out = _out_path(args.out, "table")
    stage = open_stage(args.stage_dir)
    sas = [compute_sa(_read(stage, f, args.no_calibrate)) for f in stage.files]
    lines = ["location\tsa_um"]
    lines += [f"{f.stem}\t{sa:.6g}" for f, sa in zip(stage.files, sas)]
    # the median of the stage's Sa values is its Sa benchmark
    lines.append(f"median\t{float(np.median(sas)):.6g}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_bac(args):
    if not (0 < args.confidence < 1):
        raise ValueError("confidence must lie in (0, 1)")
    grid = default_grid(m=args.grid_size, s_max=args.s_max, tau=args.tau)
    out = _out_path(args.out, "columns")
    curves = _curves(open_stage(args.stage_dir), grid, args.no_calibrate)
    mean = curves.mean(axis=0)
    var = curves.var(axis=0, ddof=1)
    j = curves.shape[0]
    half = statcore.student_t_isf(0.5 - args.confidence / 2.0, j - 1) * np.sqrt(var / j)
    lines = ["s\tmean\tvariance\tband_lower\tband_upper"]
    for k in range(grid.m):
        lines.append(f"{grid.points[k]:.6g}\t{mean[k]:.6g}\t{var[k]:.6g}"
                     f"\t{mean[k] - half[k]:.6g}\t{mean[k] + half[k]:.6g}")
    _emit("\n".join(lines) + "\n", out)
    return 0


def cmd_decide(args):
    # settings are checked before any stage is read
    grid = default_grid(m=args.grid_size, s_max=args.s_max, tau=args.tau)
    cfg = DecisionConfig(
        alpha=args.alpha,
        perm=PermutationConfig(n_permutations=args.permutations, seed=args.seed),
        grid=grid,
        pooled=args.pooled,
        marginal_continues=args.marginal_continues,
        finest_tool=args.finest_tool,
    )
    out = _out_path(args.out or "report.json", "report")
    # both stages are checked before any scan is read
    stages = open_stage(args.prev_dir), open_stage(args.curr_dir)
    prev, curr = (StageSample(curves=_curves(s, grid, args.no_calibrate), grid=grid,
                              stage_id=s.stage_id) for s in stages)
    # the exact test costs no more wherever every labeling fits the budget
    j1 = len(prev.curves)
    cfg.perm.exhaustive = comb(j1 + len(curr.curves), j1) <= args.permutations
    record = decide(prev, curr, cfg)
    save_report(record, out)
    print(_format_record(record))
    if record.overall == OVERALL_DETECTED:
        return EXIT_DETECTED
    if record.overall == OVERALL_MARGINAL:
        return EXIT_MARGINAL
    return EXIT_NONE


def cmd_simulate(args):
    # every row's configuration is checked before anything is printed
    configs = [SimConfig(
        n_curves_per_group=n,
        n_input_points=args.input_points,
        sigma_f=args.sigma_f,
        theta=args.theta,
        sigma_eps=args.sigma_eps,
        tau=args.tau,
        alpha=args.alpha,
        runs=args.runs,
        perm=PermutationConfig(n_permutations=args.permutations, seed=args.seed),
        seed=args.seed,
        null_model=args.null,
    ) for n in args.n]
    out = _out_path(args.out, "results")
    rows = []
    for cfg in configs:
        n = cfg.n_curves_per_group
        res = estimate_type2(cfg)
        # the header goes out with the first row, so a failed run prints nothing
        if not rows:
            print(f"{'N':>4}  {'avg_L2_pct':>10}  {'type2_upper':>11}  {'type2_lower':>11}"
                  f"  {'runs':>6}")
        rows.append({"n_curves": n, "avg_l2_pct": res.avg_l2_pct,
                     "type2_upper": res.type2_upper,
                     "type2_lower": res.type2_lower, "runs": res.runs_used})
        print(f"{n:>4}  {res.avg_l2_pct:>10.2f}  {res.type2_upper:>11.3f}  "
              f"{res.type2_lower:>11.3f}  {res.runs_used:>6}")
    if out:
        payload = {"schema": "bacdetect-simulation-v1", "alpha": args.alpha,
                   "tau": args.tau, "permutations": args.permutations,
                   "seed": args.seed, "null_model": args.null, "rows": rows}
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_report(args):
    record = load_report(args.report_file)
    print(_format_record(record))
    return 0


def _format_record(record):
    lines = [f"{record.stage_prev} vs. {record.stage_curr}"]
    for name, outcome in record.families.items():
        r = outcome.result
        lines.append(f"  {name:<10} {r.stat_kind:<5} p={r.corrected_p:<10.6g} "
                     f"{outcome.verdict}")
    lines.append(f"  overall: {record.overall}")
    lines.append(f"  recommendation: {record.recommendation}")
    return "\n".join(lines)


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "sa": cmd_sa,
    "bac": cmd_bac,
    "decide": cmd_decide,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SurfaceDataError, CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
