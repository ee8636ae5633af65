"""bacdetect benchmark: time-to-verdict end to end, and each layer when traced.

Run from the root of a checkout:

    python3 bench/run.py --workload raw_scans --seed 1 --seconds 25 --trace 0

Workloads (inputs are generated from ``--seed`` before timing starts; see
``workloads.py``): ``raw_scans``, ``decide_curves``, ``type2_sim``.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs untraced for half of ``--seconds`` and traced for the
other half, writes the spans to ``.bench_out/spans-<workload>-<seed>.json``,
runs ``decide_curves`` once more with BLAS pinned to one thread, and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes its result and environment
to ``.bench_out/result-<workload>-<seed>-trace<0|1>.json``.

bacdetect is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 3
# two same-seed operations are needed for the byte-identity check
MIN_OPS = 2

END_TO_END = {"setup_s": "s", "op_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MB"}
EXTRA_LAYER = {"trace.overhead_s": "s", "baseline.decide_curves_blas1_s": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("raw_scans", "decide_curves", "type2_sim"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="input size; 'small' is for the smoke test")
    p.add_argument("--blas-threads", type=int, default=0,
                   help="BLAS threads, capped at nproc (default: nproc)")
    p.add_argument("--no-setup", action="store_true",
                   help="skip the setup_s measurement (used by the "
                        "single-thread baseline run)")
    return p.parse_args(argv)


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas(requested):
    """Pin BLAS threads in this process's environment before numpy loads."""
    threads = min(requested or nproc(), nproc())
    for var in BLAS_ENV:
        os.environ[var] = str(threads)
    return threads


def environment(threads):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": nproc(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": threads, "src_lines": src_lines}


def child_env():
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def measure_setup():
    """Median wall time of a fresh interpreter importing bacdetect.cli
    and making its first call."""
    cmd = [sys.executable, "-c", "import bacdetect.cli as c; c.build_parser()"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_ops(workload, seconds, first_index, tracer=None):
    """Run operations until ``seconds`` have passed (at least MIN_OPS)."""
    walls, cpus, failures = [], [], []
    start = time.perf_counter()
    index = first_index
    while len(walls) < MIN_OPS or time.perf_counter() - start < seconds:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                ok, detail = workload.op(index)
            else:
                tracer.op = index
                (ok, detail), _ = tracer.call("op", workload.op, index)
        except Exception:
            ok, detail = False, traceback.format_exc(limit=4)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if not ok:
            failures.append(f"op {index}: {detail}")
        index += 1
    if tracer is not None:
        tracer.op = None
    return walls, cpus, failures


def blas1_baseline(args):
    """Median seconds per decide_curves decide with BLAS pinned to 1 thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", "decide_curves", "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--blas-threads", "1",
           "--no-setup"]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError("single-thread decide_curves run was not correct")
    return result["metrics"]["op_s"]["value"]


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary_lines(workload, walls, cpus, metrics, attempted, failed):
    """Human-readable lines, using the names of the metrics per workload."""
    lines = []
    n = len(walls)
    if workload.op_label == "decide":
        lines.append(f"decide_s {statistics.median(walls):.4f} s "
                     f"(median of {n} decides)")
        lines.append(f"decide_cpu_s {statistics.median(cpus):.4f} s")
    else:
        lines.append(f"sim_replicate_ms {1e3 * statistics.median(walls):.3f} ms "
                     f"(median of {n} replicates)")
        if n >= 100:
            lines.append(f"sim_replicate_ms_p90 {1e3 * percentile(walls, 90):.3f}"
                         f" ms ({n - int(0.9 * n)} replicates beyond it)")
        lines.append("type2_rates " + json.dumps(workload.rates()))
    lines.append(f"fail_frac {failed / attempted:.4f} fraction "
                 f"({failed} of {attempted})")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bacdetect" / "__init__.py").is_file():
        print(f"error: no bacdetect sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas(args.blas_threads)
    sys.path.insert(0, str(SRC))

    import spans as tracing
    import workloads

    from bacdetect import calibration, cli, decision, simulation, statcore

    env = environment(threads)
    setup_s = None if args.no_setup else measure_setup()
    size = workloads.FULL if args.size == "full" else workloads.SMALL
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, size, workdir)
    tracer = None
    try:
        workload.prepare()
        phase = args.seconds / 2 if args.trace else args.seconds
        walls, cpus, failures = run_ops(workload, phase, 0)
        t_walls = []
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install({"cli": cli, "calibration": calibration,
                            "decision": decision, "simulation": simulation,
                            "statcore": statcore})
            try:
                t_walls, _, t_failures = run_ops(workload, phase, len(walls),
                                                 tracer)
            finally:
                tracer.restore()
            failures += t_failures
        errors = workload.finish()
    finally:
        workload.cleanup()

    if args.trace:
        values = tracing.layer_metrics(tracer)
        values["trace.overhead_s"] = (statistics.median(t_walls)
                                      - statistics.median(walls))
        try:
            values["baseline.decide_curves_blas1_s"] = blas1_baseline(args)
        except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
            errors.append(f"single-thread baseline failed: {exc}")
            values["baseline.decide_curves_blas1_s"] = 0.0
        units = {**tracing.LAYER_METRICS, **EXTRA_LAYER}
    else:
        values = {"setup_s": setup_s, "op_s": statistics.median(walls),
                  "op_cpu_s": statistics.median(cpus),
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = {k: u for k, u in END_TO_END.items() if values[k] is not None}
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    attempted = len(walls) + len(t_walls)
    failed = attempted if errors else len(failures)
    result = {"correct": not failures and not errors, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "size": args.size, "env": env}
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json", header)
    record = {**header, "trace": args.trace, "setup_s": setup_s,
              "op_walls_s": walls, "traced_op_walls_s": t_walls,
              "failures": failures, "errors": errors, "result": result}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(env))
    for line in failures + errors:
        print("FAILED " + line.strip().replace("\n", " | "))
    for line in summary_lines(workload, walls, cpus, metrics, attempted, failed):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
