"""Reduced-size smoke test of the benchmark.

    python3 bench/smoke.py

Runs every workload of ``BENCHMARK.json`` at the small input size, untraced
and traced, and checks that each run is correct and emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit; that the
human-readable lines name the per-workload end-to-end metrics (``decide_s``,
``sim_replicate_ms``, ...); and that in a directory without ``src/`` the
benchmark exits non-zero without printing a result.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# human-readable end-to-end lines each workload must print
NAMED = {
    "raw_scans": ("decide_s", "decide_cpu_s", "fail_frac"),
    "decide_curves": ("decide_s", "decide_cpu_s", "fail_frac"),
    "type2_sim": ("sim_replicate_ms", "sim_replicate_ms_p90", "fail_frac"),
}
# the simulation needs 100 replicates before it reports a p90
SECONDS = {"raw_scans": 1, "decide_curves": 1, "type2_sim": 4}


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", "7", "--seconds", str(SECONDS[workload]),
           "--trace", str(trace), "--size", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_run(workload, trace):
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"run not correct: {lines[-1][:300]}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, units "
                      f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{name} has no numeric value")
    printed = {line.split(" ", 1)[0] for line in lines[:-1]}
    errors += [f"no line for {name}" for name in NAMED[workload]
               if name not in printed]
    return errors


def check_refuses_without_sources():
    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("decide_curves", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without src/: exit {proc.returncode}, "
                f"stdout {proc.stdout[-300:]!r}"]
    return []


def main():
    failures = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            errors = check_run(workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not errors else 'FAIL'}")
            if errors:
                failures[f"{workload} trace={trace}"] = errors
    errors = check_refuses_without_sources()
    print(f"without src/: {'ok' if not errors else 'FAIL'}")
    if errors:
        failures["without src/"] = errors
    for key, errors in failures.items():
        for e in errors:
            print(f"  {key}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
