"""Spans around calls into bacdetect's layers, recorded from outside the program.

``Tracer.install`` replaces the module attributes that ``cli``,
``calibration``, ``decision``, ``simulation`` and ``statcore`` look up at call
time (``cli.load_stage``, ``decision.westfall_young``, ...) with wrappers that
record a span per call: name, start, end, parent span and the operation it
belongs to, plus a few counts read from the call's arguments and result.
``restore`` puts the originals back.  ``src/`` is not modified.

``layer_metrics`` turns the spans of the traced operations into the
per-layer metrics; a layer's self time is its span minus its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

FAMILIES = ("upper_tail", "lower_tail", "variance")

# (module, attribute) -> span name; the span name is the layer that does
# the work, the attribute is the name the caller looks up
WRAPPED = [
    ("cli", "main", "cli.main"),
    ("cli", "load_stage", "surface_io.load_stage"),
    ("cli", "calibrate_stage", "calibration.calibrate_stage"),
    ("cli", "build_stage_sample", "roughness.build_stage_sample"),
    ("cli", "decide", "decision.decide"),
    ("cli", "save_report", "surface_io.save_report"),
    ("calibration", "fit_sphere", "calibration.fit_sphere"),
    ("calibration", "subtract_baseline", "calibration.subtract_baseline"),
    ("decision", "decide", "decision.decide"),
    ("decision", "westfall_young", "permutation.westfall_young"),
    ("simulation", "estimate_type2", "simulation.estimate_type2"),
    ("simulation", "sample_gp_groups", "simulation.sample_gp_groups"),
    ("simulation", "run_tail_tests", "simulation.run_tail_tests"),
    ("simulation", "westfall_young", "permutation.westfall_young"),
    ("statcore", "student_t_sf", "statcore.student_t_sf"),
    ("statcore", "f_sf", "statcore.f_sf"),
]

# per-layer metrics and their units, in report order
LAYER_METRICS = {
    "cli.other_s": "s",
    "surface_io.load_stage_s": "s",
    "surface_io.text_mb": "MB",
    "surface_io.mb_per_s": "MB/s",
    "surface_io.pixels_dropped": "count",
    "surface_io.save_report_s": "s",
    "calibration.fit_sphere_s": "s",
    "calibration.subtract_baseline_s": "s",
    "calibration.calibrate_stage_s": "s",
    "roughness.build_stage_sample_s": "s",
    **{f"permutation.{f}_s": "s" for f in FAMILIES},
    **{f"permutation.{f}.relabelings": "count" for f in FAMILIES},
    **{f"permutation.{f}.pointwise_evals": "count" for f in FAMILIES},
    **{f"permutation.{f}.ns_per_pointwise_eval": "ns" for f in FAMILIES},
    "permutation.matmul_flops_computed": "flop",
    "decision.other_s": "s",
    "statcore.student_t_sf_ns_per_elem": "ns",
    "statcore.f_sf_ns_per_elem": "ns",
    "simulation.sample_gp_groups_ms": "ms",
    "simulation.run_tail_tests_ms": "ms",
    "simulation.perm_share": "fraction",
}


def _family(test):
    if test.kind == "variance":
        return "variance"
    return "upper_tail" if test.direction == "greater" else "lower_tail"


def _westfall_young_attrs(bound, result):
    """Family, relabelings and the matmul work of one permutation pass."""
    a = bound.arguments
    j = sum(np.shape(getattr(g, "curves", g))[0] for g in (a["g1"], a["g2"]))
    m = np.shape(getattr(a["g1"], "curves", a["g1"]))[1]
    domain = a.get("domain")
    points = m if domain is None else int(np.count_nonzero(domain))
    # two (rows x j) @ (j x points) products per block: sums and squares,
    # one row per relabeling plus the observed labelling
    flops = 2 * 2 * (result.n_used + 1) * j * points
    return {"family": _family(a["test"]), "relabelings": result.n_used,
            "points": points, "matmul_flops": flops}


def _load_stage_attrs(bound, result):
    path = Path(bound.arguments["path"])
    files = path.iterdir() if path.is_dir() else [path]
    text = sum(f.stat().st_size for f in files
               if f.suffix.lower() in (".csv", ".txt", ".dat"))
    return {"text_bytes": text,
            "pixels_dropped": sum(m.dropped_count for m in result.locations)}


def _elems_attrs(bound, result):
    return {"elems": int(np.size(result))}


ATTRS = {
    "permutation.westfall_young": _westfall_young_attrs,
    "surface_io.load_stage": _load_stage_attrs,
    "statcore.student_t_sf": _elems_attrs,
    "statcore.f_sf": _elems_attrs,
}


class Tracer:
    """In-memory span recorder; spans are written out by ``write``."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; return the result and span."""
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs), rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def install(self, modules):
        for mod_name, attr, name in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name))
            self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name):
        attrs = ATTRS.get(name)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result, rec = self.call(name, original, *args, **kwargs)
            if attrs:
                rec.update(attrs(signature.bind(*args, **kwargs), result))
            return result

        return traced

    def self_times(self):
        child = defaultdict(float)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        return {rec["id"]: rec["end"] - rec["start"] - child[rec["id"]]
                for rec in self.spans}

    def write(self, path, header):
        selfs = self.self_times()
        spans = [{**rec, "self": selfs[rec["id"]]} for rec in self.spans]
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps({**header, "spans": spans}) + "\n")


def layer_metrics(tracer):
    """Per-layer metrics from the spans of the traced operations.

    Times and counts are per operation (median over the traced operations);
    the ns-per-element and ns-per-evaluation rates and ``perm_share`` are
    ratios of totals.  A layer the workload never calls reads 0.
    """
    selfs = tracer.self_times()
    per_op = defaultdict(lambda: defaultdict(float))
    total = defaultdict(float)
    for rec in tracer.spans:
        if rec["op"] is None:
            continue
        d = rec["end"] - rec["start"]
        acc = per_op[rec["op"]]
        name = rec["name"]
        acc[name] += d
        acc[name + ".self"] += selfs[rec["id"]]
        total[name] += d
        # a call that raised has no counts
        if name == "permutation.westfall_young" and "family" in rec:
            fam = rec["family"]
            acc[f"{fam}.s"] += d
            acc[f"{fam}.relabelings"] += rec["relabelings"]
            acc[f"{fam}.evals"] += rec["relabelings"] * rec["points"]
            acc["matmul_flops"] += rec["matmul_flops"]
            total[f"{fam}.s"] += d
            total[f"{fam}.evals"] += rec["relabelings"] * rec["points"]
        elif name == "surface_io.load_stage" and "text_bytes" in rec:
            acc["text_bytes"] += rec["text_bytes"]
            acc["pixels_dropped"] += rec["pixels_dropped"]
        elif "elems" in rec:
            total[name + ".elems"] += rec["elems"]

    ops = list(per_op.values())

    def med(fn):
        return statistics.median(fn(acc) for acc in ops) if ops else 0.0

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    out = {
        "cli.other_s": med(lambda a: a["cli.main.self"]),
        "surface_io.load_stage_s": med(lambda a: a["surface_io.load_stage"]),
        "surface_io.text_mb": med(lambda a: a["text_bytes"] / 1e6),
        "surface_io.mb_per_s": med(lambda a: ratio(a["text_bytes"] / 1e6,
                                                   a["surface_io.load_stage"])),
        "surface_io.pixels_dropped": med(lambda a: a["pixels_dropped"]),
        "surface_io.save_report_s": med(lambda a: a["surface_io.save_report"]),
        "calibration.fit_sphere_s": med(lambda a: a["calibration.fit_sphere"]),
        "calibration.subtract_baseline_s":
            med(lambda a: a["calibration.subtract_baseline"]),
        "calibration.calibrate_stage_s":
            med(lambda a: a["calibration.calibrate_stage"]),
        "roughness.build_stage_sample_s":
            med(lambda a: a["roughness.build_stage_sample"]),
    }
    for f in FAMILIES:
        out[f"permutation.{f}_s"] = med(lambda a: a[f"{f}.s"])
        out[f"permutation.{f}.relabelings"] = med(lambda a: a[f"{f}.relabelings"])
        out[f"permutation.{f}.pointwise_evals"] = med(lambda a: a[f"{f}.evals"])
        out[f"permutation.{f}.ns_per_pointwise_eval"] = ratio(
            total[f"{f}.s"], total[f"{f}.evals"], 1e9)
    out["permutation.matmul_flops_computed"] = med(lambda a: a["matmul_flops"])
    out["decision.other_s"] = med(lambda a: a["decision.decide.self"])
    for fn in ("student_t_sf", "f_sf"):
        out[f"statcore.{fn}_ns_per_elem"] = ratio(
            total[f"statcore.{fn}"], total[f"statcore.{fn}.elems"], 1e9)
    out["simulation.sample_gp_groups_ms"] = med(
        lambda a: 1e3 * a["simulation.sample_gp_groups"])
    out["simulation.run_tail_tests_ms"] = med(
        lambda a: 1e3 * a["simulation.run_tail_tests"])
    out["simulation.perm_share"] = ratio(
        sum(total[f"{f}.s"] for f in FAMILIES),
        total["simulation.estimate_type2"])
    return out
