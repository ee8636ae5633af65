"""The names the benchmark's tracer wraps exist and keep their signatures.

``bench/spans.py`` replaces module attributes by name and reads the
arguments of each permutation call; a renamed function or parameter would
only show up in a full benchmark run.  This checks the contract in a
fraction of a second.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from bacdetect.decision import FAMILIES

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_attributes_exist():
    spans = _load_spans()
    for module, attr, _ in spans.WRAPPED:
        assert hasattr(importlib.import_module(f"bacdetect.{module}"), attr), (module, attr)


def test_westfall_young_signature_as_traced():
    for module in ("decision", "simulation"):
        fn = importlib.import_module(f"bacdetect.{module}").westfall_young
        params = list(inspect.signature(fn).parameters)
        assert params[:6] == ["g1", "g2", "test", "kind", "cfg", "domain"], module


def test_tracer_names_each_family():
    spans = _load_spans()
    assert set(FAMILIES) == set(spans.FAMILIES)
    for name, (test, *_) in FAMILIES.items():
        assert spans._family(test) == name


def test_tails_looked_up_at_call_time(monkeypatch):
    # the tracer's statcore.*_ns_per_elem metrics see every p only if the
    # tests call the tails through statcore's module globals
    from bacdetect import statcore
    from bacdetect.permutation import PermutationConfig, PointwiseTest, westfall_young

    calls = {}
    for name in ("student_t_sf", "f_sf"):
        def counted(*args, _fn=getattr(statcore, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(statcore, name, counted)
    rng = np.random.default_rng(5)
    g1, g2 = rng.standard_normal((5, 20)), rng.standard_normal((6, 20))
    cfg = PermutationConfig(n_permutations=50, seed=1)
    for test, tail in ((PointwiseTest(kind="mean"), "student_t_sf"),
                       (PointwiseTest(kind="variance"), "f_sf")):
        calls.update({"student_t_sf": 0, "f_sf": 0})
        westfall_young(g1, g2, test, "medP", cfg)
        assert calls[tail] >= 1 and sum(calls.values()) == calls[tail], (test, calls)
