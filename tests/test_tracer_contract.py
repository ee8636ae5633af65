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
