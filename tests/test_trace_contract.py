"""The traced benchmark run must still be able to emit every per-layer
metric that BENCHMARK.json declares.

bench/tracer.py wraps names it finds at run time and silently skips a
name or an lru_cache that no longer exists; the metric then drops out of
the result line.  These tests fail instead when a rename or a deletion
in the package would silence a declared metric.  The tracer is loaded by
path, and its patching runs in a child interpreter so that this process
keeps the unwrapped package.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from infocat import CategoryId, category
from infocat.core import Category

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]

# Per-layer call metrics the benchmark times from its own spans, not from
# wrapped names.
SPAN_CALLS = {"replay"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return load_tracer()


@pytest.fixture(scope="module")
def wrapped():
    """The names instrument() wraps, from a child interpreter."""
    script = (
        "import importlib.util, json, sys\n"
        "spec = importlib.util.spec_from_file_location('bench_tracer', sys.argv[1])\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "print(json.dumps(tracer.instrument(tracer.Tracer())))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script, str(TRACER)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(out.stdout))


def test_every_cache_resolves(tracer):
    for name, module, attr in tracer.CACHES:
        fn = getattr(importlib.import_module(module), attr, None)
        assert hasattr(fn, "cache_info"), f"cache.{name}.hit_ratio: {module}.{attr} is gone"
        assert f"cache.{name}.hit_ratio" in PER_LAYER


def test_every_declared_cache_is_read(tracer):
    read = {f"cache.{name}.hit_ratio" for name, _, _ in tracer.CACHES}
    assert {m for m in PER_LAYER if m.startswith("cache.")} <= read


def test_every_call_metric_is_fed(wrapped):
    for metric in PER_LAYER:
        layer, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s") and layer not in SPAN_CALLS and layer != "audit":
            assert layer in wrapped, f"{metric}: no wrapped name feeds {layer}"


def test_every_category_has_the_traced_methods(tracer):
    """Each method is implemented, not left as the interface stub; the
    iso searches may stay stubs where audits skip structural checks."""
    for cat_id in CategoryId:
        ops = category(cat_id)
        for layer, attr in tracer.CATEGORY_METHODS:
            if layer == "ops.iso_search" and not ops.structural_isos:
                continue
            assert getattr(type(ops), attr, None) is not getattr(Category, attr), (
                f"{cat_id.value} lacks {attr} ({layer})"
            )
