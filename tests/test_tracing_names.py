"""Every name the benchmark's traced run wraps must exist: `Tracer.install`
looks each `(module, attribute)` pair of `bench/tracing.py` up with
`getattr` and raises `AttributeError` on a name the library dropped."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

import probeint.cli  # noqa: F401  (the traced run loads every module)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tables():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({**tracing.SPANS, **tracing.COUNTS})


@pytest.mark.parametrize("module, attribute", _tables())
def test_traced_name_resolves(module, attribute):
    owner = importlib.import_module(f"probeint.{module}")
    assert callable(functools.reduce(getattr, attribute.split("."), owner))
