"""The benchmark's tracer wraps menkf functions by name and skips a name it
cannot find, so a renamed or deleted function would silently drop its
per-layer metrics. This checks every traced name still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from menkf.numerics import RngStream

_SPEC = importlib.util.spec_from_file_location(
    "bench_trace_cli", Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py")
trace_cli = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_cli)

TARGETS = [(module_name, name)
           for module_name, names in trace_cli.TARGETS.values()
           for name in names]


@pytest.mark.parametrize("module_name, name", TARGETS)
def test_traced_function_exists(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name, None))


def test_traced_stream_method_exists():
    assert callable(getattr(RngStream, "generator", None))


def test_every_work_counter_has_a_target():
    assert set(trace_cli.WORK) <= {name for _, name in TARGETS}
