"""The benchmark's tracer wraps menkf functions by name and skips a name it
cannot find, so a renamed or deleted function would silently drop its
per-layer metrics. This checks every traced name still exists."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import menkf
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


def test_every_traced_module_is_loaded_with_the_cli():
    # the tracer wraps functions only in the menkf modules present right
    # after `import menkf.cli`, so a layer the CLI imported later, inside a
    # command, would read 0 on every per-layer metric
    modules = sorted({module_name for module_name, _ in TARGETS})
    code = f"import sys, menkf.cli; print(sorted(set({modules!r}) - set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(menkf.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]"), proc.stderr
