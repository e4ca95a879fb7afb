"""Tests of the benchmark's own checks and of its smoke mode.

Run from the root of a checkout with `python3 -m pytest bench`; the
repository's test suite (testpaths = ["tests"]) does not collect them.
Each check must pass on the program's real outputs and reject a copy
with one corruption.
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run

SMOKE = run.SIZES["smoke"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{workload: (workload object, inputs, output dir)} at smoke sizes."""
    made = {}
    for name, cls in run.WORKLOADS.items():
        workload = cls(SMOKE)
        directory = tmp_path_factory.mktemp(name)
        inputs = workload.setup(directory, 3, None)
        out = directory / "out"
        result = run.menkf(workload.command(inputs, out), directory)
        assert result["rc"] == 0, name
        made[name] = (workload, inputs, out)
    return made


def corrupted(outputs, name, tmp_path, edit):
    """Problems the check finds in a copy of a workload's outputs after edit(copy)."""
    workload, inputs, out = outputs[name]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    edit(copy)
    return workload.check(inputs, copy)


def edit_csv(path, row, column, change):
    header, rows = checks.read_table(path)
    col = header.index(column)
    rows[row][col] = change(rows[row][col])
    path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")


def edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_real_outputs_pass(outputs, name):
    workload, inputs, out = outputs[name]
    assert workload.check(inputs, out) == []


def test_evaluate_rejects_nudged_endpoint(outputs, tmp_path):
    problems = corrupted(outputs, "evaluate_large", tmp_path, lambda d: edit_csv(
        d / "intervals.csv", 5, "lo", lambda x: repr(float(x) + 1e-9)))
    assert any("lo" in p for p in problems), problems


def test_evaluate_rejects_report_mismatch(outputs, tmp_path):
    def edit(d):
        edit_json(d / "report.json", lambda doc: doc.update(mae=doc["mae"] * 1.001))
    problems = corrupted(outputs, "evaluate_large", tmp_path, edit)
    assert any(p.startswith("mae") for p in problems), problems


def test_study_rejects_failed_replicate(outputs, tmp_path):
    def edit(d):
        edit_json(d / "study.json",
                  lambda doc: doc["failures"].update({"1": "NumericError: injected"}))
    problems = corrupted(outputs, "study_well_specified", tmp_path, edit)
    assert any("failed replicates" in p for p in problems), problems


def test_study_rejects_pooled_coverage_mismatch(outputs, tmp_path):
    problems = corrupted(outputs, "study_well_specified", tmp_path, lambda d: edit_csv(
        d / "study.csv", 0, "coverage", lambda x: repr(float(x) - 0.125)))
    assert any("coverage_pooled" in p for p in problems), problems


def test_train_rejects_nonzero_structural_coordinate(outputs, tmp_path):
    def edit(d):
        path = d / "checkpoint.menkf"
        raw = bytearray(path.read_bytes())
        (header_len,) = struct.unpack_from("<Q", raw, 12)
        header = json.loads(raw[20:20 + header_len])
        zero = checks.layout(header["config"])["zeros"][0]
        struct.pack_into("<d", raw, 20 + header_len + 8 * int(zero), 1e-300)
        path.write_bytes(bytes(raw))
    problems = corrupted(outputs, "train_hidden", tmp_path, edit)
    assert any("structural zeros" in p for p in problems), problems


def test_train_rejects_untrained_members(outputs, tmp_path):
    def edit(d):
        path = d / "checkpoint.menkf"
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<Q", raw, 12)
        body = np.zeros(len(raw) - 20 - header_len, dtype=np.uint8)
        path.write_bytes(raw[:20 + header_len] + body.tobytes())
    problems = corrupted(outputs, "train_hidden", tmp_path, edit)
    assert any("constant-0.5" in p for p in problems), problems


def test_train_rejects_bad_trace(outputs, tmp_path):
    problems = corrupted(outputs, "train_hidden", tmp_path, lambda d: edit_csv(
        d / "trace.csv", 2, "noise_var", lambda x: "0.0"))
    assert any("noise_var" in p for p in problems), problems


def test_tree_digest_sees_one_changed_byte(outputs, tmp_path):
    _, _, out = outputs["study_well_specified"]
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    before = checks.tree_digest(copy)
    raw = bytearray((copy / "study.json").read_bytes())
    raw[-2] ^= 1
    (copy / "study.json").write_bytes(bytes(raw))
    assert checks.tree_digest(copy) != before


def test_smoke_mode_runs_every_workload_in_both_modes():
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines() if " trace=" in line]
    assert len(lines) == 2 * len(run.WORKLOADS)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for line in lines:
        result = json.loads(line.split(" ", 2)[2])
        assert result["correct"] and result["failed"] == 0
        kind = "per_layer" if "trace=1" in line else "end_to_end"
        assert list(result["metrics"]) == [m["name"] for m in spec[kind]]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train_hidden",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
