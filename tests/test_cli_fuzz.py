"""Whole input files, mutated, through the command line in-process.

Each property runs main on one mutated dataset CSV or checkpoint of a tiny
run (N = 8 members, p = q = 2, 12 rows) and checks the exit contract:
main raises nothing (pytest turns warnings into errors, so a numpy
RuntimeWarning counts as raising); a non-zero exit leaves exactly one
`menkf:` line on stderr and no output file; exit 2 comes only with a
NumericError; and on exit 0 report.json is strict JSON, NaN refused.
"""

import contextlib
import io
import json
import shutil
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menkf.cli import main

TINY = {
    "seed": 0,
    "sim": {"m": 12, "replicates": 1, "p": 2, "q": 2},
    "trainer": {"ensemble_size": 8, "hidden_dims_f": [], "hidden_dims_g": [],
                "activation": "identity", "batch_size": 12, "passes_over_data": 1},
}
MAX = sys.float_info.max
CELLS = ["1e300", "-1e300", "1e308", "-1e308", "nan", "inf", "-inf", "", "1_0", '"']
PREFIX = struct.Struct("<8sIQ")  # the checkpoint's magic, version and header length
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


@pytest.fixture(scope="module")
def run_files(tmp_path_factory):
    """(config, dataset, checkpoint) paths of one tiny simulate and train."""
    root = tmp_path_factory.mktemp("fuzz")
    config = root / "config.json"
    config.write_text(json.dumps(TINY))
    assert main(["simulate", "--config", str(config), "--output-dir", str(root)]) == 0
    dataset = root / "replicates" / "rep_000.csv"
    assert main(["train", "--config", str(config), "--dataset", str(dataset),
                 "--output-dir", str(root / "fit")]) == 0
    return config, dataset, root / "fit" / "checkpoint.menkf"


def flips(raw):
    return st.builds(lambda at, mask: raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:],
                     st.integers(0, len(raw) - 1), st.integers(1, 255))


def truncations(raw):
    return st.integers(0, len(raw) - 1).map(lambda k: raw[:k])


def mutated_csv(raw):
    """Truncation, one flipped byte, or up to three cells replaced."""
    lines = raw.decode().split("\r\n")
    width = len(lines[0].split(","))

    def replace(cells):
        out = [line.split(",") for line in lines]
        for row, col, text in cells:
            out[row][col] = text
        return "\r\n".join(",".join(fields) for fields in out).encode()

    cell = st.tuples(st.integers(1, len(lines) - 2), st.integers(0, width - 1),
                     st.sampled_from(CELLS))
    return st.one_of(truncations(raw), flips(raw),
                     st.lists(cell, min_size=1, max_size=3).map(replace))


def mutated_checkpoint(raw):
    """Truncation, one flipped byte, every coordinate of one member made huge,
    a header value replaced, a header key given twice, a dim that does not
    fit the layout (the body resized to match), or a header float made NaN
    or infinite."""
    header_len = PREFIX.unpack_from(raw)[2]
    header = json.loads(raw[PREFIX.size:PREFIX.size + header_len])
    body = raw[PREFIX.size + header_len:]

    def join(header_text, new_body=body):
        encoded = header_text.encode()
        return PREFIX.pack(b"MENKFCKP", 1, len(encoded)) + encoded + new_body

    def huge(member, value):
        row = 8 * header["dim"]
        return raw[:-len(body)] + body[:member * row] + struct.pack("<d", value) * header[
            "dim"] + body[(member + 1) * row:]

    def replaced(path, value):
        doc = json.loads(json.dumps(header))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return join(json.dumps(doc, sort_keys=True))

    def twice(key, value, first):
        extra = f"{json.dumps(key)}: {json.dumps(value)}"
        text = json.dumps(header, sort_keys=True)
        return join("{" + extra + ", " + text[1:] if first else text[:-1] + ", " + extra + "}")

    def resized(dim):
        return join(json.dumps({**header, "dim": dim}, sort_keys=True),
                    bytes(header["n_members"] * dim * 8))

    paths = [(key,) for key in header] + [("config", key) for key in header["config"]]
    float_paths = [("config", key) for key, value in header["config"].items()
                   if type(value) is float]
    return st.one_of(
        truncations(raw), flips(raw),
        st.builds(huge, st.integers(0, header["n_members"] - 1),
                  st.sampled_from([1e300, -1e300, 1e308, -1e308, MAX, -MAX])),
        st.builds(replaced, st.sampled_from(paths), JSON_SCALARS),
        st.builds(twice, st.sampled_from(sorted(header)), JSON_SCALARS, st.booleans()),
        st.integers(1, 64).filter(lambda d: d != header["dim"]).map(resized),
        st.builds(replaced, st.sampled_from(float_paths),
                  st.sampled_from([float("nan"), float("inf"), float("-inf")])))


def refuse_constant(token):
    raise AssertionError(f"report.json holds the non-JSON token {token}")


def check_exit_contract(args, out_dir):
    """Run main on args into a fresh out_dir and check the exit contract."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*args, "--output-dir", str(out_dir)])
    if code == 0:
        if args[0] == "evaluate":
            json.loads((out_dir / "report.json").read_text(), parse_constant=refuse_constant)
        return
    (line,) = stderr.getvalue().splitlines()
    assert line.startswith("menkf: ")
    assert code == (2 if line.startswith("menkf: NumericError: ") else 1), line
    assert not any(path.is_file() for path in out_dir.rglob("*"))


class TestFuzzedInputFiles:
    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_dataset_to_train(self, tmp_path_factory, run_files, data):
        config, dataset, _ = run_files
        base = tmp_path_factory.getbasetemp()
        fuzzed = base / "fuzzed_train.csv"
        fuzzed.write_bytes(data.draw(mutated_csv(dataset.read_bytes())))
        check_exit_contract(["train", "--config", str(config), "--dataset", str(fuzzed)],
                            base / "fuzzed_train")

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_dataset_to_evaluate(self, tmp_path_factory, run_files, data):
        _, dataset, checkpoint = run_files
        base = tmp_path_factory.getbasetemp()
        fuzzed = base / "fuzzed_evaluate.csv"
        fuzzed.write_bytes(data.draw(mutated_csv(dataset.read_bytes())))
        check_exit_contract(["evaluate", "--checkpoint", str(checkpoint),
                             "--dataset", str(fuzzed)], base / "fuzzed_evaluate")

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_checkpoint_to_evaluate(self, tmp_path_factory, run_files, data):
        _, dataset, checkpoint = run_files
        base = tmp_path_factory.getbasetemp()
        fuzzed = base / "fuzzed.menkf"
        fuzzed.write_bytes(data.draw(mutated_checkpoint(checkpoint.read_bytes())))
        check_exit_contract(["evaluate", "--checkpoint", str(fuzzed),
                             "--dataset", str(dataset)], base / "fuzzed_checkpoint")
