"""Whole input files, mutated, through the command line in-process.

Each property runs main on one mutated run config, dataset CSV or
checkpoint of a tiny run (N = 8 members, p = q = 2, 12 rows) and checks
the exit contract: main raises nothing (pytest turns warnings into
errors, so a numpy RuntimeWarning counts as raising); a non-zero exit
leaves exactly one `menkf:` line on stderr and no output file; exit 2
comes only with a NumericError (or, for a run config, with a size numpy
refuses); and on exit 0 report.json is strict JSON, NaN refused.
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

from menkf.cli import RunConfig, main
from menkf.storage import to_dict

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
# An integer is small or past what numpy allocates: a size in between is a
# legitimate run of any length and memory. So is a huge loop count, and the
# two loop counts (LOOPS) get small integers only.
INTEGERS = st.integers(-3, 12) | st.integers(10**18, 10**400) | st.integers(-10**400, -1)
WORDS = st.text(max_size=6) | st.sampled_from(["well_specified", "misspecified",
                                               "stacked_average", "identity", "tanh", "relu",
                                               "gaussian", "gamma_shape_scale"])
# no empty object: as a section it means every default, a run of 50 replicates
JSON_VALUES = st.recursive(st.none() | st.booleans() | INTEGERS | st.floats() | WORDS,
                           lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, min_size=1,
                                             max_size=3),
                           max_leaves=4)
OF_TYPE = {bool: st.booleans(), int: INTEGERS, float: st.floats() | INTEGERS, str: WORDS,
           list: st.lists(INTEGERS, max_size=3)}
LOOPS = [("sim", "replicates"), ("trainer", "passes_over_data")]
OF_PATH = {**dict.fromkeys(LOOPS, st.integers(-3, 3)),
           ("seed",): st.sampled_from([-1, 2**64 - 1, 2**64]) | st.integers(-2**65, 2**65)}
DEFAULTS = to_dict(RunConfig())
CONFIG = {key: {**value, **TINY.get(key, {})} if isinstance(value, dict) else value
          for key, value in DEFAULTS.items()}  # every key of the run config, tiny
REPEAT = "\0repeat\0"  # a key no drawn text holds


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


def key_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def mutated_config(doc):
    """Up to three values replaced by values of their JSON type (among them
    seeds past 64 bits, integers up to 10**400, NaN and Infinity), one value
    or section replaced by any JSON value, or one key of the top level or of
    a section given twice."""
    paths = sorted(key_paths(doc))

    def of_type(path):
        value = doc[path[0]] if len(path) == 1 else doc[path[0]][path[1]]
        return OF_PATH.get(path, OF_TYPE.get(type(value), JSON_VALUES))

    def replaced(changes):
        out = json.loads(json.dumps(doc))
        for path, value in changes:
            target = out if len(path) == 1 else out[path[0]]
            if isinstance(target, dict):  # not a section an earlier change replaced
                target[path[-1]] = value
        return json.dumps(out)

    def twice(where, value, first):
        *section, key = where
        out = json.loads(json.dumps(doc))
        target = out[section[0]] if section else out
        items = [*target.items()]
        target.clear()
        target.update([(REPEAT, value), *items] if first else [*items, (REPEAT, value)])
        return json.dumps(out).replace(json.dumps(REPEAT), json.dumps(key))

    typed = st.one_of([st.tuples(st.just(path), of_type(path)) for path in paths])
    # typed changes twice over, so that half the configs keep every JSON type
    return st.one_of(st.lists(typed, min_size=1, max_size=3).map(replaced),
                     st.lists(typed, min_size=1, max_size=3).map(replaced),
                     st.tuples(st.sampled_from([path for path in paths if path not in LOOPS]),
                               JSON_VALUES).map(lambda change: replaced([change])),
                     st.builds(twice, st.sampled_from(paths), st.none() | INTEGERS, st.booleans()))


CONFIG_MUTATIONS = mutated_config(CONFIG)  # built once: building it costs more than a draw


def refuse_constant(token):
    raise AssertionError(f"report.json holds the non-JSON token {token}")


def check_exit_contract(args, out_dir, exit_2=("menkf: NumericError: ",)):
    """Run main on args into a fresh out_dir, check the exit contract, and
    return the exit code; exit_2 holds the prefixes of the exit-2 lines."""
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*args, "--output-dir", str(out_dir)])
    if code == 0:
        if args[0] == "evaluate":
            json.loads((out_dir / "report.json").read_text(), parse_constant=refuse_constant)
        return code
    (line,) = stderr.getvalue().splitlines()
    assert line.startswith("menkf: ")
    assert code == (2 if line.startswith(exit_2) else 1), line
    assert not any(path.is_file() for path in out_dir.rglob("*"))
    return code


class TestFuzzedInputFiles:
    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_run_config_to_simulate_and_train(self, tmp_path_factory, run_files, data):
        # train reads what simulate wrote, or the tiny run's dataset if simulate refused
        _, dataset, _ = run_files
        base = tmp_path_factory.getbasetemp()
        config = base / "fuzzed_config.json"
        config.write_text(data.draw(CONFIG_MUTATIONS))
        exit_2 = ("menkf: NumericError: ", "menkf: out of memory: ")
        if check_exit_contract(["simulate", "--config", str(config)],
                               base / "fuzzed_simulate", exit_2) == 0:
            dataset = base / "fuzzed_simulate" / "replicates" / "rep_000.csv"
        check_exit_contract(["train", "--config", str(config), "--dataset", str(dataset)],
                            base / "fuzzed_config_train", exit_2)

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
