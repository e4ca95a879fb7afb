import csv
import dataclasses
import hashlib
import io
import json
import os
import re
import struct
import threading
import tracemalloc
import typing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from menkf import config, storage
from menkf.arms import ArmSpec
from menkf.cli import RunConfig, main
from menkf.enkf import Ensemble
from menkf.exceptions import ConfigError, DataFormatError, InvalidInputError
from menkf.simgen import Replicate
from menkf.storage import (dataset_header, from_dict, load_checkpoint,
                           read_dataset_csv, save_checkpoint, sha256_file,
                           to_dict, write_dataset_csv, write_json, write_manifest,
                           write_rows_csv)
from menkf.trainer import MenkfConfig

from manifest_check import verify_manifest


def sample_replicate(n=5, p=2, q=3, seed=0):
    gen = np.random.default_rng(seed)
    return Replicate(
        v_f=gen.standard_normal((n, p)),
        v_g=gen.standard_normal((n, q)),
        labels=gen.integers(0, 2, size=n),
        target_logits=gen.standard_normal(n),
        true_prob=gen.uniform(0.01, 0.99, size=n),
    )


def sample_config(**kw):
    base = dict(arm_f=ArmSpec(2, (), "identity"), arm_g=ArmSpec(3, (4,), "tanh"),
                ensemble_size=8, init_var=2.0)
    base.update(kw)
    return MenkfConfig(**base)


class TestDatasetCsv:
    def test_header_layout(self):
        assert dataset_header(2, 1) == ["emb_f_0", "emb_f_1", "emb_g_0",
                                        "target_logit", "true_prob", "label"]

    def test_round_trip_is_exact(self, tmp_path):
        rep = sample_replicate()
        path = tmp_path / "data.csv"
        write_dataset_csv(path, rep)
        loaded = read_dataset_csv(path)
        # repr serialization means floats survive bit for bit
        np.testing.assert_array_equal(loaded.v_f, rep.v_f)
        np.testing.assert_array_equal(loaded.v_g, rep.v_g)
        np.testing.assert_array_equal(loaded.target_logits, rep.target_logits)
        np.testing.assert_array_equal(loaded.true_prob, rep.true_prob)
        np.testing.assert_array_equal(loaded.labels, rep.labels)
        assert loaded.size == rep.size

    def test_rewrite_is_byte_identical(self, tmp_path):
        rep = sample_replicate(seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(a, rep)
        loaded = read_dataset_csv(a)
        write_dataset_csv(b, Replicate(loaded.v_f, loaded.v_g, loaded.labels,
                                       loaded.target_logits, loaded.true_prob))
        assert a.read_bytes() == b.read_bytes()

    def test_optional_columns_default_to_none(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("emb_f_0,emb_g_0,target_logit\n0.5,1.5,-0.2\n")
        loaded = read_dataset_csv(path)
        assert loaded.true_prob is None and loaded.labels is None
        assert loaded.target_logits[0] == -0.2


def per_cell_csv(rep: Replicate) -> bytes:
    """Reference writer: one repr(float(x)) per cell, CRLF line ends, and no
    true_prob or label column where the replicate has None."""
    has_prob, has_label = rep.true_prob is not None, rep.labels is not None
    lines = [",".join(dataset_header(rep.v_f.shape[1], rep.v_g.shape[1], has_prob, has_label))]
    for i in range(rep.size):
        cells = [*rep.v_f[i], *rep.v_g[i], rep.target_logits[i]]
        cells += [rep.true_prob[i]] if has_prob else []
        lines.append(",".join([repr(float(x)) for x in cells]
                              + ([str(int(rep.labels[i]))] if has_label else [])))
    return ("\r\n".join(lines) + "\r\n").encode()


FINITE = st.floats(allow_nan=False, allow_infinity=False)
PROBABILITY = st.floats(-0.0, 1.0)  # both zeros and the subnormals included


@st.composite
def replicates(draw):
    n, p, q = draw(st.integers(1, 12)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    col = lambda k: hnp.arrays(float, (n, k) if k else n, elements=FINITE)
    return Replicate(v_f=draw(col(p)), v_g=draw(col(q)),
                     labels=draw(st.none() | hnp.arrays(np.int64, n)),
                     target_logits=draw(col(0)),
                     true_prob=draw(st.none() | hnp.arrays(float, n, elements=PROBABILITY)))


class TestDatasetCsvProperties:
    # huge values make a row sum overflow, which must not be taken for a bad cell;
    # a None true_prob or labels is written as no column and read back as None
    @given(replicates())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bitwise_with_contiguous_blocks(self, tmp_path_factory, rep):
        path = tmp_path_factory.mktemp("rt") / "data.csv"
        write_dataset_csv(path, rep)
        assert path.read_bytes() == per_cell_csv(rep)
        loaded = read_dataset_csv(path)
        for got, want in ((loaded.v_f, rep.v_f), (loaded.v_g, rep.v_g),
                          (loaded.target_logits, rep.target_logits),
                          (loaded.true_prob, rep.true_prob), (loaded.labels, rep.labels)):
            if want is None:
                assert got is None
                continue
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()  # -0.0 and subnormals included
            assert got.flags.c_contiguous


class TestDatasetCsvErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="empty file"):
            read_dataset_csv(self.write(tmp_path, ""))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("emb_f_0,emb_g_0,target_logit\n\u00e9,1.0,0.5\n".encode("latin-1"))
        with pytest.raises(DataFormatError, match="not a readable UTF-8 CSV"):
            read_dataset_csv(path)

    def test_header_only(self, tmp_path):
        with pytest.raises(DataFormatError, match="no data rows"):
            read_dataset_csv(self.write(tmp_path, "emb_f_0,emb_g_0,target_logit\n"))

    def test_missing_target_column(self, tmp_path):
        with pytest.raises(DataFormatError,
                           match="header column 3 is missing, expected 'target_logit'"):
            read_dataset_csv(self.write(tmp_path, "emb_f_0,emb_g_0\n1.0,2.0\n"))

    def test_missing_feature_block(self, tmp_path):
        with pytest.raises(DataFormatError,
                           match="header column 2 is 'target_logit', expected 'emb_g_0'"):
            read_dataset_csv(self.write(tmp_path, "emb_f_0,target_logit\n1.0,2.0\n"))

    def test_noncontiguous_feature_columns(self, tmp_path):
        text = "emb_f_0,emb_f_2,emb_g_0,target_logit\n1.0,2.0,3.0,4.0\n"
        with pytest.raises(DataFormatError,
                           match="header column 2 is 'emb_f_2', expected 'emb_f_1'"):
            read_dataset_csv(self.write(tmp_path, text))

    def test_bad_number_names_row_and_column(self, tmp_path):
        # float() also reads 1_0 as 10 and an Arabic-Indic digit as its value
        # and the padding whitespace float() strips, though the writer never pads
        for cell in ("oops", "nan", "inf", "-Infinity", "1_0", "\u0661", "1.\u0665",
                     " 1.0", "1.0\t", "0x1", "Infinity", "1.5j"):
            text = ("emb_f_0,emb_g_0,target_logit\n"
                    "0.5,1.0,-0.2\n"
                    f"0.1,{cell},0.3\n")
            with pytest.raises(DataFormatError, match=rf"row 3, column 'emb_g_0': "
                                                      rf"{re.escape(repr(cell))} is not a finite"):
                read_dataset_csv(self.write(tmp_path, text))

    def test_bad_label_names_column(self, tmp_path):
        # outside int64: past the C long, and past what converts to a float; or padded
        for cell in ("1.5", "99999999999999999999", "9" * 400, "1_1", "\u0661", "1 "):
            text = ("emb_f_0,emb_g_0,target_logit,true_prob,label\n"
                    f"0.5,1.0,-0.2,0.4,{cell}\n")
            with pytest.raises(DataFormatError,
                               match=rf"row 2, column 'label': '{cell}' is not an int64"):
                read_dataset_csv(self.write(tmp_path, text))

    def test_repeated_column_rejected(self, tmp_path):
        # the last of each repeated column would silently win
        text = ("emb_f_0,emb_f_0,emb_g_0,target_logit,target_logit\n"
                "1.0,2.0,3.0,0.5,9.0\n")
        with pytest.raises(DataFormatError,
                           match="header column 2 is 'emb_f_0', expected 'emb_f_1'"):
            read_dataset_csv(self.write(tmp_path, text))
        text = "emb_f_0,emb_g_0,target_logit,target_logit\n1.0,3.0,0.5,9.0\n"
        with pytest.raises(DataFormatError,
                           match="header column 4 is 'target_logit', expected no further column"):
            read_dataset_csv(self.write(tmp_path, text))

    # int() reads emb_f_01 as 1, so it used to replace the real emb_f_1; the last
    # four headers were read as if their odd column were absent or unquoted
    @pytest.mark.parametrize("header, column, got, want", [
        *(pytest.param(f"emb_f_0,emb_f_1,{name},emb_g_0,target_logit", 3, repr(name),
                       repr(want), id=name)
          for name, want in [("emb_f_01", "emb_f_2"), ("emb_f_ 1", "emb_f_2"),
                             ("emb_f_+1", "emb_f_2"), ("emb_f_-0", "emb_f_2"),
                             ("emb_g_00", "emb_g_0"), ("emb_f_0_1", "emb_f_2")]),
        pytest.param("emb_f_0,emb_g_0,target_logit,true_probs", 4, "'true_probs'",
                     "no further column", id="misspelt true_prob"),
        pytest.param("emb_f_0,emb_g_0,target_logit,true_prob,label,id", 6, "'id'",
                     "no further column", id="extra id"),
        pytest.param("emb_f_0,emb_g_0,target_logit,label,true_prob", 4, "'label'",
                     "'true_prob'", id="label before true_prob"),
        pytest.param('"emb_f_0",emb_g_0,target_logit', 1, """'"emb_f_0"'""", "'emb_f_0'",
                     id="quoted emb_f_0"),
    ])
    def test_noncanonical_block_index_rejected(self, tmp_path, header, column, got, want):
        text = header + "\n" + ",".join(["0.5"] * len(header.split(","))) + "\n"
        with pytest.raises(DataFormatError,
                           match=re.escape(f"header column {column} is {got}, expected {want}")):
            read_dataset_csv(self.write(tmp_path, text))

    @pytest.mark.parametrize("column", ["emb_f_1", "emb_g_0", "target_logit",
                                        "true_prob", "label"])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_bad_cell_names_row_and_column(self, tmp_path, column, row):
        rep = sample_replicate(n=7, p=2, q=2, seed=5)
        good = tmp_path / "good.csv"
        write_dataset_csv(good, rep)
        lines = good.read_text().splitlines()
        col = lines[0].split(",").index(column)
        if column == "label":
            kind = "an int64 integer"
            cells = ("x", "1.5", "9223372036854775808", "-9223372036854775809")
        elif column == "true_prob":
            kind = "a finite number in [0, 1]"
            cells = ("x", "nan", "inf", "-1e999", "2.5", "-3", "1.0000000000000002", "-1e-300")
        else:
            kind, cells = "a finite number", ("x", "nan", "inf", "-1e999")
        for cell in cells:
            fields = lines[1 + row].split(",")
            fields[col] = cell
            text = "\n".join(lines[:1 + row] + [",".join(fields)] + lines[2 + row:]) + "\n"
            with pytest.raises(DataFormatError) as err:
                read_dataset_csv(self.write(tmp_path, text))
            assert f"row {row + 2}, column '{column}': '{cell}' is not {kind}" in str(err.value)

    # float() reads these though repr never writes them; so does the bulk parser
    @pytest.mark.parametrize("cell", ["+.5", "5.", "-0", "1E+05"])
    def test_plain_cell_reads_as_float_reads_it(self, tmp_path, cell):
        path = self.write(tmp_path, f"emb_f_0,emb_g_0,target_logit\n0.5,{cell},-0.2\n")
        with mock.patch.object(storage, "_each_row", side_effect=AssertionError("per-row")):
            bulk = read_dataset_csv(path)
        assert bulk.v_g.tobytes() == np.array([[float(cell)]]).tobytes()
        assert read_outcome(read_row_by_row, path) == read_outcome(read_dataset_csv, path)

    def test_short_row_reports_count(self, tmp_path):
        text = "emb_f_0,emb_g_0,target_logit\n0.5,1.0\n"
        with pytest.raises(DataFormatError, match="row 2 has 2 fields, expected 3"):
            read_dataset_csv(self.write(tmp_path, text))


def reader_chunks(path) -> list[list[str]]:
    """The data lines of path as the reader cuts them into chunks."""
    with open(path, newline="\n") as fh:
        fh.readline()
        return list(iter(lambda: fh.readlines(storage._CHUNK_CHARS), []))


def read_row_by_row(path) -> Replicate:
    """Reference parse: read_dataset_csv with every chunk sent to the per-row parser."""
    with mock.patch.object(storage, "_bulk_rows", lambda *args: None):
        return read_dataset_csv(path)


def read_outcome(read, path):
    """The DataFormatError message of read(path), or its arrays as dtype,
    shape and bytes (None for an absent column)."""
    try:
        rep = read(path)
    except DataFormatError as err:
        return str(err)
    arrays = (rep.v_f, rep.v_g, rep.target_logits, rep.true_prob, rep.labels)
    assert all(a.flags.c_contiguous for a in arrays if a is not None)
    return [None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in arrays]


# cells in the bulk parser's alphabet: some float() refuses, one it reads as inf,
# some it reads though repr never writes them; labels at and past the int64 ends
ALPHABET_CELLS = ["", "+", "1e", "..", ".5", "5.", "-0", "1E+05", "1e999", "1e-400", "+.5"]
INT64_LABELS = [-2**63 - 1, -2**63, 2**63 - 1, 2**63]


@st.composite
def chunked_csvs(draw):
    """The text of a dataset CSV of at least three reader chunks: one valid
    line repeated, with a few lines replaced by drawn rows or blank lines."""
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    has_prob, has_label = draw(st.booleans()), draw(st.booleans())
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    n_float = p + q + 1 + has_prob
    cell = FINITE.map(repr) | st.sampled_from(ALPHABET_CELLS)
    label = st.sampled_from(INT64_LABELS).map(str) | st.integers(-3, 3).map(str) | cell
    row = st.tuples(st.lists(cell, min_size=n_float, max_size=n_float), label).map(
        lambda cells: ",".join(cells[0] + [cells[1]] * has_label))
    filler = ",".join([repr(i + 1 / 3) for i in range(n_float - has_prob)]
                      + [repr(1 / 3)] * has_prob + ["1"] * has_label)  # a valid true_prob
    n_rows = 3 * storage._CHUNK_CHARS // len(filler + eol) + 16
    lines = [",".join(dataset_header(p, q, has_prob, has_label))] + [filler] * n_rows
    blank = st.just("")  # a blank line, which the bulk parser must not hand to loadtxt
    for at, text in draw(st.lists(st.tuples(st.integers(1, n_rows), row | blank), max_size=6)):
        lines[at] = text
    return eol.join(lines) + eol


class TestChunkedDatasetCsv:
    """The bulk parser of whole chunks against the per-row parser."""

    @given(chunked_csvs())
    @settings(max_examples=100, deadline=None)
    def test_bulk_read_equals_row_by_row_read(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("chunks") / "data.csv"
        path.write_bytes(text.encode())
        assert len(reader_chunks(path)) >= 3
        assert read_outcome(read_dataset_csv, path) == read_outcome(read_row_by_row, path)

    def big_csv(self, tmp_path):
        """A valid CSV of 1,500 rows, CRLF line ends, at least three chunks."""
        rep = sample_replicate(n=1500, p=3, q=3, seed=7)
        path = tmp_path / "big.csv"
        write_dataset_csv(path, rep)
        assert len(reader_chunks(path)) >= 3
        return path, rep

    def test_bulk_path_reads_a_valid_file(self, tmp_path):
        # a bulk parser that bailed out on every chunk would still pass every
        # other reader test, through the per-row parser
        path, rep = self.big_csv(tmp_path)
        bulk = mock.Mock(wraps=storage._bulk_rows)
        with mock.patch.object(storage, "_bulk_rows", bulk), \
                mock.patch.object(storage, "_each_row", side_effect=AssertionError("per-row")):
            loaded = read_dataset_csv(path)
        assert bulk.call_count == len(reader_chunks(path))
        for got, want in ((loaded.v_f, rep.v_f), (loaded.v_g, rep.v_g),
                          (loaded.target_logits, rep.target_logits),
                          (loaded.true_prob, rep.true_prob), (loaded.labels, rep.labels)):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("eol, end", [("\r\n", "\r\n"), ("\n", "\n"), ("\r\n", ""),
                                          ("\r\n", "\r")],
                             ids=["CRLF", "LF", "no final LF", "final lone CR"])
    def test_every_valid_file_reads_in_bulk(self, tmp_path, eol, end):
        # the per-row parser runs only on a chunk it refuses
        path, rep = self.big_csv(tmp_path)
        text = path.read_bytes().decode().replace("\r\n", eol)
        path.write_bytes((text.removesuffix(eol) + end).encode())
        assert len(reader_chunks(path)) >= 3
        with mock.patch.object(storage, "_each_row", side_effect=AssertionError("per-row")):
            loaded = read_dataset_csv(path)
        for got, want in ((loaded.v_f, rep.v_f), (loaded.v_g, rep.v_g),
                          (loaded.target_logits, rep.target_logits),
                          (loaded.true_prob, rep.true_prob), (loaded.labels, rep.labels)):
            assert got.tobytes() == want.tobytes() and got.dtype == want.dtype

    @pytest.mark.parametrize("end", ["", "\r"], ids=["no final LF", "final lone CR"])
    def test_last_line_without_lf_reads_as_the_full_file(self, tmp_path, end):
        path, _ = self.big_csv(tmp_path)
        full = read_outcome(read_dataset_csv, path)
        path.write_bytes(path.read_bytes().removesuffix(b"\r\n") + end.encode())
        assert read_outcome(read_dataset_csv, path) == full
        assert read_outcome(read_row_by_row, path) == full

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda cells: cells[:4] + ["x"] + cells[5:],
                     "column 'emb_g_1': 'x' is not a finite number", id="bad float"),
        pytest.param(lambda cells: cells[:-1] + [str(2**63)],
                     f"column 'label': '{2**63}' is not an int64 integer", id="bad label"),
        pytest.param(lambda cells: cells[:-1], "has 8 fields, expected 9", id="short row"),
        pytest.param(lambda cells: cells[:2] + [cells[2] + "\r"] + cells[3:],
                     "column 'emb_f_2': {cell!r} is not a finite number", id="lone CR"),
        pytest.param(lambda cells: [""], "has 1 fields, expected 9", id="blank line"),
    ])
    def test_fault_in_third_chunk_names_its_absolute_row(self, tmp_path, edit, message):
        path, _ = self.big_csv(tmp_path)
        header, *lines = path.read_bytes().decode().splitlines(keepends=True)
        first, second, third, *_ = reader_chunks(path)
        at = len(first) + len(second) + len(third) // 2  # mid third chunk
        cells = lines[at].removesuffix("\r\n").split(",")
        lines[at] = ",".join(edit(cells)) + "\r\n"
        path.write_bytes("".join([header, *lines]).encode())
        first, second, third, *_ = reader_chunks(path)
        assert len(first) + len(second) <= at < len(first) + len(second) + len(third)
        row = at + 2  # the header is row 1
        expected = f"{path}: row {row} " if "fields" in message else f"{path}: row {row}, "
        expected += message.format(cell=cells[2] + "\r")
        with pytest.raises(DataFormatError) as err:
            read_dataset_csv(path)
        assert str(err.value) == expected
        assert read_outcome(read_row_by_row, path) == expected


class TestConfigDict:
    def test_round_trip(self):
        cfg = sample_config(fixed_arm_logit=0.25, jitter_var=0.01,
                            variance_init="gamma_shape_scale")
        assert from_dict(MenkfConfig, json.loads(json.dumps(to_dict(cfg)))) == cfg

    def test_unknown_top_level_key(self):
        doc = to_dict(sample_config())
        doc["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            from_dict(MenkfConfig, doc)

    def test_unknown_arm_key(self):
        doc = to_dict(sample_config())
        doc["arm_f"]["dropout"] = 0.5
        with pytest.raises(ConfigError, match=r"^arm_f: unknown keys \['dropout'\]"):
            from_dict(MenkfConfig, doc)

    def test_missing_arms(self):
        with pytest.raises(ConfigError, match=r"missing keys \['arm_f', 'arm_g'\]"):
            from_dict(MenkfConfig, {"ensemble_size": 10})

    def test_invalid_value_becomes_config_error(self):
        doc = to_dict(sample_config())
        doc["ensemble_size"] = 1
        with pytest.raises(ConfigError):
            from_dict(MenkfConfig, doc)

    def test_value_nested_too_deeply_to_show_is_named(self):
        # json.dumps of the value for the message would recurse past the limit
        value = []
        for _ in range(5000):
            value = [value]
        with pytest.raises(ConfigError, match=re.escape(
                "trainer.hidden_dims_f[0]: expected an integer, got a list nested too deeply")):
            from_dict(RunConfig, {"trainer": {"hidden_dims_f": value}})

    def test_shown_value_does_not_depend_on_the_stack(self):
        # json.dumps recurses once per bracket: a quote of this 200-deep list
        # fits on a shallow stack and not on one 700 frames deeper
        value = []
        for _ in range(200):
            value = [value]

        def message(frames):
            if frames:
                return message(frames - 1)
            with pytest.raises(ConfigError) as err:
                from_dict(RunConfig, {"trainer": {"hidden_dims_f": value}})
            return str(err.value)

        assert message(0) == message(700) == (
            "trainer.hidden_dims_f[0]: expected an integer, got a list nested too deeply to show")

    @pytest.mark.parametrize("value", [[0.5] * 5000, "x" * 5000, {"k": "y" * 5000}],
                             ids=["list", "string", "object"])
    def test_long_value_is_cut(self, value):
        with pytest.raises(ConfigError) as err:
            from_dict(RunConfig, {"trainer": {"jitter_var": value}})
        head, _, shown = str(err.value).partition(", got ")
        assert head == "trainer.jitter_var: expected a finite number"
        assert len(shown) == config._SHOWN_CHARS and shown.endswith("...")
        assert shown[:-3] == json.dumps(value)[:len(shown) - 3]

    def test_optional_float_accepts_null_and_integers(self):
        doc = to_dict(sample_config())
        assert doc["fixed_noise_var"] is None
        doc["fixed_noise_var"] = 2
        cfg = from_dict(MenkfConfig, doc)
        assert cfg.fixed_noise_var == 2.0 and type(cfg.fixed_noise_var) is float


# ------------------------------------------------- schema properties

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([0, 1, 2, 16, 10**400, 0.5, 16.0, [], [3], [2, 2], "tanh",
                       "identity", "gamma_shape_scale", "misspecified"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


def key_paths(doc, prefix=()):
    """Every key path into a nested JSON object, sections included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


def assign(doc, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def assert_declared_types(cfg):
    hints = typing.get_type_hints(type(cfg))
    for f in dataclasses.fields(cfg):
        value, declared = getattr(cfg, f.name), hints[f.name]
        if dataclasses.is_dataclass(declared):
            assert type(value) is declared, f.name
            assert_declared_types(value)
        elif typing.get_origin(declared) is tuple:
            assert type(value) is tuple and all(type(v) is int for v in value), f.name
        else:
            allowed = typing.get_args(declared) or (declared,)
            assert type(value) in allowed, f"{f.name}: {value!r} is not {declared}"


def check_any_value(cls, doc, path, value):
    try:
        cfg = from_dict(cls, assign(doc, path, value))
    except ConfigError:
        return
    assert_declared_types(cfg)


class TestSchemaProperties:
    RUN_DOC = to_dict(RunConfig())  # what `config print-defaults` prints
    CKPT_DOC = to_dict(sample_config(fixed_arm_logit=0.25))

    @given(st.sampled_from(sorted(key_paths(RUN_DOC))), JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_in_any_run_config_field(self, path, value):
        check_any_value(RunConfig, self.RUN_DOC, path, value)

    @given(st.sampled_from(sorted(key_paths(CKPT_DOC))), JSON_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_any_json_value_in_any_checkpoint_config_field(self, path, value):
        check_any_value(MenkfConfig, self.CKPT_DOC, path, value)


def split_checkpoint(raw):
    """The header object and the body bytes of a version-1 checkpoint."""
    (header_len,) = struct.unpack_from("<Q", raw, 12)
    return json.loads(raw[20:20 + header_len]), raw[20 + header_len:]


def join_checkpoint(raw, header, body):
    """raw's magic and version with another header and body."""
    edited = json.dumps(header, sort_keys=True).encode()
    return raw[:12] + struct.pack("<Q", len(edited)) + edited + body


class TestCheckpoint:
    def roundtrip(self, tmp_path, cfg=None):
        cfg = cfg or sample_config()
        gen = np.random.default_rng(1)
        members = gen.standard_normal((cfg.ensemble_size, cfg.layout().dim))
        path = tmp_path / "model.menkf"
        save_checkpoint(path, Ensemble(members), cfg)
        return path, members, cfg

    def test_bitwise_round_trip(self, tmp_path):
        path, members, cfg = self.roundtrip(tmp_path)
        loaded, loaded_cfg = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.members, members)
        assert loaded.members.dtype == np.float64
        assert loaded_cfg == cfg

    def test_save_is_deterministic(self, tmp_path):
        path_a, members, cfg = self.roundtrip(tmp_path)
        path_b = tmp_path / "again.menkf"
        save_checkpoint(path_b, Ensemble(members), cfg)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_body_is_not_copied(self, tmp_path):
        # save writes the members' own bytes; load holds the file's bytes and
        # the members, with no sliced copy of the body between them
        spec = ArmSpec(32, (16,), "tanh")
        cfg = sample_config(arm_f=spec, arm_g=spec, ensemble_size=216)
        members = np.random.default_rng(1).standard_normal((216, cfg.layout().dim))
        ensemble, path = Ensemble(members), tmp_path / "model.menkf"

        def peak(call, *args):
            tracemalloc.start()
            try:
                call(*args)
                return tracemalloc.get_traced_memory()[1] / members.nbytes
            finally:
                tracemalloc.stop()

        assert peak(save_checkpoint, path, ensemble, cfg) < 0.1
        assert peak(load_checkpoint, path) < 2.5

    def test_body_is_read_into_the_members(self, tmp_path):
        # load holds the members and the finiteness mask, not the file's bytes
        spec = ArmSpec(32, (16,), "tanh")
        cfg = sample_config(arm_f=spec, arm_g=spec, ensemble_size=216)
        members = np.random.default_rng(1).standard_normal((216, cfg.layout().dim))
        path = tmp_path / "model.menkf"
        save_checkpoint(path, Ensemble(members), cfg)
        tracemalloc.start()
        try:
            loaded, _ = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1] / members.nbytes
        finally:
            tracemalloc.stop()
        assert peak < 1.3
        assert loaded.members.tobytes() == members.tobytes()
        assert loaded.members.flags.c_contiguous and loaded.members.flags.writeable

    def test_loads_from_a_pipe(self, tmp_path):
        # a pipe has no size to check the body against, so it is read whole
        path, members, cfg = self.roundtrip(tmp_path)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)
        writer.start()
        loaded, loaded_cfg = load_checkpoint(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert loaded.members.tobytes() == members.tobytes() and loaded_cfg == cfg

    def test_wrong_magic(self, tmp_path):
        path, *_ = self.roundtrip(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path, *_ = self.roundtrip(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_body(self, tmp_path):
        path, *_ = self.roundtrip(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(DataFormatError, match="body is"):
            load_checkpoint(path)

    @pytest.mark.parametrize("digits", [400, 4299])
    def test_huge_member_count_is_a_short_message(self, tmp_path, digits):
        # a consistent header whose count takes as many digits as JSON reads
        # (4,300 at most); the body size it implies has more than str() shows
        cfg = dataclasses.replace(sample_config(), ensemble_size=int("9" * digits))
        header = {"config": to_dict(cfg), "config_sha256": storage._config_hash(to_dict(cfg)),
                  "n_members": cfg.ensemble_size, "dim": cfg.layout().dim, "dtype": "<f8"}
        text = json.dumps(header, sort_keys=True).encode()
        path = tmp_path / "huge.menkf"
        path.write_bytes(storage._PREFIX.pack(b"MENKFCKP", 1, len(text)) + text + bytes(64))
        with pytest.raises(DataFormatError) as err:
            load_checkpoint(path)
        assert str(err.value).endswith(f": body is 64 bytes, expected n_members x dim x 8 = "
                                       f"{cfg.ensemble_size} x {cfg.layout().dim} x 8")

    def test_edited_header_is_rejected(self, tmp_path):
        # same-length edit to the embedded config: the hash no longer matches
        path, *_ = self.roundtrip(tmp_path)
        raw = path.read_bytes()
        assert b'"init_var": 2.0' in raw
        path.write_bytes(raw.replace(b'"init_var": 2.0', b'"init_var": 3.0', 1))
        with pytest.raises(DataFormatError, match="hash mismatch"):
            load_checkpoint(path)

    def test_header_with_a_seed_still_loads(self, tmp_path):
        # headers written while MenkfConfig had a seed field hash a config that holds it
        path, members, cfg = self.roundtrip(tmp_path)
        raw = path.read_bytes()
        header, body = split_checkpoint(raw)
        assert "seed" not in header["config"]
        legacy = tmp_path / "legacy.menkf"
        config = {**header["config"], "seed": 7}
        canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
        legacy.write_bytes(join_checkpoint(raw, {**header, "config": config, "config_sha256":
                                                 hashlib.sha256(canon.encode()).hexdigest()},
                                           body))
        loaded, loaded_cfg = load_checkpoint(legacy)
        np.testing.assert_array_equal(loaded.members, members)
        assert loaded_cfg == cfg
        dataset = tmp_path / "data.csv"
        write_dataset_csv(dataset, sample_replicate())
        for checkpoint in (path, legacy):
            assert main(["evaluate", "--checkpoint", str(checkpoint), "--dataset",
                         str(dataset), "--output-dir", str(tmp_path / checkpoint.stem)]) == 0
        for name in ("intervals.csv", "report.json"):
            assert ((tmp_path / "model" / name).read_bytes()
                    == (tmp_path / "legacy" / name).read_bytes())

    @pytest.mark.parametrize("section, key", [("header", "dim"), ("config", "init_var")])
    def test_repeated_header_key_is_rejected(self, tmp_path, section, key):
        # json.loads would keep the last value, and the hash covers only what it keeps
        path, *_ = self.roundtrip(tmp_path)
        raw = path.read_bytes()
        header, body = split_checkpoint(raw)
        value = (header if section == "header" else header["config"])[key]
        pair = f"{json.dumps(key)}: {json.dumps(value)}"
        text = json.dumps(header, sort_keys=True).replace(pair, f"{pair}, {pair}", 1).encode()
        path.write_bytes(raw[:12] + struct.pack("<Q", len(text)) + text + body)
        with pytest.raises(DataFormatError, match=f"corrupt header .*key '{key}' is repeated"):
            load_checkpoint(path)

    # the first seven cases keep ids that name the rule each one breaks
    @pytest.mark.parametrize("field, value, message", [
        pytest.param("n_members", None, r"header: missing keys \['n_members'\]",
                     id="n_members-None-'n_members' is missing"),
        pytest.param("n_members", "x", 'header.n_members: expected an integer, got "x"',
                     id="n_members-x-'n_members' must be a positive integer"),
        pytest.param("n_members", True, "header.n_members: expected an integer, got true",
                     id="n_members-True-'n_members' must be a positive integer"),
        pytest.param("dim", None, r"header: missing keys \['dim'\]",
                     id="dim-None-'dim' is missing"),
        pytest.param("dim", 70.0, "header.dim: expected an integer, got 70.0",
                     id="dim-70.0-'dim' must be a positive integer"),
        pytest.param("config", None, r"header: missing keys \['config'\]",
                     id="config-None-'config' is missing"),
        pytest.param("config", [1], r"header.config: expected an object, got \[1\]",
                     id="config-value6-'config' must be an object"),
        ("extra", 1, r"header: unknown keys \['extra'\]"),
        ("dtype", None, r"header: missing keys \['dtype'\]"),
        ("dtype", "<f4", "header: unsupported dtype '<f4'"),
        ("n_members", 0, "header: n_members must be >= 1, got 0"),
        ("dim", 0, "header: dim must be >= 1, got 0"),
        ("n_members", 3, "header: n_members 3 != config ensemble_size 8"),
        ("dim", 47, "header: dim 47 != config layout dim 46"),
    ])
    def test_malformed_header_field(self, tmp_path, capsys, field, value, message):
        path, *_ = self.roundtrip(tmp_path)
        raw = path.read_bytes()
        header, body = split_checkpoint(raw)
        if value is None:
            del header[field]
        else:
            header[field] = value
        if type(value) is int and value >= 1 and field in ("n_members", "dim"):
            # a body of the size the header claims, so that only the schema can refuse it
            body = np.resize(np.frombuffer(body), header["n_members"] * header["dim"]).tobytes()
        path.write_bytes(join_checkpoint(raw, header, body))
        with pytest.raises(DataFormatError, match=message):
            load_checkpoint(path)
        dataset = tmp_path / "data.csv"
        write_dataset_csv(dataset, sample_replicate())
        capsys.readouterr()
        assert main(["evaluate", "--checkpoint", str(path), "--dataset", str(dataset),
                     "--output-dir", str(tmp_path / "eval")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("menkf: ") and err.count("\n") == 1, err

    def test_header_nested_too_deeply_is_one_line(self, tmp_path, capsys):
        # json.loads recurses once per bracket
        path, *_ = self.roundtrip(tmp_path)
        raw = path.read_bytes()
        _, body = split_checkpoint(raw)
        text = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(raw[:12] + struct.pack("<Q", len(text)) + text + body)
        dataset = tmp_path / "data.csv"
        write_dataset_csv(dataset, sample_replicate())
        assert main(["evaluate", "--checkpoint", str(path), "--dataset", str(dataset),
                     "--output-dir", str(tmp_path / "eval")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"menkf: {path}: corrupt header (maximum recursion depth")

    def test_save_refuses_an_ensemble_of_another_size(self, tmp_path):
        cfg = sample_config()
        members = np.zeros((cfg.ensemble_size + 1, cfg.layout().dim))
        with pytest.raises(InvalidInputError, match="n_members 9 != config ensemble_size 8"):
            save_checkpoint(tmp_path / "model.menkf", Ensemble(members), cfg)
        assert not (tmp_path / "model.menkf").exists()

    def test_not_a_file_shape(self, tmp_path):
        path = tmp_path / "junk.menkf"
        path.write_bytes(b"short")
        with pytest.raises(DataFormatError, match="not a checkpoint"):
            load_checkpoint(path)


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    cfg = sample_config()
    path = tmp_path_factory.mktemp("ckpt") / "model.menkf"
    members = np.random.default_rng(1).standard_normal((cfg.ensemble_size, cfg.layout().dim))
    save_checkpoint(path, Ensemble(members), cfg)
    return path.read_bytes()


def mutated(raw):
    """Mutations of a valid checkpoint: truncation, one flipped byte, any u64
    header length, or any header value replaced by any JSON scalar."""
    header, body = split_checkpoint(raw)

    def flip(at, mask):
        return raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1:]

    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda k: raw[:k]),
        st.builds(flip, st.integers(0, len(raw) - 1), st.integers(1, 255)),
        st.integers(0, 2**64 - 1).map(lambda n: raw[:12] + struct.pack("<Q", n) + raw[20:]),
        st.builds(lambda path, value: join_checkpoint(raw, assign(header, path, value), body),
                  st.sampled_from(sorted(key_paths(header))), JSON_SCALARS))


class TestCheckpointFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_load_returns_or_raises_data_format_error(self, tmp_path_factory,
                                                       checkpoint_bytes, data):
        path = tmp_path_factory.getbasetemp() / "fuzzed.menkf"
        path.write_bytes(data.draw(mutated(checkpoint_bytes)))
        try:
            load_checkpoint(path)
        except DataFormatError:
            pass


class TestManifest:
    def test_verify_clean_and_tampered(self, tmp_path):
        (tmp_path / "a.csv").write_text("x\n1\n")
        (tmp_path / "b.csv").write_text("y\n2\n")
        manifest = tmp_path / "manifest.json"
        write_manifest(manifest, seed=0, scenario="well_specified",
                       files={"a.csv": tmp_path / "a.csv", "b.csv": tmp_path / "b.csv"})
        assert verify_manifest(manifest) == []
        (tmp_path / "a.csv").write_text("x\n999\n")
        assert verify_manifest(manifest) == ["a.csv"]
        (tmp_path / "b.csv").unlink()
        assert sorted(verify_manifest(manifest)) == ["a.csv", "b.csv"]

    def test_sha256_matches_known_digest(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        assert sha256_file(path) == ("ba7816bf8f01cfea414140de5dae2223"
                                     "b00361a396177a9cb410ff61f20015ad")


FINITE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                 | st.sampled_from([5e-324, -5e-324, 2.225e-308, -0.0, 1.7e308, -1.7e308]))
INT64S = st.integers(min_value=-2**63, max_value=2**63 - 1)


@st.composite
def table_columns(draw):
    """(columns, values): columns in every form write_rows_csv takes, and
    the Python int or float each cell must read back as."""
    n = draw(st.integers(0, 12))
    columns, values = {}, {}
    for i in range(draw(st.integers(1, 5))):
        form = draw(st.sampled_from(["ints", "int64", "range", "float64", "scalars"]))
        if form == "range":
            start, step = draw(st.integers(-2**40, 2**40)), draw(st.integers(1, 9))
            column = range(start, start + n * step, step)
            cells = list(column)
        else:
            cells = draw(st.lists(INT64S if form in ("ints", "int64") else FINITE_FLOATS,
                                  min_size=n, max_size=n))
            column = (cells if form == "ints"
                      else np.array(cells, dtype=np.int64) if form == "int64"
                      else np.array(cells, dtype=np.float64) if form == "float64"
                      else [np.float64(v) for v in cells])
        columns[f"c{i}"], values[f"c{i}"] = column, cells
    return columns, values


class TestRowsCsv:
    def test_int_and_float_formatting(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(path, {"step": [3], "value": [0.1]})
        assert path.read_bytes() == b"step,value\r\n3,0.1\r\n"

    @given(table_columns())
    @settings(max_examples=200, deadline=None)
    def test_every_cell_reads_back_bitwise(self, tmp_path_factory, table):
        columns, values = table
        path = tmp_path_factory.mktemp("rows") / "rows.csv"
        write_rows_csv(path, columns)
        with open(path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert header == list(columns)
        assert len(body) == len(next(iter(values.values())))
        # csv.writer would quote nothing here: the hand-joined lines are its bytes
        oracle = io.StringIO()
        writer = csv.writer(oracle)
        writer.writerow(columns)
        writer.writerows(zip(*([repr(v) for v in values[name]] for name in columns)))
        assert path.read_bytes() == oracle.getvalue().encode()
        for j, name in enumerate(header):
            for row, expected in zip(body, values[name]):
                assert "np." not in row[j]
                if isinstance(expected, int):
                    assert int(row[j]) == expected
                else:
                    got = float(row[j])
                    assert struct.pack("<d", got) == struct.pack("<d", expected)

    @given(st.integers(0, 6), st.integers(1, 4), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_unequal_columns_raise(self, tmp_path_factory, n, extra, longer_first):
        lengths = (n + extra, n) if longer_first else (n, n + extra)
        columns = {"a": np.zeros(lengths[0]), "b": range(lengths[1])}
        with pytest.raises(ValueError):
            write_rows_csv(tmp_path_factory.mktemp("rows") / "rows.csv", columns)

    def test_json_write_is_stable(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"b": 1, "a": [1, 2]})
        assert path.read_text() == '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
