"""File formats: CSV datasets, JSON documents, manifests and checkpoints.
The JSON schema of the config dataclasses is config's to_dict / from_dict.

Everything written here is deterministic for identical inputs — floats
are serialized with repr (shortest round-trip), JSON keys are sorted,
and no timestamps or absolute paths are embedded — so byte-for-byte
comparison of outputs is a meaningful reproducibility check.

Checkpoint binary layout (little-endian); the first three fields are the
one struct _PREFIX, packed on save and unpacked on load:

    bytes 0..7    magic b"MENKFCKP"
    u32           format version (currently 1)
    u64           header length in bytes
    header        UTF-8 JSON object of the _Header schema, keys sorted
    body          n_members * dim float64 values, row-major

The body round-trips bitwise; loading reads the header with from_dict,
which refuses counts that disagree with the embedded config, re-hashes
the config and refuses a header that was edited.
"""

import array
import dataclasses
import hashlib
import io
import json
import math
import struct
from itertools import takewhile
from pathlib import Path

import numpy as np

from .config import _plain, _unique_keys, from_dict, read_json, to_dict  # read_json: a re-export
from .enkf import Ensemble
from .exceptions import ConfigError, DataFormatError, InvalidInputError
from .simgen import Replicate
from .trainer import MenkfConfig

_MAGIC = b"MENKFCKP"
_VERSION = 1
_PREFIX = struct.Struct("<8sIQ")  # magic, format version, header length
_INT64 = np.iinfo(np.int64)
_CHUNK_CHARS = 1 << 16  # readlines hint: the lines of one bulk-parsed chunk
_BLANK = frozenset({"\n", "\r\n", "\r"})  # a line of its line end alone
# each dataset cell's parse, check and name; every other cell is a finite float
_CELL_RULES = {"true_prob": (float, lambda x: 0.0 <= x <= 1.0, "a finite number in [0, 1]"),
               "label": (int, lambda x: _INT64.min <= x <= _INT64.max, "an int64 integer")}
_FINITE = (float, math.isfinite, "a finite number")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- datasets

def dataset_header(p: int, q: int, true_prob: bool = True, label: bool = True) -> list[str]:
    return ([f"emb_f_{i}" for i in range(p)] + [f"emb_g_{i}" for i in range(q)]
            + ["target_logit"] + ["true_prob"] * true_prob + ["label"] * label)


def write_dataset_csv(path, rep: Replicate) -> None:
    """rep as the CSV read_dataset_csv reads; a None true_prob or labels is left out."""
    columns = [*rep.v_f.T, *rep.v_g.T, rep.target_logits, rep.true_prob, rep.labels]
    header = dataset_header(rep.v_f.shape[1], rep.v_g.shape[1])
    write_rows_csv(path, {name: column for name, column in zip(header, columns, strict=True)
                          if column is not None})


def read_dataset_csv(path) -> Replicate:
    """Parse a dataset CSV; errors name the row and column at fault.

    The header must be dataset_header(p, q, ...) exactly, where p and q
    are the lengths of its leading emb_f_* and emb_g_* runs; true_prob
    and labels are None when their columns are absent. Each line loses
    its line end and is split on commas, with no quoting, as
    write_rows_csv writes it. The rows are read about 64 KiB at a time,
    so the file's text is never held whole: np.loadtxt parses a chunk
    in bulk, and a chunk it cannot read goes to the per-row parser,
    which names the cell at fault.
    """
    try:
        with open(path, newline="\n", encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise DataFormatError(f"{path}: empty file")
            return _read_rows(path, _unended(header).split(","), fh)
    except UnicodeDecodeError as err:
        raise DataFormatError(f"{path}: not a readable UTF-8 CSV file ({err})") from err


def _unended(line: str) -> str:
    return line.removesuffix("\n").removesuffix("\r")


def _read_rows(path, header: list[str], fh) -> Replicate:
    p = len(list(takewhile(lambda name: name.startswith("emb_f_"), header)))
    q = len(list(takewhile(lambda name: name.startswith("emb_g_"), header[p:])))
    has_prob, has_label = "true_prob" in header, "label" in header
    expected = dataset_header(max(p, 1), max(q, 1), has_prob, has_label)
    if header != expected:
        col = next(i for i in range(len(header) + 1) if header[i:i + 1] != expected[i:i + 1])
        got = repr(header[col]) if col < len(header) else "missing"
        want = repr(expected[col]) if col < len(expected) else "no further column"
        raise DataFormatError(f"{path}: header column {col + 1} is {got}, expected {want}")
    n_float = p + q + 1 + has_prob  # the leading cells; label, if any, is the last

    tables, labels, first_row = [], [], 2  # rows are 1-based, counting the header line
    while lines := fh.readlines(_CHUNK_CHARS):
        table, chunk_labels = (_bulk_rows(lines, len(header), n_float, has_prob, has_label)
                               or _each_row(path, header, n_float, has_label, lines, first_row))
        tables.append(table)
        labels.append(chunk_labels)
        first_row += len(lines)
    if not tables:
        raise DataFormatError(f"{path}: no data rows")

    def column(cols):
        return np.concatenate([table[:, cols] for table in tables])

    return Replicate(v_f=column(slice(0, p)), v_g=column(slice(p, p + q)),
                     labels=np.concatenate(labels) if has_label else None,
                     target_logits=column(p + q),
                     true_prob=column(p + q + 1) if has_prob else None)


def _bulk_rows(lines: list[str], n_cols: int, n_float: int, has_prob: bool, has_label: bool):
    """(table, labels) of a chunk of lines, parsed by np.loadtxt; None when
    _each_row would refuse the chunk. On _plain text loadtxt converts a
    cell as float() does, so a chunk read here reads bitwise as _each_row
    would read it, and every chunk _each_row reads is read here."""
    if not _BLANK.isdisjoint(lines) or not _plain("".join(map(_unended, lines))):
        return None  # loadtxt would skip a blank line, or warn of a chunk of them
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        labels = (np.array([int(line.rpartition(",")[2]) for line in lines], dtype=np.int64)
                  if has_label else None)
    except (ValueError, OverflowError):  # a malformed cell, or a label outside int64
        return None
    if table.shape != (len(lines), n_cols) or not np.isfinite(table[:, :n_float]).all():
        return None  # a row of another width, or a nan or inf
    if has_prob and (table[:, n_float - 1].min() < 0.0 or table[:, n_float - 1].max() > 1.0):
        return None  # a true_prob outside [0, 1]
    return table, labels


def _each_row(path, header: list[str], n_float: int, has_label: bool, lines: list[str],
              first_row: int):
    """(table, labels) of a chunk of lines, one cell at a time; the first
    fault raises a DataFormatError naming its row, first_row onwards, and
    its column. It runs only on a chunk _bulk_rows refused, to name the
    fault, and it is the reference the tests compare _bulk_rows against."""
    def parse(row_num, row, col_idx):
        text = row[col_idx]
        convert, ok, kind = _CELL_RULES.get(header[col_idx], _FINITE)
        try:
            value = convert(text)
            if _plain(text) and ok(value):
                return value
        except ValueError:
            pass
        raise DataFormatError(f"{path}: row {row_num}, column {header[col_idx]!r}: "
                              f"{text!r} is not {kind}")

    values = array.array("d")
    labels = []
    for row_num, line in enumerate(map(_unended, lines), start=first_row):
        row = line.split(",")
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}")
        values.extend(parse(row_num, row, c) for c in range(n_float))
        if has_label:
            labels.append(parse(row_num, row, n_float))
    return (np.frombuffer(values, dtype=float).reshape(-1, n_float),
            np.array(labels, dtype=np.int64) if has_label else None)


# -------------------------------------------------------------- checkpoint

def _config_hash(cfg_dict: dict) -> str:
    canon = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class _Header:
    """The checkpoint header's JSON schema; every key is required."""

    config: MenkfConfig
    config_sha256: str
    n_members: int
    dim: int
    dtype: str

    def __post_init__(self):
        for name in ("n_members", "dim"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.dtype != "<f8":
            raise InvalidInputError(f"unsupported dtype {self.dtype!r}")
        if self.n_members != self.config.ensemble_size:
            raise InvalidInputError(f"n_members {self.n_members} != config ensemble_size "
                                    f"{self.config.ensemble_size}")
        layout_dim = self.config.layout().dim
        if self.dim != layout_dim:
            raise InvalidInputError(f"dim {self.dim} != config layout dim {layout_dim}")


def save_checkpoint(path, ensemble: Ensemble, cfg: MenkfConfig) -> None:
    header = _Header(config=cfg, config_sha256=_config_hash(to_dict(cfg)),
                     n_members=ensemble.size, dim=ensemble.dim, dtype="<f8")
    header_bytes = json.dumps(to_dict(header), sort_keys=True).encode()
    body = np.ascontiguousarray(ensemble.members, dtype="<f8")
    with open(path, "wb") as fh:  # three writes: concatenating would copy the body
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(memoryview(body).cast("B"))  # the members' own bytes, not a copy


def load_checkpoint(path) -> tuple[Ensemble, MenkfConfig]:
    with open(path, "rb") as file:
        fh = file if file.seekable() else io.BytesIO(file.read())  # a pipe is read whole
        size = fh.seek(0, io.SEEK_END)
        fh.seek(0)
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size or not prefix.startswith(_MAGIC):
            raise DataFormatError(f"{path}: not a checkpoint file")
        _, version, header_len = _PREFIX.unpack(prefix)
        if version != _VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        if _PREFIX.size + header_len > size:
            raise DataFormatError(f"{path}: truncated header")
        try:
            doc = json.loads(fh.read(header_len).decode(), object_pairs_hook=_unique_keys)
            config = doc.get("config") if isinstance(doc, dict) else None
            if isinstance(config, dict):  # hashed as written; an older header's seed is dropped
                doc["config"] = {key: value for key, value in config.items() if key != "seed"}
            header = from_dict(_Header, doc, "header")
        except ConfigError as err:
            raise DataFormatError(f"{path}: {err}") from err
        except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nested too deep
            raise DataFormatError(f"{path}: corrupt header ({err})") from err
        if header.config_sha256 != _config_hash(config):
            raise DataFormatError(f"{path}: config hash mismatch")
        n, d = header.n_members, header.dim
        body_len = size - fh.tell()
        if body_len == n * d * 8:  # then read straight into the members, not copied
            members = np.empty((n, d), dtype="<f8")
            body_len = fh.readinto(memoryview(members).cast("B"))  # short if it shrank
        if body_len != n * d * 8:  # the product can have more digits than str() writes
            raise DataFormatError(f"{path}: body is {body_len} bytes, "
                                  f"expected n_members x dim x 8 = {n} x {d} x 8")
    try:
        ensemble = Ensemble(members)
    except InvalidInputError as err:
        raise DataFormatError(f"{path}: {err}") from err
    return ensemble, header.config


# --------------------------------------------------------------- manifests

def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, seed: int, scenario: str, files: dict) -> None:
    """files maps manifest-relative names to on-disk paths to checksum."""
    manifest = {
        "seed": seed,
        "scenario": scenario,
        "files": {name: sha256_file(p) for name, p in sorted(files.items())},
    }
    write_json(path, manifest)


# ------------------------------------------------------------- flat tables

def write_rows_csv(path, columns: dict) -> None:
    """A table of equal-length columns, keyed by header name in order.

    Every cell is a Python int or float after tolist(), written by repr,
    so that it reads back bitwise; unequal column lengths raise ValueError.
    Lines are joined by hand and end in CRLF, as csv.writer's would: no
    repr of a number and no menkf column name needs quoting.
    """
    cells = [np.asarray(column).tolist() for column in columns.values()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in zip(*cells, strict=True))
