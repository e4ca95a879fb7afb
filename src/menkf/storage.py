"""File formats: CSV datasets, JSON documents, manifests, checkpoints,
and the one JSON schema of every config dataclass.

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

Config dataclasses (the run config, the trainer config, arm specs) map
to JSON through to_dict / from_dict, driven by the dataclass fields and
their type hints: a nested dataclass is a JSON object, a tuple a list.
from_dict rejects unknown keys and checks every value strictly.
"""

import array
import dataclasses
import hashlib
import json
import math
import struct
import types
import typing
from itertools import takewhile
from pathlib import Path

import numpy as np

from .enkf import Ensemble
from .exceptions import ConfigError, DataFormatError, InvalidInputError
from .simgen import Replicate
from .trainer import MenkfConfig

_MAGIC = b"MENKFCKP"
_VERSION = 1
_PREFIX = struct.Struct("<8sIQ")  # magic, format version, header length
_INT64 = np.iinfo(np.int64)
_CHUNK_CHARS = 1 << 16  # readlines hint: the lines of one bulk-parsed chunk


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep the last of a repeated key; a document holds each once
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is repeated")
    return doc


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(f"{path}: invalid JSON ({err})") from err


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


def _plain(text: str) -> bool:
    # a text float() reads as finite, or int() reads, is of these bytes unless it holds
    # a "_", a non-ASCII digit or padding whitespace, none of which a cell may hold
    return text.isascii() and not text.encode().translate(None, b"0123456789.eE+-,")


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
        with open(path, newline="\n") as fh:
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
        table, chunk_labels = (_bulk_rows(lines, len(header), n_float, has_label)
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


def _bulk_rows(lines: list[str], n_cols: int, n_float: int, has_label: bool):
    """(table, labels) of a chunk of lines, parsed by np.loadtxt; None when
    _each_row would refuse the chunk. On _plain text loadtxt converts a
    cell as float() does, so a chunk read here reads bitwise as _each_row
    would read it, and every chunk _each_row reads is read here."""
    if not _plain("".join(map(_unended, lines))):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        labels = (np.array([int(line.rpartition(",")[2]) for line in lines], dtype=np.int64)
                  if has_label else None)
    except (ValueError, OverflowError):  # a malformed cell, or a label outside int64
        return None
    if table.shape != (len(lines), n_cols) or not np.isfinite(table[:, :n_float]).all():
        return None  # a blank line, which loadtxt skips, or a nan or inf
    return table, labels


def _each_row(path, header: list[str], n_float: int, has_label: bool, lines: list[str],
              first_row: int):
    """(table, labels) of a chunk of lines, one cell at a time; the first
    fault raises a DataFormatError naming its row, first_row onwards, and
    its column. It runs only on a chunk _bulk_rows refused, to name the
    fault, and it is the reference the tests compare _bulk_rows against."""
    def parse(row_num, row, col_idx, as_int=False):
        text = row[col_idx]
        try:
            value = int(text) if as_int else float(text)
            if _plain(text) and ((_INT64.min <= value <= _INT64.max) if as_int
                                 else math.isfinite(value)):
                return value
        except ValueError:
            pass
        kind = "an int64 integer" if as_int else "a finite number"
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
            labels.append(parse(row_num, row, n_float, as_int=True))
    return (np.frombuffer(values, dtype=float).reshape(-1, n_float),
            np.array(labels, dtype=np.int64) if has_label else None)


# ----------------------------------------------------------- config schema

_EXPECTED = {bool: "a boolean", int: "an integer", float: "a finite number",
             str: "a string"}


def to_dict(cfg) -> dict:
    """JSON form of a config dataclass, one key per field."""
    return {f.name: _to_json(getattr(cfg, f.name)) for f in dataclasses.fields(cfg)}


def _to_json(value):
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    return list(value) if isinstance(value, tuple) else value


def from_dict(cls, doc, where: str = ""):
    """Build config dataclass cls from its JSON form; missing keys take defaults.

    Unknown keys, wrong JSON types (a bool is never a number, a count must
    be an integer; an integer is accepted for a float) and values the
    dataclass rejects raise a ConfigError naming section.field.
    """
    section = where or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{section}: expected an object, got {_shown(doc)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"{section}: unknown keys {unknown}")
    missing = [name for name, f in fields.items() if name not in doc
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{section}: missing keys {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {name: _from_json(hints[name], value, f"{where}.{name}" if where else name)
              for name, value in doc.items()}
    try:
        return cls(**kwargs)
    except InvalidInputError as err:
        raise ConfigError(f"{section}: {err}") from err


def _shown(value) -> str:
    try:
        return json.dumps(value)
    except RecursionError:  # a JSON value can nest deeper than json.dumps recurses
        return f"a {type(value).__name__} nested too deeply to show"


def _from_json(tp, value, where: str):
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {_shown(value)}")
        item = typing.get_args(tp)[0]
        return tuple(_from_json(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ConfigError(f"{where}: expected {_EXPECTED[tp]}, got {_shown(value)}")
    return value


def _config_hash(cfg_dict: dict) -> str:
    canon = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -------------------------------------------------------------- checkpoint

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
    body = np.ascontiguousarray(ensemble.members, dtype="<f8").tobytes()
    with open(path, "wb") as fh:  # three writes: concatenating would copy the body
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(body)


def load_checkpoint(path) -> tuple[Ensemble, MenkfConfig]:
    raw = Path(path).read_bytes()
    if len(raw) < _PREFIX.size or not raw.startswith(_MAGIC):
        raise DataFormatError(f"{path}: not a checkpoint file")
    _, version, header_len = _PREFIX.unpack_from(raw)
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    header_end = _PREFIX.size + header_len
    if header_end > len(raw):
        raise DataFormatError(f"{path}: truncated header")
    try:
        doc = json.loads(raw[_PREFIX.size:header_end].decode(), object_pairs_hook=_unique_keys)
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
    body = raw[header_end:]
    if len(body) != n * d * 8:
        raise DataFormatError(f"{path}: body is {len(body)} bytes, expected {n * d * 8}")
    try:
        ensemble = Ensemble(np.frombuffer(body, dtype="<f8").reshape(n, d).copy())
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
