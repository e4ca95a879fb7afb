"""File formats: CSV datasets, JSON documents, manifests, checkpoints,
and the one JSON schema of every config dataclass.

Everything written here is deterministic for identical inputs — floats
are serialized with repr (shortest round-trip), JSON keys are sorted,
and no timestamps or absolute paths are embedded — so byte-for-byte
comparison of outputs is a meaningful reproducibility check.

Checkpoint binary layout (little-endian):

    bytes 0..7    magic b"MENKFCKP"
    u32           format version (currently 1)
    u64           header length in bytes
    header        UTF-8 JSON object of the _Header schema, keys sorted
    body          n_members * dim float64 values, row-major

The body round-trips bitwise; loading reads the header with from_dict,
re-hashes the embedded config and refuses a header that was edited.

Config dataclasses (the run config, the trainer config, arm specs) map
to JSON through to_dict / from_dict, driven by the dataclass fields and
their type hints: a nested dataclass is a JSON object, a tuple a list.
from_dict rejects unknown keys and checks every value strictly.
"""

import array
import csv
import dataclasses
import hashlib
import json
import math
import operator
import struct
import types
import typing
from pathlib import Path

import numpy as np

from .enkf import Ensemble
from .exceptions import ConfigError, DataFormatError, InvalidInputError
from .simgen import Replicate
from .trainer import MenkfConfig

_MAGIC = b"MENKFCKP"
_VERSION = 1
_INT64 = np.iinfo(np.int64)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from err


# ---------------------------------------------------------------- datasets

def dataset_header(p: int, q: int) -> list[str]:
    return ([f"emb_f_{i}" for i in range(p)] + [f"emb_g_{i}" for i in range(q)]
            + ["target_logit", "true_prob", "label"])


def write_dataset_csv(path, rep: Replicate) -> None:
    values = np.column_stack([rep.v_f, rep.v_g, rep.target_logits, rep.true_prob])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset_header(rep.v_f.shape[1], rep.v_g.shape[1]))
        writer.writerows([*map(repr, row), str(int(label))]
                         for row, label in zip(values.tolist(), rep.labels.tolist()))


def _block_columns(header: list[str], prefix: str, path) -> list[int]:
    # contiguous numbering 0..k-1 is required; anything else is malformed
    found = {}
    for idx, name in enumerate(header):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            try:
                index = int(suffix)
            except ValueError:
                index = None
            # the canonical spelling only, so that emb_f_01 cannot stand in for emb_f_1
            if index is None or str(index) != suffix:
                raise DataFormatError(f"{path}: bad column name {name!r}")
            found[index] = idx
    if not found:
        raise DataFormatError(f"{path}: no {prefix}* columns found")
    if sorted(found) != list(range(len(found))):
        raise DataFormatError(f"{path}: {prefix}* columns are not contiguous from 0")
    return [found[i] for i in range(len(found))]


def read_dataset_csv(path) -> Replicate:
    """Parse a dataset CSV; errors name the row and column at fault.

    true_prob and labels are None when their columns are absent. Rows
    are converted one at a time into one float buffer, so the file's
    text is never held whole.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            return _read_rows(path, header, reader)
    except (UnicodeDecodeError, csv.Error) as err:
        raise DataFormatError(f"{path}: not a readable UTF-8 CSV file ({err})") from err


def _read_rows(path, header: list[str], reader) -> Replicate:
    repeated = next((name for i, name in enumerate(header) if name in header[:i]), None)
    if repeated is not None:
        raise DataFormatError(f"{path}: column {repeated!r} appears more than once")
    f_cols = _block_columns(header, "emb_f_", path)
    g_cols = _block_columns(header, "emb_g_", path)
    if "target_logit" not in header:
        raise DataFormatError(f"{path}: missing target_logit column")
    named = {name: idx for idx, name in enumerate(header)}
    has_prob, has_label = "true_prob" in named, "label" in named
    float_cols = f_cols + g_cols + [named["target_logit"]] + (
        [named["true_prob"]] if has_prob else [])
    pick = operator.itemgetter(*float_cols)

    def parse(row_num, row, col_idx, as_int=False):
        text = row[col_idx]
        try:
            value = int(text) if as_int else float(text)
            if (_INT64.min <= value <= _INT64.max) if as_int else math.isfinite(value):
                return value
        except ValueError:
            pass
        kind = "an int64 integer" if as_int else "a finite number"
        raise DataFormatError(f"{path}: row {row_num}, column {header[col_idx]!r}: "
                              f"{text!r} is not {kind}")

    values = array.array("d")
    labels = []
    for row_num, row in enumerate(reader, start=2):  # 1-based, counting the header line
        if len(row) != len(header):
            raise DataFormatError(
                f"{path}: row {row_num} has {len(row)} fields, expected {len(header)}")
        try:
            converted = tuple(map(float, pick(row)))
            ok = math.isfinite(sum(converted))  # a nan or inf anywhere spoils the sum
        except ValueError:
            ok = False
        if not ok:  # find the cell at fault; a sum that merely overflowed passes
            converted = tuple(parse(row_num, row, c) for c in float_cols)
        values.extend(converted)
        if has_label:
            labels.append(parse(row_num, row, named["label"], as_int=True))
    if not values:
        raise DataFormatError(f"{path}: no data rows")
    table = np.frombuffer(values, dtype=float).reshape(-1, len(float_cols))
    p, q = len(f_cols), len(g_cols)
    return Replicate(v_f=np.ascontiguousarray(table[:, :p]),
                     v_g=np.ascontiguousarray(table[:, p:p + q]),
                     labels=np.array(labels, dtype=np.int64) if has_label else None,
                     target_logits=table[:, p + q].copy(),
                     true_prob=table[:, p + q + 1].copy() if has_prob else None)


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
        raise ConfigError(f"{section}: expected an object, got {json.dumps(doc)}")
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


def _from_json(tp, value, where: str):
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    if typing.get_origin(tp) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    if typing.get_origin(tp) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {json.dumps(value)}")
        item = typing.get_args(tp)[0]
        return tuple(_from_json(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            pass
    if type(value) is not tp or (tp is float and not math.isfinite(value)):
        raise ConfigError(f"{where}: expected {_EXPECTED[tp]}, got {json.dumps(value)}")
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


def save_checkpoint(path, ensemble: Ensemble, cfg: MenkfConfig) -> None:
    header = _Header(config=cfg, config_sha256=_config_hash(to_dict(cfg)),
                     n_members=ensemble.size, dim=ensemble.dim, dtype="<f8")
    header_bytes = json.dumps(to_dict(header), sort_keys=True).encode()
    body = np.ascontiguousarray(ensemble.members, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(body)


def load_checkpoint(path) -> tuple[Ensemble, MenkfConfig]:
    raw = Path(path).read_bytes()
    if len(raw) < len(_MAGIC) + 12 or raw[:len(_MAGIC)] != _MAGIC:
        raise DataFormatError(f"{path}: not a checkpoint file")
    offset = len(_MAGIC)
    (version,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    if offset + header_len > len(raw):
        raise DataFormatError(f"{path}: truncated header")
    try:
        doc = json.loads(raw[offset:offset + header_len].decode())
        header = from_dict(_Header, doc, "header")
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DataFormatError(f"{path}: corrupt header ({err})") from err
    except ConfigError as err:
        raise DataFormatError(f"{path}: {err}") from err
    if header.config_sha256 != _config_hash(doc["config"]):
        raise DataFormatError(f"{path}: config hash mismatch")
    n, d, cfg = header.n_members, header.dim, header.config
    body = raw[offset + header_len:]
    if len(body) != n * d * 8:
        raise DataFormatError(f"{path}: body is {len(body)} bytes, expected {n * d * 8}")
    try:
        ensemble = Ensemble(np.frombuffer(body, dtype="<f8").reshape(n, d).copy())
    except InvalidInputError as err:
        raise DataFormatError(f"{path}: {err}") from err
    if cfg.layout().dim != d:
        raise DataFormatError(f"{path}: config layout dim {cfg.layout().dim} != stored dim {d}")
    return ensemble, cfg


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
    """
    cells = [np.asarray(column).tolist() for column in columns.values()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(map(repr, row) for row in zip(*cells, strict=True))
