"""The run config (RunConfig, its sections, ArmSpec and the study presets)
and the one JSON schema of every config dataclass. It imports no numpy,
so a command that only prints or refuses a config never loads it.

Config dataclasses map to JSON through to_dict / from_dict, driven by
the dataclass fields and their type hints: a nested dataclass is a JSON
object, a tuple a list. from_dict rejects unknown keys and checks every
value strictly.
"""

import dataclasses
import json
import math
import os
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ConfigError, InvalidInputError

ACTIVATIONS = ("identity", "tanh", "relu")  # arms holds each one's function
SCENARIOS = ("well_specified", "misspecified", "stacked_average")
MAX_REPLICATES = 1000  # simulate names them rep_000 ... rep_999
_VARIANCE_INITS = ("gaussian", "gamma_shape_scale")


@dataclass(frozen=True)
class ArmSpec:
    """Architecture of one arm: input width, hidden widths, activation."""

    input_dim: int
    hidden_dims: tuple[int, ...] = (16,)
    activation: str = "tanh"

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise InvalidInputError(f"input_dim must be >= 1, got {self.input_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise InvalidInputError(f"hidden sizes must be >= 1, got {self.hidden_dims}")
        if self.activation not in ACTIVATIONS:
            raise InvalidInputError(
                f"unknown activation {self.activation!r}; choose from {sorted(ACTIVATIONS)}")

    def layer_dims(self) -> list[tuple[int, int]]:
        widths = [self.input_dim, *self.hidden_dims, 1]
        return list(zip(widths[:-1], widths[1:]))


@dataclass(frozen=True)
class SimConfig:
    """Generator settings; seed is owned by the caller's RngStream."""

    m: int = 74
    replicates: int = 50
    perturb_sd: float = 0.01
    threshold: float = 0.5
    p: int = 32
    q: int = 32
    scenario: str = "well_specified"
    surrogate_sd: float = 0.05

    def __post_init__(self):
        if self.m < 2:
            raise InvalidInputError(f"m must be >= 2, got {self.m}")
        if not 1 <= self.replicates <= MAX_REPLICATES:
            raise InvalidInputError(
                f"replicates must be in [1, {MAX_REPLICATES}], got {self.replicates}")
        if self.perturb_sd < 0.0:
            raise InvalidInputError(f"perturb_sd must be >= 0, got {self.perturb_sd}")
        if not 0.0 < self.threshold < 1.0:
            raise InvalidInputError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.p < 1 or self.q < 1:
            raise InvalidInputError("feature widths p and q must be >= 1")
        if self.scenario not in SCENARIOS:
            raise InvalidInputError(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.surrogate_sd < 0.0:
            raise InvalidInputError(f"surrogate_sd must be >= 0, got {self.surrogate_sd}")


@dataclass(frozen=True, kw_only=True)
class TrainerOptions:
    """Trainer options that the run config and the checkpoint share,
    declared and checked once; the defaults are the checkpoint's."""

    ensemble_size: int = 216
    init_var: float = 16.0
    batch_size: int = 16
    passes_over_data: int = 1
    jitter_var: float = 0.0
    variance_init: str = "gaussian"
    shuffle_batches: bool = False

    def __post_init__(self):
        if self.ensemble_size < 2:
            raise InvalidInputError(f"ensemble_size must be >= 2, got {self.ensemble_size}")
        if self.init_var <= 0.0:
            raise InvalidInputError(f"init_var must be > 0, got {self.init_var}")
        if self.batch_size < 1:
            raise InvalidInputError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.passes_over_data < 1:
            raise InvalidInputError(f"passes_over_data must be >= 1, got {self.passes_over_data}")
        if self.jitter_var < 0.0:
            raise InvalidInputError(f"jitter_var must be >= 0, got {self.jitter_var}")
        if self.variance_init not in _VARIANCE_INITS:
            raise InvalidInputError(
                f"variance_init must be one of {_VARIANCE_INITS}, got {self.variance_init!r}")


@dataclass(frozen=True, kw_only=True)
class TrainerSettings(TrainerOptions):
    """Trainer section of the run config: TrainerOptions and the arms'
    hidden widths and activation; arm input widths come from data.

    The default arms are affine: with a symmetric zero-mean ensemble,
    hidden-layer weights carry no covariance with the prediction, so
    their Kalman updates would be pure sampling noise. Affine arms make
    every coordinate identified. The small weight jitter keeps ensemble
    spread honest across repeated passes. Hidden arms stay available
    through hidden_dims_f / hidden_dims_g. Four defaults differ on purpose.
    """

    hidden_dims_f: tuple[int, ...] = ()
    hidden_dims_g: tuple[int, ...] = ()
    activation: str = "identity"
    batch_size: int = 11
    passes_over_data: int = 3
    jitter_var: float = 0.01
    variance_init: str = "gamma_shape_scale"

    def __post_init__(self):  # make_config's checks, at load time
        ArmSpec(1, self.hidden_dims_f, self.activation)
        ArmSpec(1, self.hidden_dims_g, self.activation)
        super().__post_init__()

    def make_config(self, p: int, q: int):
        """The trainer.MenkfConfig of these settings for arm input widths p and q."""
        from .trainer import MenkfConfig  # the trainer's numerics load only when one is built
        return MenkfConfig(arm_f=ArmSpec(p, self.hidden_dims_f, self.activation),
                           arm_g=ArmSpec(q, self.hidden_dims_g, self.activation),
                           **{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(TrainerOptions)})


@dataclass(frozen=True)
class SplitSettings:
    """Rows per replicate for training and for testing."""

    train_n: int = 66
    test_n: int = 8

    def __post_init__(self):
        for name in ("train_n", "test_n"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class RunConfig:
    """The whole run config; its JSON form is to_dict(cfg)."""

    seed: int = 0
    output_dir: str = "menkf-out"
    parallel: bool = False
    sim: SimConfig = SimConfig()
    trainer: TrainerSettings = TrainerSettings()
    split: SplitSettings = SplitSettings()

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:  # RngStream reads a seed modulo 2**64
            raise InvalidInputError(f"seed must be in [0, 2**64 - 1], got {self.seed}")

    @property
    def train_n(self) -> int:
        return self.split.train_n

    @property
    def test_n(self) -> int:
        return self.split.test_n


def study_preset(scenario: str) -> RunConfig:
    """Frozen run configuration for one scenario's replicate study.

    The default trainer, except that the stacked scenario uses a larger,
    tighter-prior ensemble and more passes so the arm weight settles by
    fit quality rather than by initialization luck.
    """
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; expected one of {list(SCENARIOS)}")
    trainer = TrainerSettings()
    if scenario == "stacked_average":
        trainer = dataclasses.replace(trainer, ensemble_size=433, init_var=2.0,
                                      passes_over_data=5)
    return RunConfig(sim=SimConfig(scenario=scenario), trainer=trainer)


def load_run_config(path) -> RunConfig:
    cfg = from_dict(RunConfig, read_json(path))
    env_seed = os.environ.get("MENKF_SEED")
    if env_seed is not None:
        try:
            if not _plain(env_seed):  # int() strips padding, reads "4_1" and non-ASCII digits
                raise ValueError(env_seed)
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"MENKF_SEED={env_seed!r} is not an integer") from None
        try:
            cfg = dataclasses.replace(cfg, seed=seed)
        except InvalidInputError as err:
            raise ConfigError(f"MENKF_SEED: {err}") from None
    return cfg


# ------------------------------------------------------------- JSON schema

def _unique_keys(pairs: list) -> dict:
    # json.loads would keep the last of a repeated key; a document holds each once
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"key {next(k for k in keys if keys.count(k) > 1)!r} is repeated")
    return doc


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(f"{path}: invalid JSON ({err})") from err


def _plain(text: str) -> bool:
    # a text float() reads as finite, or int() reads, is of these bytes unless it holds
    # a "_", a non-ASCII digit or padding whitespace, none of which a cell may hold
    return text.isascii() and not text.encode().translate(None, b"0123456789.eE+-,")


_EXPECTED = {bool: "a boolean", int: "an integer", float: "a finite number",
             str: "a string"}
_SHOWN_DEPTH = 32  # a value inside more lists and objects is named, not quoted
_SHOWN_CHARS = 80  # a longer quote is cut to this many characters, "..." last


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
    """value's JSON text for a message, cut to _SHOWN_CHARS; its depth is
    walked level by level, so the text does not depend on the caller's stack."""
    level = [value]
    for _ in range(_SHOWN_DEPTH + 1):
        level = [child for item in level if isinstance(item, (list, dict))
                 for child in (item.values() if isinstance(item, dict) else item)]
        if not level:
            text = json.dumps(value)
            return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS - 3] + "..."
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
