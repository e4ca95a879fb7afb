"""Synthetic data generator for the replicate studies.

One base draw fixes the two feature blocks and the true class-one
probabilities; replicates then re-draw only the noise. The truth is a
fixed random network of the first block V_f, so arm f sees exactly the
information that generated the data, while V_g is a rank-limited noisy
mix of V_f — related to the signal but strictly worse. Scenarios:

    well_specified   train on (V_f, V_g) as generated
    misspecified     arm f's block replaced by a fresh uninformative
                     matrix of the same shape, per replicate
    stacked_average  targets become the logit of the average of two
                     upstream probability estimates (one from each
                     block), so neither arm suffices alone

Per-replicate targets are the scenario's base logits plus centered
Gaussian noise with sd surrogate_sd — the stand-in for an upstream
model's fitted outputs. Labels are thresholded perturbed probabilities
and are carried along for realism; the trainer itself regresses logits.
"""

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .config import MAX_REPLICATES, SCENARIOS, SimConfig  # declared with the run config
from .exceptions import ConfigError, DimensionError, InvalidInputError
from .numerics import RngStream
from .trainer import sigmoid

# Fixed generator internals; changing them changes every dataset.
# Feature entries are kept at embedding-like scale (sd _EMB_SD, so row
# norms stay small); with the trainer's wide weight prior this keeps
# prior predictive spread moderate, which is what makes one-digit pass
# counts land in a sensible posterior-spread regime.
_EMB_SD = 0.3
_TRUTH_HIDDEN = 8
_TRUTH_PREACT_SD = 0.5
_LOGIT_SCALE = 3.0
_MIX_RANK = 8
_MIX_SIGNAL_SHARE = 0.4
_LOGIT_EPS = 1e-12


def logit(p):
    """Inverse of the logistic function, clipped away from 0 and 1."""
    p = np.clip(np.asarray(p, dtype=float), _LOGIT_EPS, 1.0 - _LOGIT_EPS)
    return np.log(p) - np.log1p(-p)


@dataclass
class Replicate:
    """One training-ready dataset, drawn around the base truth or read
    from a dataset CSV; a CSV without true_prob or label columns leaves
    that field None."""

    v_f: np.ndarray
    v_g: np.ndarray
    labels: np.ndarray | None
    target_logits: np.ndarray
    true_prob: np.ndarray | None

    @property
    def size(self) -> int:
        return self.target_logits.shape[0]


def gen_base_probs(cfg: SimConfig, rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (V_f, V_g, p_hat) for one base truth.

    rng children: 0 draws V_f, 1 the truth network, 2 the mixing maps,
    3 the V_g noise.
    """
    try:  # the (m, width) draws first; each child stream's draws do not depend on order
        v_f = _EMB_SD * rng.child(0).generator().standard_normal((cfg.m, cfg.p))
        noise = rng.child(3).generator().standard_normal((cfg.m, cfg.q))
    except ValueError as err:  # numpy refuses a size past its index range at once
        raise MemoryError(err) from err

    truth_gen = rng.child(1).generator()
    # pre-activations kept at sd ~ _TRUTH_PREACT_SD so the net is smooth
    # but not saturated; the standardization below fixes the output scale
    w1 = truth_gen.normal(0.0, _TRUTH_PREACT_SD / (_EMB_SD * np.sqrt(cfg.p)),
                          size=(cfg.p, _TRUTH_HIDDEN))
    b1 = truth_gen.normal(0.0, _TRUTH_PREACT_SD / 2.0, size=_TRUTH_HIDDEN)
    w2 = truth_gen.normal(0.0, 1.0 / np.sqrt(_TRUTH_HIDDEN), size=_TRUTH_HIDDEN)
    raw = np.tanh(v_f @ w1 + b1) @ w2
    # standardize so the logits have a fixed, moderate spread
    sd = float(raw.std())
    if sd == 0.0:
        raise InvalidInputError("degenerate truth draw: constant logits")
    logits = _LOGIT_SCALE * (raw - raw.mean()) / sd
    p_hat = sigmoid(logits)

    # second block: a fixed share of its entry variance is a rank-limited
    # image of V_f, the rest independent noise; same entry scale as V_f
    mix_gen = rng.child(2).generator()
    down = mix_gen.normal(0.0, 1.0 / (_EMB_SD * np.sqrt(cfg.p)),
                          size=(cfg.p, _MIX_RANK))
    up = mix_gen.normal(0.0, _EMB_SD * np.sqrt(_MIX_SIGNAL_SHARE / _MIX_RANK),
                        size=(_MIX_RANK, cfg.q))
    v_g = (v_f @ down) @ up + _EMB_SD * np.sqrt(1.0 - _MIX_SIGNAL_SHARE) * noise
    return v_f, v_g, p_hat


def _stacked_logits(v_g: np.ndarray, true_logits: np.ndarray) -> np.ndarray:
    # Second upstream estimate: least-squares fit of the logits on [V_g, 1].
    design = np.hstack([v_g, np.ones((v_g.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, true_logits, rcond=None)
    fitted = design @ coef
    averaged = (sigmoid(true_logits) + sigmoid(fitted)) / 2.0
    return logit(averaged)


def _targets(cfg: SimConfig, base_targets: np.ndarray, rep_rng: RngStream) -> np.ndarray:
    """Replicate rep_rng's target logits: the base targets plus its surrogate noise."""
    return base_targets + rep_rng.child(1).generator().normal(0.0, cfg.surrogate_sd, size=cfg.m)


def gen_replicates(cfg: SimConfig, base: tuple[np.ndarray, np.ndarray, np.ndarray],
                   rng: RngStream) -> Iterator[Replicate]:
    """Yield the J replicate datasets around one base truth, one at a time.

    Replicate j depends only on rng.child(j), so replicates can be drawn
    (or redrawn) independently and in any order. Before replicate 0 is
    yielded, every replicate's target logits are drawn and checked: one
    that is not finite (surrogate_sd near the largest float) is a
    ConfigError naming surrogate_sd and the first such replicate, so a
    caller that writes as it draws has written nothing when it is refused.
    """
    v_f, v_g, p_hat = base
    if v_f.shape != (cfg.m, cfg.p) or v_g.shape != (cfg.m, cfg.q):
        raise DimensionError("base feature blocks do not match the config dims")
    true_logits = logit(p_hat)
    if cfg.scenario == "stacked_average":
        base_targets = _stacked_logits(v_g, true_logits)
        true_prob = sigmoid(base_targets)
    else:
        base_targets = true_logits
        true_prob = p_hat
    for j in range(cfg.replicates):
        if not np.isfinite(_targets(cfg, base_targets, rng.child(j))).all():
            raise ConfigError(f"surrogate_sd = {cfg.surrogate_sd!r} draws target logits "
                              f"that are not finite in replicate {j}")

    for j in range(cfg.replicates):
        rep_rng = rng.child(j)
        eps = rep_rng.child(0).generator().normal(0.0, cfg.perturb_sd, size=cfg.m)
        perturbed = sigmoid(true_logits + eps)
        labels = (perturbed > cfg.threshold).astype(np.int64)
        if cfg.scenario == "misspecified":
            mis_gen = rep_rng.child(2).generator()
            rep_v_f = _EMB_SD * mis_gen.standard_normal((cfg.m, cfg.p))
        else:
            rep_v_f = v_f.copy()
        yield Replicate(
            v_f=rep_v_f,
            v_g=v_g.copy(),
            labels=labels,
            target_logits=_targets(cfg, base_targets, rep_rng),
            true_prob=true_prob.copy(),
        )


def _take(rep: Replicate, idx: np.ndarray) -> Replicate:
    """Rows idx of rep, copied by the fancy indexing; None stays None."""
    def rows(values):
        return None if values is None else values[idx]

    return Replicate(v_f=rep.v_f[idx], v_g=rep.v_g[idx], labels=rows(rep.labels),
                     target_logits=rep.target_logits[idx], true_prob=rows(rep.true_prob))


def split(rep: Replicate, train_n: int, test_n: int,
          rng: RngStream) -> tuple[Replicate, Replicate]:
    """Random train/test split without replacement."""
    if train_n < 1 or test_n < 0:
        raise InvalidInputError(f"bad split sizes ({train_n}, {test_n})")
    if train_n + test_n > rep.size:
        raise InvalidInputError(
            f"split sizes ({train_n} + {test_n}) exceed dataset size {rep.size}")
    order = rng.generator().permutation(rep.size)
    return _take(rep, order[:train_n]), _take(rep, order[train_n:train_n + test_n])
