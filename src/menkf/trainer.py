"""Gradient-free trainer for a two-arm surrogate.

The model averages two feedforward arms with one convex weight and
learns everything — both arms' weights, the averaging logit a, and an
observation-noise parameter b — with a stochastic ensemble Kalman
filter over the flat augmented state [w_f | w_g | a | b]:

    prediction  = (1 - sigmoid(a)) * f(V_f, w_f) + sigmoid(a) * g(V_g, w_g)
    noise var   = softplus(b)

The state transition is the identity (optionally jittered), so all
learning happens in the analysis step. The measurement map is nonlinear
in the state, so the gain is taken from the sample covariance between
each member and its own predicted observations (enkf.analysis); with a
linear map this is exactly the textbook ensemble update, which is what
the oracle tests check. Each step returns those predictions to fit,
which logs the innovation from them, so a step costs one forward pass.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .arms import ArmSpec, StateLayout, forward_batch, param_count
from .enkf import Ensemble, analysis
from .exceptions import DimensionError, InvalidInputError, NumericError
from .kalman import GaussianBelief, LinearStateSpace
from .numerics import RngStream

_VARIANCE_INITS = ("gaussian", "gamma_shape_scale")
_GAMMA_SHAPE = 100.0
_GAMMA_SCALE = 0.01


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x)), overflow-safe.

    For very negative x, exp(-x) overflows to inf and the result is
    exactly 0, which is the correct limit; the warning is silenced.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def softplus(x):
    """log(1 + exp(x)), computed stably for large |x|."""
    return np.logaddexp(0.0, x)


def inv_softplus(y):
    """Inverse of softplus; y must be positive."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0.0):
        raise InvalidInputError("inv_softplus requires positive input")
    out = np.where(y > 30.0, y + np.log1p(-np.exp(-np.minimum(y, 700.0))),
                   np.log(np.expm1(np.minimum(y, 30.0))))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class MenkfConfig:
    """Trainer configuration.

    fixed_arm_logit / fixed_noise_var pin a and b to constants for the
    whole run (members start there and are reset after each update);
    with identity arms this makes the whole model linear-Gaussian,
    which is how the exact-filter comparisons are run.
    """

    arm_f: ArmSpec
    arm_g: ArmSpec
    ensemble_size: int = 216
    init_var: float = 16.0
    batch_size: int = 16
    passes_over_data: int = 1
    jitter_var: float = 0.0
    variance_init: str = "gaussian"
    seed: int = 0
    shuffle_batches: bool = False
    fixed_arm_logit: float | None = None
    fixed_noise_var: float | None = None

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
        if self.fixed_noise_var is not None and self.fixed_noise_var <= 0.0:
            raise InvalidInputError("fixed_noise_var must be > 0 when set")

    def layout(self) -> StateLayout:
        return StateLayout.from_specs(self.arm_f, self.arm_g)


@dataclass
class Batch:
    """One training batch: the two feature blocks and their target logits."""

    v_f: np.ndarray
    v_g: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.v_f = np.asarray(self.v_f, dtype=float)
        self.v_g = np.asarray(self.v_g, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.v_f.ndim != 2 or self.v_g.ndim != 2 or self.y.ndim != 1:
            raise DimensionError("v_f and v_g must be 2-D, y must be 1-D")
        rows = self.y.shape[0]
        if self.v_f.shape[0] != rows or self.v_g.shape[0] != rows:
            raise DimensionError(
                f"row mismatch: v_f {self.v_f.shape[0]}, v_g {self.v_g.shape[0]}, y {rows}")
        if rows == 0:
            raise InvalidInputError("batch must contain at least one row")
        if not (np.all(np.isfinite(self.v_f)) and np.all(np.isfinite(self.v_g))
                and np.all(np.isfinite(self.y))):
            raise InvalidInputError("batch contains non-finite values")

    @property
    def size(self) -> int:
        return self.y.shape[0]


def make_batches(v_f, v_g, y, batch_size: int) -> list[Batch]:
    """Chunk a dataset into contiguous batches; the last one may be short."""
    v_f = np.asarray(v_f, dtype=float)
    v_g = np.asarray(v_g, dtype=float)
    y = np.asarray(y, dtype=float)
    return [Batch(v_f[i:i + batch_size], v_g[i:i + batch_size], y[i:i + batch_size])
            for i in range(0, y.shape[0], batch_size)]


def _apply_fixed(members: np.ndarray, cfg: MenkfConfig, layout: StateLayout) -> None:
    if cfg.fixed_arm_logit is not None:
        members[:, layout.a_index] = cfg.fixed_arm_logit
    if cfg.fixed_noise_var is not None:
        members[:, layout.b_index] = inv_softplus(cfg.fixed_noise_var)


def init_ensemble(cfg: MenkfConfig, layout: StateLayout, rng: RngStream) -> Ensemble:
    """Draw the starting ensemble.

    Active coordinates are i.i.d. N(0, init_var). Under
    variance_init="gamma_shape_scale" the noise variance itself is drawn
    from Gamma(100, 0.01) (mean 1) and b is set to its softplus
    pre-image instead.
    """
    active = layout.active_indices()
    members = np.zeros((cfg.ensemble_size, layout.dim))
    gen = rng.child(0).generator()
    members[:, active] = gen.normal(0.0, math.sqrt(cfg.init_var),
                                    size=(cfg.ensemble_size, active.size))
    if cfg.variance_init == "gamma_shape_scale":
        draws = rng.child(1).generator().gamma(_GAMMA_SHAPE, _GAMMA_SCALE,
                                               size=cfg.ensemble_size)
        members[:, layout.b_index] = inv_softplus(draws)
    _apply_fixed(members, cfg, layout)
    return Ensemble(members)


def input_rows(v_f, v_g) -> int:
    """Row count of the two arms' (rows, features) inputs, which must agree."""
    shape_f, shape_g = np.shape(v_f), np.shape(v_g)
    if len(shape_f) != 2 or len(shape_g) != 2 or shape_f[0] != shape_g[0]:
        raise DimensionError(f"arm inputs must be 2-D with equal row counts, "
                             f"got v_f {shape_f} and v_g {shape_g}")
    return shape_f[0]


def arm_averaged_logits(members: np.ndarray, v_f, v_g, layout: StateLayout,
                        spec_f: ArmSpec, spec_g: ArmSpec) -> np.ndarray:
    """Per-member convex combination of the two arm outputs, (N, rows),
    formed in place so that no third (N, rows) array is allocated."""
    input_rows(v_f, v_g)
    out_f = forward_batch(spec_f, members[:, layout.wf_slice], v_f)
    out_g = forward_batch(spec_g, members[:, layout.wg_slice], v_g)
    weight_g = sigmoid(members[:, layout.a_index])[:, None]
    out_f *= 1.0 - weight_g
    out_g *= weight_g
    out_f += out_g
    return out_f


def measure(e: Ensemble, batch: Batch, layout: StateLayout,
            spec_f: ArmSpec, spec_g: ArmSpec) -> np.ndarray:
    """Predicted observations for every member on one batch, (N, m).

    The public per-ensemble prediction helper; fit does not call it, as
    each step hands fit the predictions its analysis used.
    """
    return arm_averaged_logits(e.members, batch.v_f, batch.v_g, layout, spec_f, spec_g)


def _forecast(members: np.ndarray, cfg: MenkfConfig, layout: StateLayout,
              rng: RngStream) -> np.ndarray:
    """The forecast members: jittered from rng and with a and b pinned.

    A copy is made only when jitter or pinning changes the members;
    otherwise members itself is returned, and must not be written.
    """
    if cfg.jitter_var == 0.0 and cfg.fixed_arm_logit is None and cfg.fixed_noise_var is None:
        return members
    members = members.copy()
    if cfg.jitter_var > 0.0:
        active = layout.active_indices()
        gen = rng.generator()
        members[:, active] += gen.normal(0.0, math.sqrt(cfg.jitter_var),
                                         size=(members.shape[0], active.size))
    _apply_fixed(members, cfg, layout)
    return members


def _step(e: Ensemble, batch: Batch, cfg: MenkfConfig, layout: StateLayout,
          rng: RngStream, batch_index: int | None) -> tuple[Ensemble, np.ndarray]:
    """train_step, also returning the forecast members' (N, m) predicted
    logits that the analysis used."""
    members = _forecast(e.members, cfg, layout, rng.child(0))
    predictions = arm_averaged_logits(members, batch.v_f, batch.v_g, layout,
                                      cfg.arm_f, cfg.arm_g)
    obs_var = softplus(members[:, layout.b_index])
    try:
        updated = analysis(members, predictions, batch.y, obs_var, rng.child(1))
    except np.linalg.LinAlgError as err:
        where = "" if batch_index is None else f" at batch {batch_index}"
        raise NumericError(
            f"observation covariance block failed to decompose{where}") from err
    layout.apply_structural_zeros(updated)
    _apply_fixed(updated, cfg, layout)
    return Ensemble(updated), predictions


def train_step(e: Ensemble, batch: Batch, cfg: MenkfConfig, layout: StateLayout,
               rng: RngStream, batch_index: int | None = None) -> Ensemble:
    """One forecast-and-analysis step on one batch; returns a new ensemble
    and leaves e as it was.

    The forecast members (jittered, a and b pinned) are shifted by
    enkf.analysis from their own predicted logits, so the gain is
    Cov(state, pred) (Cov(pred, pred) + var I)^-1. Every var > 0 keeps
    the solve well-posed, so there is no fallback: a failed
    eigendecomposition is a NumericError naming the batch.

    rng children: 0 drives the (optional) transition jitter, 1 drives the
    observation perturbations, drawn as one (N, m) block.
    """
    return _step(e, batch, cfg, layout, rng, batch_index)[0]


@dataclass
class TraceRecord:
    """Per-batch diagnostics; arm weight and noise variance are read from
    the post-update ensemble mean, and the innovation is
    ||y - mean(predictions)|| over the step's forecast members (after
    jitter and pinning, before the update)."""

    step: int
    pass_index: int
    batch_index: int
    weight_g: float
    noise_var: float
    innovation_norm: float


@dataclass
class TrainingTrace:
    records: list = field(default_factory=list)

    def columns(self) -> dict:
        """One column per TraceRecord field, in field order."""
        return {f.name: [getattr(r, f.name) for r in self.records]
                for f in fields(TraceRecord)}


def fit(batches, cfg: MenkfConfig, rng: RngStream) -> tuple[Ensemble, TrainingTrace]:
    """Run the filter over all batches for cfg.passes_over_data passes.

    rng children: 0 initializes the ensemble, 1 shuffles batch order
    (child 1.p for pass p, when cfg.shuffle_batches), 2 + t drives step t.
    With one batch and one pass this is exactly init_ensemble followed by
    a single train_step.
    """
    batches = list(batches)
    if not batches:
        raise InvalidInputError("need at least one batch")
    layout = cfg.layout()
    ens = init_ensemble(cfg, layout, rng.child(0))
    trace = TrainingTrace()
    step = 0
    for pass_index in range(cfg.passes_over_data):
        order = list(range(len(batches)))
        if cfg.shuffle_batches:
            order = rng.child(1).child(pass_index).generator().permutation(len(batches)).tolist()
        for batch_index in order:
            batch = batches[batch_index]
            ens, predictions = _step(ens, batch, cfg, layout, rng.child(2 + step),
                                     batch_index)
            innovation = float(np.linalg.norm(batch.y - predictions.mean(axis=0)))
            trace.records.append(TraceRecord(
                step=step,
                pass_index=pass_index,
                batch_index=batch_index,
                weight_g=float(sigmoid(ens.members[:, layout.a_index].mean())),
                noise_var=float(softplus(ens.members[:, layout.b_index].mean())),
                innovation_norm=innovation,
            ))
            step += 1
    return ens, trace


def build_vec_operator(obs_matrix, column_weights) -> np.ndarray:
    """Lift a per-column operator to the vec of a matrix state.

    For X with c columns, column weight vector G (c x 1) and row operator
    H (m x r), returns the (m, c*r) matrix applying H X G to vec(X):
    kron(G.T, H).
    """
    h = np.asarray(obs_matrix, dtype=float)
    g = np.asarray(column_weights, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    if h.ndim != 2:
        raise DimensionError(f"obs_matrix must be 2-D, got ndim={h.ndim}")
    if g.ndim != 2 or g.shape[1] != 1:
        raise DimensionError(f"column_weights must be a single column, got {g.shape}")
    return np.kron(g.T, h)


def _linear_coefficients(spec: ArmSpec, v: np.ndarray) -> np.ndarray:
    if spec.hidden_dims != ():
        raise InvalidInputError("linear reference requires arms with no hidden layers")
    return np.hstack([v, np.ones((v.shape[0], 1))])


def linear_reference_system(batch: Batch, cfg: MenkfConfig,
                            layout: StateLayout) -> tuple[GaussianBelief, LinearStateSpace]:
    """Exact linear-Gaussian equivalent of one training step.

    Valid only when both arms are linear (no hidden layers) and a and b
    are pinned via fixed_arm_logit / fixed_noise_var: the measurement is
    then an affine map of the member vector and the filter posterior has
    a closed form. Returns the prior belief over the flat state and the
    one-step state-space model; frozen and structural coordinates get
    zero prior variance and a zero observation column, so they pass
    through the exact filter untouched.
    """
    if cfg.fixed_arm_logit is None or cfg.fixed_noise_var is None:
        raise InvalidInputError("linear reference requires fixed_arm_logit and fixed_noise_var")
    weight_g = float(sigmoid(cfg.fixed_arm_logit))
    coeff_f = (1.0 - weight_g) * _linear_coefficients(cfg.arm_f, batch.v_f)
    coeff_g = weight_g * _linear_coefficients(cfg.arm_g, batch.v_g)

    m = batch.size
    obs = np.zeros((m, layout.dim))
    obs[:, layout.wf_slice] = coeff_f
    obs[:, layout.wg_slice] = coeff_g

    mean = np.zeros(layout.dim)
    mean[layout.a_index] = cfg.fixed_arm_logit
    mean[layout.b_index] = inv_softplus(cfg.fixed_noise_var)
    prior_var = np.zeros(layout.dim)
    prior_var[layout.wf_slice] = cfg.init_var
    prior_var[layout.wg_slice] = cfg.init_var
    prior = GaussianBelief(mean, np.diag(prior_var))

    ss = LinearStateSpace(
        H=obs,
        M=np.eye(layout.dim),
        R=cfg.fixed_noise_var * np.eye(m),
        Q=np.zeros((layout.dim, layout.dim)),
    )
    return prior, ss
