"""Gradient-free trainer for a two-arm surrogate.

The model averages two feedforward arms with one convex weight and
updates both arms' weights, the averaging logit a and an
observation-noise parameter b with a stochastic ensemble Kalman filter
over the flat augmented state [w_f | w_g | a | b]. b enters only the
perturbation scale, so under the defaults softplus(b) stays near its
prior mean of 1 (0.90–1.06 on well_specified at seed 0; the residual
variance is 0.057–0.091):

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
from dataclasses import dataclass

import numpy as np

from .arms import StateLayout, forward_batch
from .config import ArmSpec, TrainerOptions
from .enkf import Ensemble, analysis
from .exceptions import DimensionError, InvalidInputError, NumericError
from .numerics import RngStream

_GAMMA_SHAPE = 100.0
_GAMMA_SCALE = 0.01
_DRAW_BLOCK = 2 ** 15  # most normals drawn in one call into the active runs
_TRACE_COLUMNS = ("step", "pass_index", "batch_index", "weight_g", "noise_var",
                  "innovation_norm")


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


@dataclass(frozen=True, kw_only=True)
class MenkfConfig(TrainerOptions):
    """The checkpoint's trainer config: TrainerOptions, the arms and two pins.

    fixed_arm_logit / fixed_noise_var pin a and b to constants for the
    whole run (members start there and are reset after each update);
    with identity arms this makes the whole model linear-Gaussian,
    which is how the exact-filter comparisons are run.
    """

    arm_f: ArmSpec
    arm_g: ArmSpec
    fixed_arm_logit: float | None = None
    fixed_noise_var: float | None = None

    def __post_init__(self):
        super().__post_init__()
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
    if batch_size < 1:
        raise InvalidInputError(f"batch_size must be >= 1, got {batch_size}")
    return [Batch(v_f[i:i + batch_size], v_g[i:i + batch_size], y[i:i + batch_size])
            for i in range(0, len(y), batch_size)]


def _apply_fixed(members: np.ndarray, cfg: MenkfConfig, layout: StateLayout) -> None:
    if cfg.fixed_arm_logit is not None:
        members[:, layout.a_index] = cfg.fixed_arm_logit
    if cfg.fixed_noise_var is not None:
        members[:, layout.b_index] = inv_softplus(cfg.fixed_noise_var)


def _add_normal(members: np.ndarray, layout: StateLayout, gen: "np.random.Generator",
                sd: float) -> None:
    """Adds into the active runs of members, in place, the N(0, sd**2) draws
    of one (N, |active|) normal call onward from gen, made at most
    _DRAW_BLOCK floats at a time."""
    runs = layout.active_runs()
    widths = [run.stop - run.start for run in runs]
    rows = max(1, _DRAW_BLOCK // sum(widths))
    for start in range(0, members.shape[0], rows):
        block = members[start:start + rows]
        noise = gen.normal(0.0, sd, size=(block.shape[0], sum(widths)))
        for run, part in zip(runs, np.split(noise, np.cumsum(widths[:-1]), axis=1)):
            block[:, run] += part


def init_ensemble(cfg: MenkfConfig, layout: StateLayout, rng: RngStream) -> Ensemble:
    """Draw the starting ensemble.

    Active coordinates are i.i.d. N(0, init_var), added into zeros (a draw
    is never -0.0). Under variance_init="gamma_shape_scale" the noise
    variance itself is drawn from Gamma(100, 0.01) (mean 1) and b is set
    to its softplus pre-image instead.
    """
    try:
        members = np.zeros((cfg.ensemble_size, layout.dim))
    except ValueError as err:  # numpy refuses a size past its index range at once
        raise MemoryError(err) from err
    _add_normal(members, layout, rng.child(0).generator(), math.sqrt(cfg.init_var))
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
              gen: "np.random.Generator") -> np.ndarray:
    """Jitters the active coordinates onward from gen a row block at a time
    and pins a and b, all in place; returns members."""
    if cfg.jitter_var > 0.0:
        _add_normal(members, layout, gen, math.sqrt(cfg.jitter_var))
    _apply_fixed(members, cfg, layout)
    return members


def _step_generators(rng: RngStream) -> "tuple[np.random.Generator, np.random.Generator]":
    """The steps' stream plan: child 0 jitters the members, child 1 perturbs
    the observations; each step draws onward where the last one stopped."""
    return rng.child(0).generator(), rng.child(1).generator()


def _step(members: np.ndarray, batch: Batch, cfg: MenkfConfig, layout: StateLayout,
          jitter_gen: "np.random.Generator", perturb_gen: "np.random.Generator",
          batch_index: int | None) -> tuple[np.ndarray, np.ndarray]:
    """train_step on the bare (N, d) members, updated in place, drawing onward
    from the two generators; also returns the forecast members' (N, m)
    predicted logits that the analysis used."""
    members = _forecast(members, cfg, layout, jitter_gen)
    predictions = arm_averaged_logits(members, batch.v_f, batch.v_g, layout,
                                      cfg.arm_f, cfg.arm_g)
    obs_var = softplus(members[:, layout.b_index])
    where = "" if batch_index is None else f" at batch {batch_index}"
    try:
        updated = analysis(members, predictions, batch.y, obs_var, perturb_gen)
    except np.linalg.LinAlgError as err:
        raise NumericError(
            f"observation covariance block failed to decompose{where}") from err
    except InvalidInputError as err:  # obs_var: softplus(b) is 0 below b = -745
        raise NumericError(f"{err}{where}") from err
    _apply_fixed(updated, cfg, layout)
    return updated, predictions


def train_step(e: Ensemble, batch: Batch, cfg: MenkfConfig, layout: StateLayout,
               rng: RngStream, batch_index: int | None = None) -> Ensemble:
    """One forecast-and-analysis step on one batch; returns a new ensemble
    and leaves e as it was.

    The forecast members (jittered, a and b pinned) are shifted by
    enkf.analysis from their own predicted logits, so the gain is
    Cov(state, pred) (Cov(pred, pred) + var I)^-1. Every var > 0 keeps
    the solve well-posed, so there is no fallback: a failed
    eigendecomposition is a NumericError naming the batch.

    The draws follow _step_generators(rng): child 0 drives the (optional)
    transition jitter, child 1 the observation perturbations, drawn as one
    (N, m) block; each is taken from the start of its stream.
    """
    return Ensemble(_step(e.members.copy(), batch, cfg, layout, *_step_generators(rng),
                          batch_index)[0])


def fit(batches, cfg: MenkfConfig, rng: RngStream) -> tuple[Ensemble, dict]:
    """Run the filter over one schedule of steps: pass p of
    cfg.passes_over_data visits every batch once, in order, or in the
    permutation drawn from rng child 1.p as the pass starts when
    cfg.shuffle_batches. rng child 0 initializes the ensemble, and every
    step draws onward from the two generators of _step_generators(rng
    child 2), built once per fit: the jitter from child 2.0, the
    perturbations from child 2.1. With one batch and one pass this is
    exactly init_ensemble followed by train_step(rng child 2). Every step
    updates one bare (N, d) array in place, so the members are checked as
    an Ensemble once, on return. Beside it a step holds (N, m) arrays, the
    arms' (N, m, width) layers and scratch blocks of a fixed size.

    The trace holds trace.csv's _TRACE_COLUMNS in order, one entry per
    step: step (t), pass_index, batch_index, weight_g and noise_var
    (sigmoid and softplus of the post-update means of a and b), and
    innovation_norm (||y - mean(predictions)|| over the forecast members,
    after jitter and pinning). A step whose update or trace entry
    overflows, or makes a NaN, is a NumericError naming its batch.
    """
    batches = list(batches)
    if not batches:
        raise InvalidInputError("need at least one batch")
    n = len(batches)
    schedule = ((p, b) for p in range(cfg.passes_over_data)  # each pass's order as it starts
                for b in (rng.child(1).child(p).generator().permutation(n).tolist()
                          if cfg.shuffle_batches else range(n)))
    layout = cfg.layout()
    members = init_ensemble(cfg, layout, rng.child(0)).members
    jitter_gen, perturb_gen = _step_generators(rng.child(2))
    rows = []
    for step, (pass_index, batch_index) in enumerate(schedule):
        batch = batches[batch_index]
        try:
            with np.errstate(over="raise", invalid="raise"):
                members, predictions = _step(members, batch, cfg, layout, jitter_gen,
                                             perturb_gen, batch_index)
                rows.append((step, pass_index, batch_index,
                             float(sigmoid(members[:, layout.a_index].mean())),
                             float(softplus(members[:, layout.b_index].mean())),
                             float(np.linalg.norm(batch.y - predictions.mean(axis=0)))))
        except FloatingPointError as err:
            raise NumericError(f"filter step is not finite at batch {batch_index} "
                               f"({err})") from err
    return Ensemble(members), dict(zip(_TRACE_COLUMNS, map(list, zip(*rows))))


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
                            layout: StateLayout) -> "tuple[GaussianBelief, LinearStateSpace]":
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
    from .kalman import GaussianBelief, LinearStateSpace  # only the oracle pays for it
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
