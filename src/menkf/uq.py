"""Prediction intervals and adequacy diagnostics for a trained ensemble.

Each member predicts a logit per test row; pushing the member logits
through the logistic function gives a sample of probabilities whose
empirical 2.5% and 97.5% quantiles form the 95% interval. No extra
observation noise is added at prediction time — the spread is parameter
uncertainty only.

The rows are evaluated in blocks of _BLOCK_ROWS, so no array of member
values holds more than N * _BLOCK_ROWS floats however many rows there
are; each row's mean and quantiles are the per-row rule bit for bit.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .arms import ArmSpec, StateLayout
from .enkf import Ensemble
from .exceptions import DimensionError, InvalidInputError, NumericError
from .trainer import arm_averaged_logits, input_rows, sigmoid

# rows per evaluation block; a power of two, so a block ends on the
# alignment an unblocked pass would have there
_BLOCK_ROWS = 1024


@dataclass
class PredictionSummary:
    """Predictive draws and interval for one test row, probability scale."""

    draws: np.ndarray
    point: float
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _sorted_quantile(by_row: np.ndarray, q: float) -> np.ndarray:
    """Per-row q-quantile of rows sorted ascending, by np.quantile's
    linear rule bit for bit: h = (N - 1) q, interpolated between the
    floor(h) and the next order statistic, from the upper one when the
    fraction is at least 0.5."""
    n = by_row.shape[1]
    h = (n - 1) * q
    i = int(h)  # floor(h), as h >= 0
    gamma = h - i
    a, b = by_row[:, i], by_row[:, min(i + 1, n - 1)]
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


def _block_intervals(e: Ensemble, v_f, v_g, layout: StateLayout, spec_f: ArmSpec,
                     spec_g: ArmSpec, start: int):
    """(draws, point, lo, hi) of one block of rows: the (N, rows) member
    probabilities, and per row the member mean and the empirical 2.5% and
    97.5% quantiles. A function of its own so that its temporaries are
    freed before the next block is computed. A non-finite member logit is a
    NumericError naming its row; start is the block's first row."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        draws = arm_averaged_logits(e.members, v_f, v_g, layout, spec_f, spec_g)
    finite = np.isfinite(draws).all(axis=0)
    if not finite.all():
        raise NumericError(f"model output is not finite at row {start + finite.argmin()}")
    draws = sigmoid(draws)  # the logits are freed here
    by_row = draws.T.copy()  # a C-ordered copy, which is sorted in place below
    point = by_row.mean(axis=1)  # in member order, before the sort
    # the quantiles depend only on each row's order statistics; once the
    # contiguous rows are sorted, each bound reads two of their columns
    by_row.sort(axis=1)
    return draws, point, _sorted_quantile(by_row, 0.025), _sorted_quantile(by_row, 0.975)


def interval_arrays(e: Ensemble, v_f, v_g, layout: StateLayout, spec_f: ArmSpec,
                    spec_g: ArmSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """95% intervals of every input row, as arrays.

    Returns (point, lo, hi): per row the member mean and the empirical
    2.5% and 97.5% quantiles of the member probabilities. The rows go
    through in blocks of _BLOCK_ROWS, and each block's draws are freed
    before the next block is computed, so memory beyond the outputs stays
    bounded by N * _BLOCK_ROWS floats per array. Each value equals np.mean
    and numerics.empirical_quantile of that row's draws bit for bit: the
    mean reduces one contiguous row at a time, as the scalar rule does,
    and the bounds apply np.quantile's linear rule to the sorted row.
    """
    n = input_rows(v_f, v_g)  # first, so that a short last block cannot broadcast
    point, lo, hi = np.empty(n), np.empty(n), np.empty(n)
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        point[rows], lo[rows], hi[rows] = _block_intervals(  # [1:] drops the draws
            e, v_f[rows], v_g[rows], layout, spec_f, spec_g, start)[1:]
    return point, lo, hi


def predict(e: Ensemble, v_f, v_g, layout: StateLayout, spec_f: ArmSpec,
            spec_g: ArmSpec) -> list[PredictionSummary]:
    """Per-row predictive summaries from the ensemble, one per input row;
    the point estimate is the member mean. Equal to interval_arrays bit
    for bit, and each summary keeps its row's draws."""
    summaries = []
    for start in range(0, input_rows(v_f, v_g), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        draws, *bounds = _block_intervals(e, v_f[rows], v_g[rows], layout, spec_f, spec_g, start)
        summaries += [PredictionSummary(draws=draws[:, j].copy(), point=p, lo=l, hi=h)
                      for j, (p, l, h) in enumerate(zip(*(b.tolist() for b in bounds)))]
    return summaries


def _bounds(summaries: list[PredictionSummary], *names: str) -> list[np.ndarray]:
    return [np.array([getattr(s, name) for s in summaries], dtype=float) for name in names]


def _coverage(lo: np.ndarray, hi: np.ndarray, truth) -> float:
    """Fraction of truths inside their closed intervals [lo, hi]."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != lo.shape:
        raise DimensionError(
            f"truth length {truth.shape} does not match {lo.size} intervals")
    if lo.size == 0:
        raise InvalidInputError("coverage of zero intervals is undefined")
    return float(np.mean((lo <= truth) & (truth <= hi)))


def coverage(summaries: list[PredictionSummary], truth) -> float:
    """Fraction of truths inside their closed intervals [lo, hi]."""
    return _coverage(*_bounds(summaries, "lo", "hi"), truth)


@dataclass
class AdequacyReport:
    """Headline diagnostics of one evaluation.

    mean_arm_weight is the ensemble mean of sigmoid(a) — the weight on
    the second arm; the first arm carries 1 - mean_arm_weight.
    frac_wide (intervals at least 0.99 wide) and frac_contains_half
    (intervals holding 0.5) flag coverage that comes from intervals
    too wide to say anything.
    """

    coverage: float
    avg_width: float
    mae: float
    mean_arm_weight: float
    n_test: int
    frac_wide: float
    frac_contains_half: float

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "arm_f_weight": 1.0 - self.mean_arm_weight}


# The replicate study's one declaration of its outputs: each to_dict() key in study.csv
# column order, the stem of its study.json aggregates, and the statistic behind each
# <stem>_<suffix>, of the key's column x over the J replicates given every column c.
_SD = {"sd": lambda x, c: float(x.std(ddof=1)) if x.size > 1 else 0.0}
_MEAN_SE = {"mean": lambda x, c: float(x.mean()),
            "se": lambda x, c: _SD["sd"](x, c) / x.size ** 0.5}
STUDY_METRICS = {
    "coverage": ("coverage", {
        **_MEAN_SE, "pooled": lambda x, c: float((x * c["n_test"]).sum() / c["n_test"].sum())}),
    "avg_width": ("width", {**_MEAN_SE, **_SD}),
    "mae": ("mae", _MEAN_SE),
    "mean_arm_weight": ("mean_arm_weight", _MEAN_SE),
    "arm_f_weight": ("arm_f_weight", {  # 1 - mean_arm_weight_mean, as it always was
        **_MEAN_SE, "mean": lambda x, c: float(1.0 - c["mean_arm_weight"].mean())}),
    "n_test": ("n_test", {}),  # it only weights the pooled coverage
    "frac_wide": ("frac_wide", _MEAN_SE),
    "frac_contains_half": ("frac_contains_half", _MEAN_SE),
}


def interval_adequacy(point: np.ndarray, lo: np.ndarray, hi: np.ndarray, truth,
                      e: Ensemble, layout: StateLayout) -> AdequacyReport:
    """Coverage, width, point error, sharpness and arm weight in one report;
    a mean absolute error that overflows is a NumericError."""
    truth = np.asarray(truth, dtype=float)
    covered = _coverage(lo, hi, truth)  # first: it checks truth against the intervals
    width = hi - lo
    try:
        with np.errstate(over="raise"):
            mae = float(np.mean(np.abs(point - truth)))
    except FloatingPointError as err:
        raise NumericError(f"mean absolute error is not finite ({err})") from err
    return AdequacyReport(
        coverage=covered,
        avg_width=float(np.mean(width)),
        mae=mae,
        mean_arm_weight=float(np.mean(sigmoid(e.members[:, layout.a_index]))),
        n_test=lo.size,
        frac_wide=float(np.mean(width >= 0.99)),
        frac_contains_half=float(np.mean((lo <= 0.5) & (0.5 <= hi))),
    )


def adequacy(summaries: list[PredictionSummary], truth, e: Ensemble,
             layout: StateLayout) -> AdequacyReport:
    """interval_adequacy of a list of per-row summaries."""
    return interval_adequacy(*_bounds(summaries, "point", "lo", "hi"), truth, e, layout)
