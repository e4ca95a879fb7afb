"""Prediction intervals and adequacy diagnostics for a trained ensemble.

Each member predicts a logit per test row; pushing the member logits
through the logistic function gives a sample of probabilities whose
empirical 2.5% and 97.5% quantiles form the 95% interval. No extra
observation noise is added at prediction time — the spread is parameter
uncertainty only.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .arms import ArmSpec, StateLayout
from .enkf import Ensemble
from .exceptions import DimensionError, InvalidInputError
from .numerics import empirical_quantile
from .trainer import arm_averaged_logits, sigmoid


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


def predict(e: Ensemble, v_f, v_g, layout: StateLayout, spec_f: ArmSpec,
            spec_g: ArmSpec) -> list[PredictionSummary]:
    """Per-row predictive summaries from the ensemble, one per input row;
    the point estimate is the member mean."""
    probs = sigmoid(arm_averaged_logits(e.members, np.asarray(v_f, dtype=float),
                                        np.asarray(v_g, dtype=float),
                                        layout, spec_f, spec_g))
    summaries = []
    for j in range(probs.shape[1]):
        draws = probs[:, j].copy()
        summaries.append(PredictionSummary(
            draws=draws,
            point=float(np.mean(draws)),
            lo=empirical_quantile(draws, 0.025),
            hi=empirical_quantile(draws, 0.975),
        ))
    return summaries


def coverage(summaries: list[PredictionSummary], truth) -> float:
    """Fraction of truths inside their closed intervals [lo, hi]."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != (len(summaries),):
        raise DimensionError(
            f"truth length {truth.shape} does not match {len(summaries)} summaries")
    if len(summaries) == 0:
        raise InvalidInputError("coverage of zero summaries is undefined")
    hits = [s.lo <= t <= s.hi for s, t in zip(summaries, truth)]
    return float(np.mean(hits))


@dataclass
class AdequacyReport:
    """Headline diagnostics of one evaluation.

    mean_arm_weight is the ensemble mean of sigmoid(a) — the weight on
    the second arm; the first arm carries 1 - mean_arm_weight.
    """

    coverage: float
    avg_width: float
    mae: float
    mean_arm_weight: float
    n_test: int

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "arm_f_weight": 1.0 - self.mean_arm_weight}


def adequacy(summaries: list[PredictionSummary], truth, e: Ensemble,
             layout: StateLayout) -> AdequacyReport:
    """Coverage, width, point error, and arm weight in one report."""
    truth = np.asarray(truth, dtype=float)
    cov = coverage(summaries, truth)
    widths = [s.width for s in summaries]
    errors = [abs(s.point - t) for s, t in zip(summaries, truth)]
    return AdequacyReport(
        coverage=cov,
        avg_width=float(np.mean(widths)),
        mae=float(np.mean(errors)),
        mean_arm_weight=float(np.mean(sigmoid(e.members[:, layout.a_index]))),
        n_test=len(summaries),
    )
