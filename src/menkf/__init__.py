"""Ensemble Kalman trainer for two-arm neural network surrogates.

Trains two feedforward arms and a convex averaging weight jointly with
a stochastic ensemble Kalman filter — no gradients — while estimating
the observation-noise variance through a softplus-linked state
coordinate. The posterior ensemble doubles as the uncertainty estimate:
pushing every member's prediction through the logistic function yields
empirical 95% intervals and adequacy diagnostics.
"""

from .arms import ArmSpec, StateLayout, forward_batch, param_count
from .enkf import Ensemble, enkf_update, ensemble_moments
from .exceptions import (ConfigError, DataFormatError, DimensionError,
                         InvalidInputError, MenkfError, NotSpdError, NumericError)
from .kalman import GaussianBelief, LinearStateSpace, kf_forecast, kf_update
from .numerics import RngStream, empirical_quantile, solve_spd, vec
from .simgen import Replicate, SimConfig, gen_base_probs, gen_replicates, split
from .trainer import (Batch, MenkfConfig, TrainingTrace, build_vec_operator, fit,
                      init_ensemble, inv_softplus, make_batches, measure,
                      sigmoid, softplus, train_step)
from .uq import AdequacyReport, PredictionSummary, adequacy, coverage, predict

__version__ = "0.1.0"

__all__ = [
    "AdequacyReport", "ArmSpec", "Batch", "ConfigError", "DataFormatError",
    "DimensionError", "Ensemble", "GaussianBelief", "InvalidInputError",
    "LinearStateSpace", "MenkfConfig", "MenkfError", "NotSpdError",
    "NumericError", "PredictionSummary", "Replicate", "RngStream", "SimConfig",
    "StateLayout", "TrainingTrace", "adequacy", "build_vec_operator",
    "coverage", "empirical_quantile", "enkf_update", "ensemble_moments", "fit",
    "forward_batch", "gen_base_probs", "gen_replicates", "init_ensemble",
    "inv_softplus", "kf_forecast", "kf_update", "make_batches", "measure",
    "param_count", "predict", "sigmoid", "softplus", "solve_spd", "split",
    "train_step", "vec",
]
