"""Stochastic ensemble Kalman filter update with per-member observation noise.

Members are rows of an (N, d) matrix. Sample covariances use the 1/N
normalization, and the update perturbs the observation once per member
with that member's own noise variance, so the gain is member-dependent:

    K_i = L (M + obs_var[i] I)^-1,  L = Cov(x, h(x)),  M = Cov(h(x), h(x))

where h(x) are a member's predicted observations; for a linear operator
h(x) = H x they are L = S H' and M = H S H'. L and M are shared across
members and are assembled from centered products without ever forming
the full d x d sample covariance. One eigendecomposition
M = U diag(lam) U' then gives every member's solve at once,
(M + v I)^-1 = U diag(1 / (lam + v)) U', and the perturbations of all
members are one (N, m) block, drawn onward from the caller's Generator.

analysis() is the one kernel: it takes the members and their predicted
observations, so the trainer's nonlinear measurement and enkf_update's
linear operator H both go through it. It shifts the members in place,
SCRATCH_BLOCK state columns at a time, and uq walks test rows in blocks
of the same size, so no members-wide temporary that grows with d or with
the test rows holds more than N x SCRATCH_BLOCK x (widest arm layer) floats.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, InvalidInputError
from .numerics import RngStream, symmetrize

SCRATCH_BLOCK = 128  # state columns per block of L and the shift; uq's rows too


@dataclass
class Ensemble:
    """State ensemble; row i is member i."""

    members: np.ndarray

    def __post_init__(self):
        self.members = np.asarray(self.members, dtype=float)
        if self.members.ndim != 2:
            raise DimensionError(f"members must be 2-D, got ndim={self.members.ndim}")
        if self.members.shape[0] < 2:
            raise InvalidInputError(f"need at least 2 members, got {self.members.shape[0]}")
        if not np.all(np.isfinite(self.members)):
            raise InvalidInputError("members must be finite")

    @property
    def size(self) -> int:
        return self.members.shape[0]

    @property
    def dim(self) -> int:
        return self.members.shape[1]


def ensemble_moments(e: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and sample covariance (1/N normalization) of an ensemble."""
    mean = e.members.mean(axis=0)
    centered = e.members - mean
    cov = symmetrize(centered.T @ centered / e.size)
    return mean, cov


def _perturbations(gen: "np.random.Generator", n_members: int, obs_dim: int,
                   obs_var: np.ndarray) -> np.ndarray:
    return gen.standard_normal((n_members, obs_dim)) * np.sqrt(obs_var)[:, None]


def member_perturbations(rng: RngStream, n_members: int, obs_dim: int,
                         obs_var: np.ndarray) -> np.ndarray:
    """Observation perturbations, one row per member.

    One (n_members, obs_dim) standard normal block from the start of rng,
    with row i scaled to covariance obs_var[i] * I.
    """
    return _perturbations(rng.generator(), n_members, obs_dim, obs_var)


def analysis(members: np.ndarray, predicted: np.ndarray, y, obs_var,
             gen: "np.random.Generator") -> np.ndarray:
    """One stochastic EnKF analysis step from the members' own predictions.

    Parameters
    ----------
    members : forecast members, shape (N, d).
    predicted : each member's predicted observations, shape (N, m).
    y : observation vector, length m.
    obs_var : per-member observation noise variance, length N, all > 0.
    gen : Generator that the perturbed observations are drawn onward
        from, one (N, m) block per call.

    Shifts members in place, SCRATCH_BLOCK columns at a time, and returns
    it; an all-+0.0 column stays +0.0, as its row of L is exactly 0.
    Raises numpy.linalg.LinAlgError, members unchanged (no block is yet
    written), if M is not finite or its eigendecomposition fails.
    """
    n, m = predicted.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise DimensionError(f"y shape {y.shape} does not match obs dim {m}")
    obs_var = np.asarray(obs_var, dtype=float)
    if obs_var.shape != (n,):
        raise DimensionError(f"obs_var length {obs_var.shape} does not match N={n}")
    if np.any(obs_var <= 0.0) or not np.all(np.isfinite(obs_var)):
        raise InvalidInputError("obs_var entries must be positive and finite")

    centered_pred = predicted - predicted.mean(axis=0)
    obs_block = centered_pred.T @ centered_pred / n  # eigh reads its lower triangle

    perturbed = _perturbations(gen, n, m, obs_var)
    residual = y[None, :] + perturbed - predicted

    if not np.all(np.isfinite(obs_block)):
        raise np.linalg.LinAlgError("observation block M is not finite")
    eigvals, eigvecs = np.linalg.eigh(obs_block)
    # M is a Gram matrix: eigenvalues at rounding level (negative ones
    # included) span its null space, where L vanishes as well, so those
    # directions are dropped rather than divided by obs_var[i] alone.
    keep = eigvals > m * np.finfo(float).eps * max(eigvals[-1], 0.0)
    lam, basis = eigvals[keep], eigvecs[:, keep]
    coeffs = (residual @ basis) / (lam + obs_var[:, None])
    # a block's rows of L, then its shift: no (N, d) or (d, m) temporary.
    # (B, k) @ (k, N) sums each entry in one order at any BLAS thread count,
    # where (N, k) @ (k, d) did not; the add keeps members' own C order,
    # in which arms.forward_batch takes each member's row
    for start in range(0, members.shape[1], SCRATCH_BLOCK):
        cols = members[:, start:start + SCRATCH_BLOCK]
        cross_b = (cols - cols.mean(axis=0)).T @ centered_pred / n
        shift_b = (cross_b @ basis) @ coeffs.T
        np.add(cols, shift_b.T, out=cols)
    return members


def enkf_update(e: Ensemble, y, obs_matrix, obs_var, rng: RngStream) -> Ensemble:
    """analysis() of an ensemble under a linear observation operator H, (m, d).

    Returns a new ensemble and leaves e as it was; raises as analysis() does.
    """
    h = np.asarray(obs_matrix, dtype=float)
    if h.ndim != 2 or h.shape[1] != e.dim:
        raise DimensionError(f"obs_matrix shape {h.shape} does not match state dim {e.dim}")
    return Ensemble(analysis(e.members.copy(), e.members @ h.T, y, obs_var, rng.generator()))
