"""Shared numeric kernels: column-major vec, SPD solves, empirical
quantiles, and reproducible RNG streams.

All matrix kernels take and return float64 numpy arrays and use numpy
alone. The vec convention is column-major throughout the package; see
trainer.build_vec_operator for the operator it implies. solve_spd is
the exact Kalman filter's (kalman.kf_update) innovation solve; the
ensemble update solves through an eigendecomposition of its own.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, InvalidInputError, NotSpdError

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Finalizer from the splitmix64 generator; used only to derive stream ids.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Two instances with equal (master_seed, stream_id) produce bitwise
    identical draw sequences. Parallel work must not share one stream;
    it derives per-task children with child(), which is deterministic
    and collision-resistant, so parallel and sequential schedules that
    use the same stream assignment produce identical results.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self) -> "np.random.Generator":  # quoted: numpy.random loads at the first draw
        """Fresh numpy Generator at the start of this stream's sequence."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed & _MASK64,
            spawn_key=(self.stream_id & _MASK64,),
        )
        return np.random.default_rng(seq)

    def child(self, index: int) -> "RngStream":
        """Derive the index-th child stream of this stream."""
        if index < 0:
            raise InvalidInputError(f"child index must be >= 0, got {index}")
        derived = _splitmix64((_splitmix64(self.stream_id & _MASK64) + index) & _MASK64)
        return RngStream(self.master_seed, derived)


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    return a


def vec(m) -> np.ndarray:
    """Stack the columns of a matrix into one vector (column-major vec)."""
    return _as_matrix(m, "m").flatten(order="F")


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A.T) / 2; applied after covariance updates to stop drift."""
    return (a + a.T) / 2.0


def solve_spd(a, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky.

    Raises InvalidInputError when A or b holds a NaN or an infinity, and
    NotSpdError when the factorization fails.
    """
    a = _as_matrix(a, "a")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionError(f"a must be square, got {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.shape[0] != n:
        raise DimensionError(f"b leading dimension {b.shape[0]} != {n}")
    # the factorization passes NaN and inf through without failing
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InvalidInputError("solve_spd requires finite a and b")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as err:
        raise NotSpdError(f"Cholesky factorization failed: {err}") from err
    return np.linalg.solve(lower.T, np.linalg.solve(lower, b))


def empirical_quantile(v, q: float) -> float:
    """Linear-interpolation quantile of a sample.

    Sorts the sample, sets h = q * (n - 1), and interpolates between the
    floor(h) and ceil(h) order statistics.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise DimensionError(f"v must be 1-D, got ndim={v.ndim}")
    if v.size == 0:
        raise InvalidInputError("quantile of an empty sample is undefined")
    if not 0.0 <= q <= 1.0:
        raise InvalidInputError(f"q must lie in [0, 1], got {q}")
    return float(np.quantile(v, q))
