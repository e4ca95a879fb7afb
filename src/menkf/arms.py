"""Feedforward arms with flat parameter vectors, plus the augmented
state layout that places two arms and two scalars in one member vector.

Weight layout per arm, frozen so checkpoints stay readable: layers run
input -> hidden... -> 1 (scalar output, no output activation). For each
layer the weight matrix is stored column-major, followed by that
layer's biases. param_count gives the exact length; forward_batch
accepts longer vectors and ignores the trailing entries, which is what
lets a shorter arm live padded inside a shared state block.

Every layer is z = act(z @ W + b), the output layer without act;
forward_batch runs it for all members at once and matches each
member's own pass bit for bit, whatever the layout of the input rows.

A member vector is the column-major vec of the (n_pad + 2, 2) block

    [ w_f  w_g ]
    [  0    a  ]
    [  0    b  ]

with each arm's weights zero-padded to n_pad = max(n_f, n_g). The pad
tails and the two zeros under w_f never carry state; they are the
layout's structural zeros, +0.0 from the draw on (see enkf.analysis).
"""

from dataclasses import dataclass

import numpy as np

from .config import ArmSpec
from .exceptions import DimensionError, InvalidInputError

# The function of each name in config.ACTIVATIONS; each writes over its
# argument, a layer's own fresh array.
_ACTIVATIONS = {
    "identity": lambda z: z,
    "tanh": lambda z: np.tanh(z, out=z),
    "relu": lambda z: np.maximum(z, 0.0, out=z),
}


def param_count(spec: ArmSpec) -> int:
    """Total number of weights and biases in one arm."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in spec.layer_dims())


def _check_inputs(spec: ArmSpec, v: np.ndarray) -> np.ndarray:
    v = np.ascontiguousarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != spec.input_dim:
        raise DimensionError(
            f"inputs must be (rows, {spec.input_dim}), got {v.shape}")
    return v


def forward_batch(spec: ArmSpec, weights, v) -> np.ndarray:
    """Scalar outputs of one arm per parameter vector on a batch of input rows.

    weights is (N, >= param_count), one flat parameter vector per row;
    entries past param_count(spec) are padding and are ignored. Returns
    (N, rows).

    Each layer is the per-member z @ W + b, matmul broadcasting the rows
    over the (N, fan_in, fan_out) weight stack; the bias and the activation
    then work in place on that product, so neither v nor weights is ever
    written. v is taken C-ordered; weights need only each member's
    parameters contiguous, as in any column slice of a C-ordered member
    matrix.
    """
    v = _check_inputs(spec, v)
    weights = np.asarray(weights, dtype=float)
    need = param_count(spec)
    if weights.ndim != 2 or weights.shape[1] < need:
        raise DimensionError(
            f"weights must be (N, >={need}), got {weights.shape}")
    n = weights.shape[0]
    act = _ACTIVATIONS[spec.activation]
    z = v
    offset = 0
    layers = spec.layer_dims()
    for k, (fan_in, fan_out) in enumerate(layers):
        block = weights[:, offset:offset + fan_in * fan_out]
        offset += fan_in * fan_out
        # column-major per member: entry (i, j) sits at j * fan_in + i
        weight = block.reshape(n, fan_out, fan_in).transpose(0, 2, 1)
        z = z @ weight
        z += weights[:, None, offset:offset + fan_out]
        offset += fan_out
        if k < len(layers) - 1:
            z = act(z)
    return z[:, :, 0]


@dataclass(frozen=True)
class StateLayout:
    """Index map for the flat augmented member vector.

    Coordinates run [w_f | pad | 0 0 | w_g | pad | a b]; dim is
    2 * (n_pad + 2). Everything outside w_f, w_g, a, b is a structural
    zero.
    """

    n_f: int
    n_g: int

    def __post_init__(self):
        if self.n_f < 1 or self.n_g < 1:
            raise InvalidInputError("arm parameter counts must be >= 1")

    @classmethod
    def from_specs(cls, spec_f: ArmSpec, spec_g: ArmSpec) -> "StateLayout":
        return cls(param_count(spec_f), param_count(spec_g))

    @property
    def n_pad(self) -> int:
        return max(self.n_f, self.n_g)

    @property
    def column_height(self) -> int:
        return self.n_pad + 2

    @property
    def dim(self) -> int:
        return 2 * self.column_height

    @property
    def wf_slice(self) -> slice:
        return slice(0, self.n_f)

    @property
    def wg_slice(self) -> slice:
        return slice(self.column_height, self.column_height + self.n_g)

    @property
    def a_index(self) -> int:
        return self.column_height + self.n_pad

    @property
    def b_index(self) -> int:
        return self.column_height + self.n_pad + 1

    def active_runs(self) -> tuple[slice, slice, slice]:
        """The contiguous runs of coordinates that carry state: w_f, w_g, [a b]."""
        return self.wf_slice, self.wg_slice, slice(self.a_index, self.b_index + 1)

    def active_indices(self) -> np.ndarray:
        """Coordinates that carry state, in layout order."""
        return np.concatenate([np.arange(run.start, run.stop) for run in self.active_runs()])

    def structural_zero_indices(self) -> np.ndarray:
        mask = np.ones(self.dim, dtype=bool)
        mask[self.active_indices()] = False
        return np.flatnonzero(mask)

    def structural_zeros_ok(self, members: np.ndarray) -> bool:
        return bool(np.all(members[:, self.structural_zero_indices()] == 0.0))
