import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from menkf import arms, config
from menkf.arms import ArmSpec, StateLayout, forward_batch, param_count
from menkf.exceptions import DimensionError, InvalidInputError

_ACTIVATIONS = {"identity": lambda z: z, "tanh": np.tanh,
                "relu": lambda z: np.maximum(z, 0.0)}


def forward(spec: ArmSpec, w, v) -> np.ndarray:
    """Named oracle of forward_batch: one flat parameter vector, layer by layer.

    Entries of w past param_count(spec) are padding and are ignored.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[1] != spec.input_dim:
        raise DimensionError(f"inputs must be (rows, {spec.input_dim}), got {v.shape}")
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < param_count(spec):
        raise DimensionError(f"w must be 1-D with at least {param_count(spec)} entries")
    z = v
    offset = 0
    layers = spec.layer_dims()
    for k, (fan_in, fan_out) in enumerate(layers):
        weight = w[offset:offset + fan_in * fan_out].reshape((fan_in, fan_out), order="F")
        offset += fan_in * fan_out
        z = z @ weight + w[offset:offset + fan_out]
        offset += fan_out
        if k < len(layers) - 1:
            z = _ACTIVATIONS[spec.activation](z)
    return z[:, 0]


class TestParamCount:
    def test_linear_arm(self):
        assert param_count(ArmSpec(3, (), "identity")) == 4

    def test_one_hidden_layer(self):
        # (4+1)*8 + (8+1)*1
        assert param_count(ArmSpec(4, (8,), "tanh")) == 49

    def test_two_hidden_layers(self):
        # (10+1)*16 + (16+1)*8 + (8+1)*1
        assert param_count(ArmSpec(10, (16, 8), "tanh")) == 321


class TestArmSpecValidation:
    def test_bad_input_dim(self):
        with pytest.raises(InvalidInputError):
            ArmSpec(0)

    def test_bad_hidden(self):
        with pytest.raises(InvalidInputError):
            ArmSpec(3, (4, 0), "tanh")

    def test_bad_activation(self):
        with pytest.raises(InvalidInputError):
            ArmSpec(3, (4,), "swish")

    def test_hidden_dims_coerced_to_tuple(self):
        assert ArmSpec(3, [4, 2]).hidden_dims == (4, 2)

    def test_every_accepted_activation_has_a_function(self):
        # ArmSpec checks names from config, forward_batch runs arms' functions
        assert set(arms._ACTIVATIONS) == set(config.ACTIVATIONS) == set(_ACTIVATIONS)


class TestForward:
    def test_linear_arm_is_dot_plus_bias(self):
        spec = ArmSpec(3, (), "identity")
        w = np.array([1.0, 2.0, 3.0, 0.5])
        v = np.array([[1.0, 1.0, 1.0], [2.0, 0.0, -1.0]])
        np.testing.assert_allclose(forward(spec, w, v), [6.5, -0.5])

    def test_zero_weights_give_bias(self):
        spec = ArmSpec(4, (3,), "tanh")
        w = np.zeros(param_count(spec))
        w[-1] = 0.25  # output bias is the last entry
        v = np.random.default_rng(0).standard_normal((6, 4))
        np.testing.assert_allclose(forward(spec, w, v), np.full(6, 0.25))

    def test_single_hidden_unit_by_hand(self):
        # hidden pre-activation 0.5 from the first input only, then 2*tanh + 0.5
        spec = ArmSpec(2, (1,), "tanh")
        w = np.array([1.0, 0.0, 0.0, 2.0, 0.5])
        v = np.array([[0.5, 9.0]])
        expected = 2.0 * math.tanh(0.5) + 0.5
        assert forward(spec, w, v)[0] == pytest.approx(expected, rel=1e-12)

    def test_relu_activation(self):
        spec = ArmSpec(1, (2,), "relu")
        # hidden weights [1, -1], biases 0; output weights [1, 1], bias 0
        w = np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
        v = np.array([[3.0], [-2.0]])
        np.testing.assert_allclose(forward(spec, w, v), [3.0, 2.0])

    def test_trailing_padding_ignored(self):
        spec = ArmSpec(3, (2,), "tanh")
        rng = np.random.default_rng(5)
        w = rng.standard_normal(param_count(spec))
        v = rng.standard_normal((4, 3))
        base = forward(spec, w, v)
        padded = np.concatenate([w, [99.0, -3.0, 7.0]])
        np.testing.assert_array_equal(forward(spec, padded, v), base)

    def test_short_weights_rejected(self):
        spec = ArmSpec(3, (), "identity")
        with pytest.raises(DimensionError):
            forward(spec, np.zeros(3), np.zeros((1, 3)))

    def test_wrong_input_width_rejected(self):
        spec = ArmSpec(3, (), "identity")
        with pytest.raises(DimensionError):
            forward(spec, np.zeros(4), np.zeros((1, 2)))

    def test_linear_in_weights_for_identity_arms(self):
        spec = ArmSpec(4, (), "identity")
        rng = np.random.default_rng(8)
        v = rng.standard_normal((7, 4))
        w1 = rng.standard_normal(5)
        w2 = rng.standard_normal(5)
        lhs = forward(spec, 2.0 * w1 - 3.0 * w2, v)
        rhs = 2.0 * forward(spec, w1, v) - 3.0 * forward(spec, w2, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_padding_never_changes_output(self, seed, extra):
        spec = ArmSpec(3, (4,), "tanh")
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(param_count(spec))
        v = rng.standard_normal((3, 3))
        padded = np.concatenate([w, np.zeros(extra)])
        np.testing.assert_array_equal(forward(spec, padded, v), forward(spec, w, v))


class TestForwardBatch:
    @pytest.mark.parametrize("spec", [
        ArmSpec(3, (), "identity"),
        ArmSpec(3, (5,), "tanh"),
        ArmSpec(2, (4, 3), "relu"),
    ])
    def test_matches_per_member_forward(self, spec):
        rng = np.random.default_rng(21)
        n = 9
        weights = rng.standard_normal((n, param_count(spec) + 2))
        v = rng.standard_normal((6, spec.input_dim))
        before = weights.tobytes(), v.tobytes()
        batch = forward_batch(spec, weights, v)
        # the bias and the activation work in place, on the layer's product only
        assert (weights.tobytes(), v.tobytes()) == before
        for i in range(n):
            np.testing.assert_array_equal(batch[i], forward(spec, weights[i], v))

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([ArmSpec(3, (), "identity"), ArmSpec(12, (), "identity"),
                            ArmSpec(4, (6,), "tanh"), ArmSpec(9, (16,), "tanh"),
                            ArmSpec(2, (5, 3), "relu")]),
           st.integers(1, 12), st.integers(1, 24), st.integers(0, 4))
    @example(0, ArmSpec(12, (), "identity"), 2, 1, 0)  # one row over an F-ordered stack
    @settings(max_examples=60, deadline=None)
    def test_bits_do_not_depend_on_memory_layout(self, seed, spec, n, rows, lead):
        # any layout of v, and weights as a C copy, an F copy, a column slice of
        # a wider member matrix or of a row-strided view of one, give the oracle's bits
        rng = np.random.default_rng(seed)
        cols = slice(lead, lead + param_count(spec))
        members = rng.standard_normal((2 * n, cols.stop + 3))
        v = rng.standard_normal((rows, spec.input_dim))
        wide = np.ascontiguousarray(members[::2])
        weights = np.ascontiguousarray(wide[:, cols])
        expected = np.array([forward(spec, w, v) for w in weights])
        inputs = (v, np.asfortranarray(v), np.repeat(v, 2, axis=1)[:, ::2])
        stacks = (weights, np.asfortranarray(weights), wide[:, cols], members[::2, cols])
        for v_any in inputs:
            for w_any in stacks:
                np.testing.assert_array_equal(forward_batch(spec, w_any, v_any), expected)

    def test_shape(self):
        spec = ArmSpec(2, (3,), "tanh")
        out = forward_batch(spec, np.zeros((4, param_count(spec))), np.zeros((5, 2)))
        assert out.shape == (4, 5)

    def test_narrow_weight_matrix_rejected(self):
        spec = ArmSpec(2, (3,), "tanh")
        with pytest.raises(DimensionError):
            forward_batch(spec, np.zeros((4, 3)), np.zeros((5, 2)))


class TestStateLayout:
    def test_unequal_arms_example(self):
        lay = StateLayout(n_f=3, n_g=5)
        assert lay.n_pad == 5
        assert lay.column_height == 7
        assert lay.dim == 14
        assert lay.wf_slice == slice(0, 3)
        assert lay.wg_slice == slice(7, 12)
        assert lay.a_index == 12
        assert lay.b_index == 13
        assert lay.active_runs() == (slice(0, 3), slice(7, 12), slice(12, 14))
        np.testing.assert_array_equal(lay.active_indices(), [0, 1, 2, 7, 8, 9, 10, 11, 12, 13])
        np.testing.assert_array_equal(lay.structural_zero_indices(), [3, 4, 5, 6])

    def test_equal_arms_have_two_zeros(self):
        lay = StateLayout(n_f=4, n_g=4)
        assert lay.dim == 12
        np.testing.assert_array_equal(lay.structural_zero_indices(), [4, 5])
        assert lay.a_index == 10 and lay.b_index == 11

    def test_active_plus_zeros_partition_the_vector(self):
        lay = StateLayout(n_f=6, n_g=2)
        both = np.concatenate([lay.active_indices(), lay.structural_zero_indices()])
        np.testing.assert_array_equal(np.sort(both), np.arange(lay.dim))

    def test_from_specs(self):
        lay = StateLayout.from_specs(ArmSpec(3, (), "identity"), ArmSpec(4, (8,), "tanh"))
        assert (lay.n_f, lay.n_g) == (4, 49)
