import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menkf.arms import ArmSpec, StateLayout, forward_batch
from menkf.enkf import Ensemble, enkf_update
from menkf.exceptions import DimensionError, InvalidInputError, NumericError
from menkf.kalman import kf_forecast, kf_update
from menkf.numerics import RngStream, vec
from menkf.trainer import (_DRAW_BLOCK, Batch, MenkfConfig, _apply_fixed, _forecast, _step,
                           arm_averaged_logits, build_vec_operator, fit,
                           init_ensemble, inv_softplus, linear_reference_system,
                           make_batches, measure, sigmoid, softplus, train_step)


def linear_config(p=2, q=2, **kw):
    base = dict(ensemble_size=60, init_var=4.0, batch_size=8)
    base.update(kw)
    return MenkfConfig(arm_f=ArmSpec(p, (), "identity"),
                       arm_g=ArmSpec(q, (), "identity"), **base)


def toy_batch(rows=8, p=2, q=2, seed=0):
    gen = np.random.default_rng(seed)
    return Batch(gen.standard_normal((rows, p)), gen.standard_normal((rows, q)),
                 gen.standard_normal(rows))


def train_step_explicit(e: Ensemble, batch: Batch, cfg: MenkfConfig,
                        layout: StateLayout, rng: RngStream) -> Ensemble:
    """train_step with the lifted operator materialized: the slow oracle.

    Each member is expanded to the vec of the full two-column state
    matrix, prediction rows included, and updated with the explicit
    operator kron([1, 1], [I_m, 0]). Matches train_step to floating-point
    noise when given the same rng.
    """
    members = _forecast(e.members.copy(), cfg, layout, rng.child(0))
    weight_g = sigmoid(members[:, layout.a_index])[:, None]
    out_f = (1.0 - weight_g) * forward_batch(cfg.arm_f, members[:, layout.wf_slice], batch.v_f)
    out_g = weight_g * forward_batch(cfg.arm_g, members[:, layout.wg_slice], batch.v_g)

    m = batch.size
    ch = layout.column_height
    joint = np.hstack([out_f, members[:, :ch], out_g, members[:, ch:]])
    row_selector = np.hstack([np.eye(m), np.zeros((m, ch))])
    operator = build_vec_operator(row_selector, np.ones((2, 1)))

    obs_var = softplus(members[:, layout.b_index])
    updated = enkf_update(Ensemble(joint), batch.y, operator, obs_var, rng.child(1))
    new_members = np.hstack([updated.members[:, m:m + ch],
                             updated.members[:, 2 * m + ch:]])
    _apply_fixed(new_members, cfg, layout)
    return Ensemble(new_members)


class TestLinkFunctions:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_saturation(self):
        assert sigmoid(20.0) == pytest.approx(1.0, abs=1e-8)
        assert sigmoid(-20.0) == pytest.approx(0.0, abs=1e-8)
        # overflow-safe far into the tails
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(800.0) == 1.0

    def test_sigmoid_within_4_ulp_without_warnings(self):
        # reference: the textbook formula in math, whose exp(-x) overflows
        # below x = -709.78; there sigmoid(x) = exp(x) to double precision
        special = [0.0, 1e-300, 20.0, 709.0, 745.0, 800.0]
        xs = np.concatenate([special, np.negative(special), np.linspace(-709.0, 709.0, 2001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = sigmoid(xs)
            scalars = [sigmoid(float(x)) for x in xs]
        for x, got, one in zip(xs, batch, scalars):
            ref = 1.0 / (1.0 + math.exp(-x)) if x >= -709.0 else math.exp(x)
            assert abs(got - ref) <= 4 * math.ulp(ref), x
            assert one == got

    def test_softplus_values(self):
        assert softplus(0.0) == pytest.approx(math.log(2.0), rel=1e-12)
        assert softplus(-20.0) == pytest.approx(2.0611536224385579e-09, rel=1e-9)
        assert softplus(40.0) == pytest.approx(40.0, rel=1e-12)
        assert softplus(-700.0) > 0.0

    def test_inv_softplus_round_trip(self):
        for y in (1e-8, 1e-3, 0.5, 1.0, 5.0, 30.0, 100.0, 500.0):
            assert softplus(inv_softplus(y)) == pytest.approx(y, rel=1e-9)
        for x in (-15.0, -1.0, 0.0, 3.0, 50.0):
            assert inv_softplus(softplus(x)) == pytest.approx(x, abs=1e-9)

    def test_inv_softplus_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            inv_softplus(0.0)
        with pytest.raises(InvalidInputError):
            inv_softplus(-1.0)

    def test_inv_softplus_vectorized(self):
        y = np.array([0.1, 1.0, 10.0])
        out = inv_softplus(y)
        assert out.shape == (3,)
        np.testing.assert_allclose(softplus(out), y, rtol=1e-9)
        assert isinstance(inv_softplus(1.0), float)

    @given(st.floats(-30.0, 30.0))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_symmetry(self, x):
        s = sigmoid(x)
        assert 0.0 < s < 1.0
        assert s + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=50, deadline=None)
    def test_inv_softplus_property(self, y):
        assert softplus(inv_softplus(y)) == pytest.approx(y, rel=1e-6)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        for kw in (dict(ensemble_size=1), dict(init_var=0.0),
                   dict(batch_size=0), dict(passes_over_data=0),
                   dict(jitter_var=-0.1), dict(variance_init="bogus"),
                   dict(fixed_noise_var=0.0)):
            with pytest.raises(InvalidInputError):
                linear_config(**kw)

    def test_layout_dimensions(self):
        # n_f = 4, n_g = 6; column height max(4, 6) + 2
        cfg = linear_config(p=3, q=5)
        layout = cfg.layout()
        assert (layout.n_f, layout.n_g) == (4, 6)
        assert layout.column_height == 8
        assert layout.dim == 16
        assert layout.a_index == 14 and layout.b_index == 15


class TestInitEnsemble:
    def test_shape_and_structural_zeros(self):
        cfg = linear_config(p=3, q=5, ensemble_size=50)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(1))
        assert e.members.shape == (50, layout.dim)
        assert layout.structural_zeros_ok(e.members)

    def test_active_coordinates_match_prior_variance(self):
        cfg = linear_config(p=8, q=8, ensemble_size=216, init_var=16.0)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(5))
        draws = e.members[:, layout.active_indices()].ravel()
        assert abs(draws.mean()) < 0.5
        assert 14.0 < draws.var() < 18.0

    def test_gamma_variance_init(self):
        cfg = linear_config(ensemble_size=216, variance_init="gamma_shape_scale")
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(2))
        noise = softplus(e.members[:, layout.b_index])
        # Gamma(100, 0.01): mean 1, sd 0.1
        assert noise.mean() == pytest.approx(1.0, abs=0.03)
        assert 0.07 < noise.std() < 0.13
        assert np.all(noise > 0.0)

    def test_deterministic_and_stream_sensitive(self):
        cfg = linear_config()
        layout = cfg.layout()
        a = init_ensemble(cfg, layout, RngStream(9))
        b = init_ensemble(cfg, layout, RngStream(9))
        c = init_ensemble(cfg, layout, RngStream(10))
        np.testing.assert_array_equal(a.members, b.members)
        assert not np.array_equal(a.members, c.members)

    def test_fixed_arm_logit_and_noise(self):
        cfg = linear_config(fixed_arm_logit=0.7, fixed_noise_var=2.5)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(3))
        np.testing.assert_array_equal(e.members[:, layout.a_index], 0.7)
        np.testing.assert_allclose(softplus(e.members[:, layout.b_index]),
                                   2.5, rtol=1e-12)


def member_with(layout, w_f, w_g, a, b=0.0):
    v = np.zeros(layout.dim)
    v[layout.wf_slice] = w_f
    v[layout.wg_slice] = w_g
    v[layout.a_index] = a
    v[layout.b_index] = b
    return v


class TestArmAveraging:
    def setup_method(self):
        self.cfg = linear_config(p=1, q=1)
        self.layout = self.cfg.layout()
        self.v_f = np.array([[2.0]])
        self.v_g = np.array([[5.0]])

    def avg(self, a):
        # f = 3*2 + 1 = 7, g = 2*5 - 1 = 9
        members = np.array([member_with(self.layout, [3.0, 1.0], [2.0, -1.0], a)])
        return arm_averaged_logits(members, self.v_f, self.v_g, self.layout,
                                   self.cfg.arm_f, self.cfg.arm_g)[0, 0]

    def test_equal_weights_at_zero_logit(self):
        assert self.avg(0.0) == pytest.approx(8.0, rel=1e-12)

    def test_saturated_logit_selects_one_arm(self):
        assert self.avg(40.0) == pytest.approx(9.0, rel=1e-12)
        assert self.avg(-40.0) == pytest.approx(7.0, rel=1e-12)

    def test_output_between_arm_outputs(self):
        cfg = linear_config(p=3, q=4)
        layout = cfg.layout()
        gen = np.random.default_rng(11)
        members = np.zeros((40, layout.dim))
        members[:, layout.active_indices()] = gen.standard_normal((40, layout.n_f + layout.n_g + 2)) * 2.0
        v_f = gen.standard_normal((6, 3))
        v_g = gen.standard_normal((6, 4))
        out = arm_averaged_logits(members, v_f, v_g, layout, cfg.arm_f, cfg.arm_g)
        f = forward_batch(cfg.arm_f, members[:, layout.wf_slice], v_f)
        g = forward_batch(cfg.arm_g, members[:, layout.wg_slice], v_g)
        assert np.all(out >= np.minimum(f, g) - 1e-12)
        assert np.all(out <= np.maximum(f, g) + 1e-12)

    def test_measure_shape(self):
        cfg = linear_config()
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(0))
        batch = toy_batch(rows=5)
        assert measure(e, batch, layout, cfg.arm_f, cfg.arm_g).shape == (60, 5)


class TestMakeBatches:
    def test_chunking_with_short_tail(self):
        gen = np.random.default_rng(0)
        v_f = gen.standard_normal((8, 2))
        v_g = gen.standard_normal((8, 3))
        y = np.arange(8.0)
        batches = make_batches(v_f, v_g, y, 3)
        assert [b.size for b in batches] == [3, 3, 2]
        np.testing.assert_array_equal(np.concatenate([b.y for b in batches]), y)
        np.testing.assert_array_equal(np.vstack([b.v_f for b in batches]), v_f)

    def test_single_batch_when_size_exceeds_rows(self):
        batches = make_batches(np.ones((4, 2)), np.ones((4, 2)), np.ones(4), 100)
        assert len(batches) == 1 and batches[0].size == 4

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected(self, batch_size):
        v = np.ones((4, 2))
        with pytest.raises(InvalidInputError, match=f"batch_size must be >= 1, got {batch_size}"):
            make_batches(v, v, np.ones(4), batch_size)

    def test_batch_validation(self):
        with pytest.raises(DimensionError):
            Batch(np.ones((3, 2)), np.ones((4, 2)), np.ones(3))
        with pytest.raises(InvalidInputError):
            Batch(np.ones((0, 2)), np.ones((0, 2)), np.ones(0))
        with pytest.raises(InvalidInputError):
            Batch(np.array([[np.inf, 0.0]]), np.ones((1, 2)), np.ones(1))


PINNED = {"fixed_arm_logit": 0.2, "fixed_noise_var": 0.5}
STEP_CASES = {"plain": {}, "jitter": {"jitter_var": 0.05}, "pinned": PINNED,
              "jitter_pinned": {"jitter_var": 0.05, **PINNED}}
ARM_PAIRS = {"affine": (ArmSpec(2, (), "identity"), ArmSpec(2, (), "identity")),
             "tanh": (ArmSpec(2, (3,), "tanh"), ArmSpec(2, (2,), "tanh"))}


class TestTrainStep:
    @pytest.mark.parametrize("settings", STEP_CASES.values(), ids=STEP_CASES.keys())
    def test_input_ensemble_not_mutated(self, settings):
        # the members are drawn unpinned, so pinning has something to change;
        # a step without jitter or pinning forecasts from them uncopied
        layout = linear_config().layout()
        e = init_ensemble(linear_config(), layout, RngStream(0))
        members, before = e.members, e.members.tobytes()
        out = train_step(e, toy_batch(), linear_config(**settings), layout, RngStream(1))
        assert e.members is members and members.tobytes() == before
        assert not np.shares_memory(out.members, members)

    @pytest.mark.parametrize("settings", STEP_CASES.values(), ids=STEP_CASES.keys())
    @pytest.mark.parametrize("arms", ARM_PAIRS.values(), ids=ARM_PAIRS.keys())
    def test_input_members_bitwise_unchanged(self, arms, settings):
        # the step updates its own copy in place, so repeating it repeats the bits
        cfg = MenkfConfig(arm_f=arms[0], arm_g=arms[1], ensemble_size=20, init_var=1.0,
                          **settings)
        layout = cfg.layout()
        e = Ensemble(np.random.default_rng(5).standard_normal((20, layout.dim)))
        before = e.members.tobytes()
        first = train_step(e, toy_batch(), cfg, layout, RngStream(6))
        assert e.members.tobytes() == before
        second = train_step(e, toy_batch(), cfg, layout, RngStream(6))
        assert e.members.tobytes() == before
        assert first.members.tobytes() == second.members.tobytes()

    @pytest.mark.parametrize("arms", ARM_PAIRS.values(), ids=ARM_PAIRS.keys())
    def test_jitter_is_the_drawn_block_on_the_active_coordinates(self, arms):
        # _forecast adds the draw run by run; the same draw added through
        # the active index array gives the same bits
        cfg = MenkfConfig(arm_f=arms[0], arm_g=arms[1], ensemble_size=20, jitter_var=0.05)
        layout = cfg.layout()
        members = init_ensemble(cfg, layout, RngStream(3)).members
        active = layout.active_indices()
        expected = members.copy()
        expected[:, active] += RngStream(4).generator().normal(
            0.0, math.sqrt(cfg.jitter_var), size=(20, active.size))
        assert _forecast(members, cfg, layout, RngStream(4)) is members
        assert members.tobytes() == expected.tobytes()

    def test_blocked_draws_equal_one_block(self):
        # the paper's arms at N = 216: |active| = 1,092, so _add_normal draws
        # 30 rows a call, 8 calls with a ragged last one of 6 rows. Init and
        # jitter equal one (N, |active|) draw placed on the active coordinates
        spec = ArmSpec(32, (16,), "tanh")
        cfg = MenkfConfig(arm_f=spec, arm_g=spec, ensemble_size=216, init_var=0.1,
                          jitter_var=0.01)
        layout = cfg.layout()
        active = layout.active_indices()
        assert _DRAW_BLOCK // active.size == 30 and 216 % 30 == 6
        expected = np.zeros((216, layout.dim))
        expected[:, active] = RngStream(3).child(0).generator().normal(
            0.0, math.sqrt(cfg.init_var), size=(216, active.size))
        members = init_ensemble(cfg, layout, RngStream(3)).members
        assert members.tobytes() == expected.tobytes()
        expected[:, active] += RngStream(4).generator().normal(
            0.0, math.sqrt(cfg.jitter_var), size=(216, active.size))
        assert _forecast(members, cfg, layout, RngStream(4)) is members
        assert members.tobytes() == expected.tobytes()

    def test_zero_spread_is_fixed_point(self):
        cfg = linear_config(ensemble_size=30)
        layout = cfg.layout()
        row = member_with(layout, [1.0, -1.0, 0.5], [0.2, 0.3, -0.4], a=0.1, b=0.2)
        e = Ensemble(np.tile(row, (30, 1)))
        out = train_step(e, toy_batch(), cfg, layout, RngStream(4))
        np.testing.assert_array_equal(out.members, e.members)

    def test_structural_zeros_and_positive_noise(self):
        cfg = linear_config(p=2, q=5)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(0))
        out = train_step(e, toy_batch(q=5), cfg, layout, RngStream(1))
        assert layout.structural_zeros_ok(out.members)
        assert np.all(softplus(out.members[:, layout.b_index]) > 0.0)

    def test_deterministic(self):
        cfg = linear_config()
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(0))
        a = train_step(e, toy_batch(), cfg, layout, RngStream(2))
        b = train_step(e, toy_batch(), cfg, layout, RngStream(2))
        np.testing.assert_array_equal(a.members, b.members)

    @pytest.mark.parametrize("arm_f, arm_g", [
        (ArmSpec(3, (), "identity"), ArmSpec(2, (), "identity")),
        (ArmSpec(3, (3,), "tanh"), ArmSpec(2, (2,), "tanh")),
    ], ids=["affine", "tanh"])
    def test_matches_explicit_operator_path(self, arm_f, arm_g):
        cfg = MenkfConfig(arm_f=arm_f, arm_g=arm_g, ensemble_size=45, init_var=4.0,
                          batch_size=8, jitter_var=0.02)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(6))
        batch = toy_batch(rows=7, p=3, q=2, seed=3)
        fast = train_step(e, batch, cfg, layout, RngStream(8))
        slow = train_step_explicit(e, batch, cfg, layout, RngStream(8))
        np.testing.assert_allclose(fast.members, slow.members, atol=1e-10)

    def test_innovation_shrinks(self):
        cfg = linear_config(ensemble_size=120, init_var=16.0)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(0))
        batch = toy_batch(rows=8, seed=5)
        pre = np.linalg.norm(batch.y - measure(e, batch, layout, cfg.arm_f, cfg.arm_g).mean(axis=0))
        out = train_step(e, batch, cfg, layout, RngStream(1))
        post = np.linalg.norm(batch.y - measure(out, batch, layout, cfg.arm_f, cfg.arm_g).mean(axis=0))
        assert post < pre

    def test_repeated_assimilation_contracts_spread(self):
        batch = toy_batch(rows=8, seed=2)
        for seed in range(10):
            cfg = linear_config(ensemble_size=80, init_var=9.0)
            layout = cfg.layout()
            e = init_ensemble(cfg, layout, RngStream(seed))
            start = measure(e, batch, layout, cfg.arm_f, cfg.arm_g).var(axis=0).sum()
            for t in range(6):
                e = train_step(e, batch, cfg, layout, RngStream(seed).child(100 + t))
            end = measure(e, batch, layout, cfg.arm_f, cfg.arm_g).var(axis=0).sum()
            assert end < 0.5 * start

    def test_fixed_coordinates_survive_update(self):
        cfg = linear_config(fixed_arm_logit=-0.3, fixed_noise_var=1.5)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(0))
        out = train_step(e, toy_batch(), cfg, layout, RngStream(1))
        np.testing.assert_array_equal(out.members[:, layout.a_index], -0.3)
        np.testing.assert_allclose(softplus(out.members[:, layout.b_index]), 1.5, rtol=1e-12)

    def test_overflowing_observation_block_names_batch(self):
        cfg = linear_config()
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(0))
        members = e.members.copy()
        members[:, :layout.a_index] *= 1e200  # finite weights, but Cov(pred, pred) is not
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="failed to decompose at batch 3"):
            train_step(Ensemble(members), toy_batch(), cfg, layout, RngStream(1),
                       batch_index=3)

    def test_feature_width_mismatch(self):
        cfg = linear_config(p=2, q=2)
        layout = cfg.layout()
        e = init_ensemble(cfg, layout, RngStream(0))
        with pytest.raises(DimensionError):
            train_step(e, toy_batch(p=3, q=2), cfg, layout, RngStream(1))


def replayed_innovations(batches, cfg, root):
    """Each step's innovation recomputed outside fit from its forecast
    members: the pre-update members plus the jitter drawn from
    root.child(2 + t).child(0), with a and b pinned."""
    layout = cfg.layout()
    ens = init_ensemble(cfg, layout, root.child(0))
    norms = []
    for t, batch in enumerate(batches):
        stream = root.child(2 + t)
        members = ens.members.copy()
        if cfg.jitter_var > 0.0:
            active = layout.active_indices()
            members[:, active] += stream.child(0).generator().normal(
                0.0, math.sqrt(cfg.jitter_var), size=(cfg.ensemble_size, active.size))
        _apply_fixed(members, cfg, layout)
        predictions = arm_averaged_logits(members, batch.v_f, batch.v_g, layout,
                                          cfg.arm_f, cfg.arm_g)
        norms.append(float(np.linalg.norm(batch.y - predictions.mean(axis=0))))
        ens = train_step(ens, batch, cfg, layout, stream)
    return norms


class TestOneForwardPassPerStep:
    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    @pytest.mark.parametrize("arms", ARM_PAIRS.values(), ids=ARM_PAIRS.keys())
    def test_fit_runs_each_arm_once_per_step(self, monkeypatch, arms, shuffle):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return forward_batch(*args, **kwargs)

        monkeypatch.setattr("menkf.trainer.forward_batch", counted)
        cfg = MenkfConfig(arm_f=arms[0], arm_g=arms[1], ensemble_size=20, init_var=1.0,
                          batch_size=4, passes_over_data=2, jitter_var=0.01,
                          shuffle_batches=shuffle)
        gen = np.random.default_rng(4)
        batches = make_batches(gen.standard_normal((10, 2)), gen.standard_normal((10, 2)),
                               gen.standard_normal(10), cfg.batch_size)
        _, trace = fit(batches, cfg, RngStream(3))
        assert trace["step"] == list(range(6))
        assert calls == [arms[0], arms[1]] * 6

    @pytest.mark.parametrize("arms", ARM_PAIRS.values(), ids=ARM_PAIRS.keys())
    def test_innovation_is_taken_from_the_forecast_members(self, arms):
        cfg = MenkfConfig(arm_f=arms[0], arm_g=arms[1], ensemble_size=30, init_var=2.0,
                          batch_size=4, jitter_var=0.05, **PINNED)
        batches = [toy_batch(rows=4, seed=s) for s in range(3)]
        _, trace = fit(batches, cfg, RngStream(17))
        assert trace["innovation_norm"] == replayed_innovations(batches, cfg, RngStream(17))

    def test_jitter_free_innovation_is_the_pre_update_one(self):
        # without jitter the forecast members are the pre-update members,
        # so the logged value is ||y - mean(measure(pre-update))|| bit for bit
        cfg = linear_config(ensemble_size=30, batch_size=4)
        layout = cfg.layout()
        batches = [toy_batch(rows=4, seed=s) for s in range(3)]
        root = RngStream(19)
        _, trace = fit(batches, cfg, root)
        ens = init_ensemble(cfg, layout, root.child(0))
        expected = []
        for t, batch in enumerate(batches):
            pre_mean = measure(ens, batch, layout, cfg.arm_f, cfg.arm_g).mean(axis=0)
            expected.append(float(np.linalg.norm(batch.y - pre_mean)))
            ens = train_step(ens, batch, cfg, layout, root.child(2 + t))
        assert trace["innovation_norm"] == expected


class TestFit:
    def test_single_step_composition(self):
        cfg = linear_config(passes_over_data=1)
        layout = cfg.layout()
        batch = toy_batch()
        root = RngStream(21)
        got, trace = fit([batch], cfg, root)
        manual = train_step(init_ensemble(cfg, layout, root.child(0)),
                            batch, cfg, layout, root.child(2))
        np.testing.assert_array_equal(got.members, manual.members)
        assert trace["step"] == [0]

    def test_trace_bookkeeping(self):
        cfg = linear_config(passes_over_data=2)
        batches = make_batches(np.ones((6, 2)) * 0.1, np.ones((6, 2)) * 0.2,
                               np.linspace(-1, 1, 6), 2)
        _, trace = fit(batches, cfg, RngStream(0))
        assert list(trace) == ["step", "pass_index", "batch_index", "weight_g",
                               "noise_var", "innovation_norm"]
        assert trace["step"] == list(range(6))
        assert trace["pass_index"] == [0, 0, 0, 1, 1, 1]
        assert trace["batch_index"] == [0, 1, 2, 0, 1, 2]
        assert all(0.0 < w < 1.0 for w in trace["weight_g"])
        assert all(v > 0.0 for v in trace["noise_var"])
        assert all(norm >= 0.0 for norm in trace["innovation_norm"])

    def test_shuffled_batch_order(self):
        cfg = linear_config(passes_over_data=2, shuffle_batches=True)
        gen = np.random.default_rng(3)
        batches = make_batches(gen.standard_normal((12, 2)),
                               gen.standard_normal((12, 2)),
                               gen.standard_normal(12), 2)
        _, trace = fit(batches, cfg, RngStream(13))
        per_pass = [trace["batch_index"][:6], trace["batch_index"][6:]]
        assert trace["pass_index"] == [0] * 6 + [1] * 6
        for order in per_pass:
            assert sorted(order) == list(range(6))
        assert per_pass[0] != list(range(6)) or per_pass[1] != list(range(6))
        _, again = fit(batches, cfg, RngStream(13))
        assert again["batch_index"] == trace["batch_index"]
        assert all(type(b) is int for b in trace["batch_index"])
        assert json.loads(json.dumps(trace)) == trace

    @pytest.mark.parametrize("pinned", [{}, PINNED], ids=["free", "pinned"])
    def test_schedule_stream_plan(self, pinned):
        # pass p visits the batches in root.child(1).child(p)'s permutation
        # and schedule step t runs train_step with root.child(2 + t)
        cfg = linear_config(ensemble_size=20, passes_over_data=3, shuffle_batches=True,
                            jitter_var=0.01, **pinned)
        layout = cfg.layout()
        gen = np.random.default_rng(8)
        batches = make_batches(gen.standard_normal((10, 2)), gen.standard_normal((10, 2)),
                               gen.standard_normal(10), 2)
        root = RngStream(23)
        got, trace = fit(batches, cfg, root)
        order = np.concatenate([root.child(1).child(p).generator().permutation(len(batches))
                                for p in range(3)]).tolist()
        assert trace["batch_index"] == order
        assert trace["pass_index"] == [p for p in range(3) for _ in batches]
        ens = init_ensemble(cfg, layout, root.child(0))
        for t, b in enumerate(order):
            ens = train_step(ens, batches[b], cfg, layout, root.child(2 + t))
        assert got.members.tobytes() == ens.members.tobytes()

    @pytest.mark.parametrize("passes", [1, 4])
    def test_members_checked_once(self, monkeypatch, passes):
        # init_ensemble builds one Ensemble and fit one more, on return;
        # the steps between them pass bare arrays
        built = []

        def counted(members):
            built.append(members.shape)
            return Ensemble(members)

        monkeypatch.setattr("menkf.trainer.Ensemble", counted)
        cfg = linear_config(ensemble_size=20, passes_over_data=passes)
        batches = [toy_batch(rows=4, seed=s) for s in range(3)]
        _, trace = fit(batches, cfg, RngStream(2))
        assert len(trace["step"]) == 3 * passes
        assert built == [(20, cfg.layout().dim)] * 2

    @pytest.mark.parametrize("shuffle", [False, True])
    def test_schedule_is_taken_pass_by_pass(self, monkeypatch, shuffle):
        # each pass's batch order is taken as the pass starts, so a huge pass
        # count costs nothing before the first step: a list of the whole
        # schedule would hold 10**6 entries, about 90 MB, before step 0
        class Stop(Exception):
            pass

        steps = []

        def three_steps(*args):
            if len(steps) == 3:
                raise Stop
            steps.append(args[-1])
            return _step(*args)

        monkeypatch.setattr("menkf.trainer._step", three_steps)
        cfg = linear_config(passes_over_data=10**6, shuffle_batches=shuffle)
        tracemalloc.start()
        try:
            with pytest.raises(Stop):
                fit([toy_batch()], cfg, RngStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert steps == [0, 0, 0]
        assert peak < 2**20

    def test_empty_batch_list_rejected(self):
        with pytest.raises(InvalidInputError):
            fit([], linear_config(), RngStream(0))

    @pytest.mark.parametrize("settings", STEP_CASES.values(), ids=STEP_CASES.keys())
    def test_members_stay_c_ordered(self, settings):
        # arms.forward_batch sums each member's row as it is laid out
        batches = [toy_batch(rows=4, seed=s) for s in range(3)]
        got, _ = fit(batches, linear_config(ensemble_size=20, **settings), RngStream(9))
        assert got.members.flags.c_contiguous

    @pytest.mark.parametrize("jitter_var", [0.0, 0.01])
    @pytest.mark.parametrize("units,dim", [(16, 1094), (32, 2182)])
    def test_peak_memory_is_members_plus_bounded_scratch(self, units, dim, jitter_var):
        # the paper's arms (16 tanh units, 32 inputs) and arms twice as wide,
        # at N = 216. Each step updates the one member array in place; the
        # analysis works one column block at a time and the normals are drawn
        # a row block at a time, so beyond the members a step holds scratch
        # that does not grow with d, besides one arm's (N, rows, units)
        # hidden layer. A whole-state shift, L or noise block would add
        # at least 1.9 MB at d = 1,094 and 3.8 MB at d = 2,182
        spec = ArmSpec(32, (units,), "tanh")
        cfg = MenkfConfig(arm_f=spec, arm_g=spec, ensemble_size=216, init_var=0.1,
                          batch_size=16, jitter_var=jitter_var)
        gen = np.random.default_rng(0)
        batches = make_batches(gen.standard_normal((64, 32)), gen.standard_normal((64, 32)),
                               gen.standard_normal(64), cfg.batch_size)
        nbytes = cfg.ensemble_size * cfg.layout().dim * 8
        hidden = cfg.ensemble_size * cfg.batch_size * units * 8
        assert cfg.layout().dim == dim
        tracemalloc.start()
        try:
            fit(batches, cfg, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * nbytes
        assert peak - nbytes - hidden < 2**20

    def test_frozen_arm_logit_holds_weight(self):
        cfg = linear_config(fixed_arm_logit=0.0, passes_over_data=2)
        batches = make_batches(np.ones((8, 2)), np.ones((8, 2)) * 2.0,
                               np.linspace(0, 1, 8), 4)
        _, trace = fit(batches, cfg, RngStream(1))
        assert trace["weight_g"] == [0.5] * 4

    def test_deterministic_fit(self):
        cfg = linear_config(passes_over_data=2)
        batches = [toy_batch(seed=1), toy_batch(seed=2)]
        a, _ = fit(batches, cfg, RngStream(5))
        b, _ = fit(batches, cfg, RngStream(5))
        np.testing.assert_array_equal(a.members, b.members)


class TestVecOperator:
    def test_small_example(self):
        op = build_vec_operator(np.eye(2), np.ones(2))
        np.testing.assert_array_equal(op, [[1.0, 0.0, 1.0, 0.0],
                                           [0.0, 1.0, 0.0, 1.0]])

    def test_matches_matrix_product(self):
        gen = np.random.default_rng(4)
        h = gen.standard_normal((3, 4))
        x = gen.standard_normal((4, 2))
        g = gen.standard_normal((2, 1))
        op = build_vec_operator(h, g)
        np.testing.assert_allclose(op @ vec(x), (h @ x @ g).ravel(), atol=1e-12)

    def test_column_weights_must_be_single_column(self):
        with pytest.raises(DimensionError):
            build_vec_operator(np.eye(2), np.ones((2, 2)))

    def test_prediction_selector_sums_columns(self):
        # layout used by the explicit path: each column is [predictions; state]
        m, ch = 4, 6
        gen = np.random.default_rng(9)
        x = gen.standard_normal((m + ch, 2))
        selector = np.hstack([np.eye(m), np.zeros((m, ch))])
        op = build_vec_operator(selector, np.ones((2, 1)))
        np.testing.assert_allclose(op @ vec(x), x[:m, 0] + x[:m, 1], atol=1e-12)


class TestLinearReference:
    def make(self, seed=0, m=12, p=2, q=2, weight=0.3, noise=0.7, init_var=2.5):
        cfg = linear_config(p=p, q=q, init_var=init_var,
                            fixed_arm_logit=weight, fixed_noise_var=noise)
        return cfg, cfg.layout(), toy_batch(rows=m, p=p, q=q, seed=seed)

    def test_requires_fixed_coordinates(self):
        cfg = linear_config()
        with pytest.raises(InvalidInputError):
            linear_reference_system(toy_batch(), cfg, cfg.layout())

    def test_requires_linear_arms(self):
        cfg = MenkfConfig(arm_f=ArmSpec(2, (4,), "tanh"),
                          arm_g=ArmSpec(2, (), "identity"),
                          fixed_arm_logit=0.0, fixed_noise_var=1.0)
        with pytest.raises(InvalidInputError):
            linear_reference_system(toy_batch(), cfg, cfg.layout())

    def test_posterior_matches_ridge_regression(self):
        cfg, layout, batch = self.make()
        prior, ss = linear_reference_system(batch, cfg, layout)
        post = kf_update(kf_forecast(prior, ss), batch.y, ss)

        wg = sigmoid(cfg.fixed_arm_logit)
        design = np.hstack([
            (1.0 - wg) * np.hstack([batch.v_f, np.ones((batch.size, 1))]),
            wg * np.hstack([batch.v_g, np.ones((batch.size, 1))]),
        ])
        gram = design.T @ design / cfg.fixed_noise_var + np.eye(design.shape[1]) / cfg.init_var
        expected = np.linalg.solve(gram, design.T @ batch.y / cfg.fixed_noise_var)

        active_w = np.concatenate([post.mean[layout.wf_slice], post.mean[layout.wg_slice]])
        np.testing.assert_allclose(active_w, expected, atol=1e-8)

    def test_frozen_coordinates_pass_through(self):
        cfg, layout, batch = self.make()
        prior, ss = linear_reference_system(batch, cfg, layout)
        post = kf_update(kf_forecast(prior, ss), batch.y, ss)
        assert post.mean[layout.a_index] == pytest.approx(cfg.fixed_arm_logit)
        assert softplus(post.mean[layout.b_index]) == pytest.approx(cfg.fixed_noise_var)
        assert post.cov[layout.a_index, layout.a_index] == pytest.approx(0.0, abs=1e-12)

    def test_large_ensemble_approaches_exact_posterior(self):
        cfg, layout, batch = self.make()
        cfg = MenkfConfig(arm_f=cfg.arm_f, arm_g=cfg.arm_g, ensemble_size=20_000,
                          init_var=cfg.init_var, fixed_arm_logit=cfg.fixed_arm_logit,
                          fixed_noise_var=cfg.fixed_noise_var)
        prior, ss = linear_reference_system(batch, cfg, layout)
        post = kf_update(kf_forecast(prior, ss), batch.y, ss)
        e = init_ensemble(cfg, layout, RngStream(30))
        out = train_step(e, batch, cfg, layout, RngStream(31))
        np.testing.assert_allclose(out.members.mean(axis=0), post.mean, atol=0.05)


class TestLearningDirection:
    def test_informative_arm_wins(self):
        # f sees the signal; g sees pure noise at matched scale
        gen = np.random.default_rng(14)
        v_f = 0.3 * gen.standard_normal((66, 4))
        v_g = 0.3 * gen.standard_normal((66, 4))
        y = v_f @ np.array([1.5, -2.0, 0.8, 1.0]) + 0.3
        cfg = MenkfConfig(arm_f=ArmSpec(4, (), "identity"),
                          arm_g=ArmSpec(4, (), "identity"),
                          ensemble_size=216, init_var=16.0, batch_size=11,
                          passes_over_data=3, jitter_var=0.01,
                          variance_init="gamma_shape_scale")
        layout = cfg.layout()
        batches = make_batches(v_f, v_g, y, cfg.batch_size)
        ens, trace = fit(batches, cfg, RngStream(40))
        weight_f = 1.0 - trace["weight_g"][-1]
        assert weight_f > 0.8
        final = measure(ens, Batch(v_f, v_g, y), layout, cfg.arm_f, cfg.arm_g).mean(axis=0)
        assert np.mean(np.abs(final - y)) < 0.5
