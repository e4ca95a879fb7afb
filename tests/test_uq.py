import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from menkf.arms import ArmSpec, StateLayout
from menkf.enkf import Ensemble
from menkf.exceptions import DimensionError, InvalidInputError
from menkf.numerics import RngStream, empirical_quantile
from menkf.trainer import (MenkfConfig, arm_averaged_logits, fit, init_ensemble,
                           make_batches, sigmoid)
from menkf.uq import (AdequacyReport, PredictionSummary, adequacy, coverage,
                      interval_adequacy, interval_arrays, predict)

LAYOUT = StateLayout(2, 2)
SPEC = ArmSpec(1, (), "identity")


def constant_ensemble(logits, a=0.0):
    """Members that predict a fixed logit each: slope 0, bias = logit."""
    members = np.zeros((len(logits), LAYOUT.dim))
    members[:, 1] = logits  # f bias
    members[:, LAYOUT.column_height + 1] = logits  # g bias
    members[:, LAYOUT.a_index] = a
    return Ensemble(members)


ROW = np.zeros((1, 1))


class TestPredict:
    def test_identical_members_have_zero_width(self):
        e = constant_ensemble([0.7] * 5)
        (s,) = predict(e, ROW, ROW, LAYOUT, SPEC, SPEC)
        assert s.point == pytest.approx(sigmoid(0.7))
        assert s.lo == s.hi == pytest.approx(sigmoid(0.7))
        assert s.width == 0.0

    def test_interval_endpoints_from_known_draws(self):
        # five probabilities; 2.5% sits between the two smallest:
        # 0.9 * sigmoid(-2) + 0.1 * sigmoid(-1)
        e = constant_ensemble([-2.0, -1.0, 0.0, 1.0, 2.0])
        (s,) = predict(e, ROW, ROW, LAYOUT, SPEC, SPEC)
        assert s.lo == pytest.approx(0.13417677, abs=1e-8)
        assert s.hi == pytest.approx(0.86582323, abs=1e-8)
        assert s.point == pytest.approx(0.5, abs=1e-12)

    def test_one_summary_per_row(self):
        gen = np.random.default_rng(0)
        e = constant_ensemble(gen.standard_normal(20))
        rows = np.zeros((7, 1))
        summaries = predict(e, rows, rows, LAYOUT, SPEC, SPEC)
        assert len(summaries) == 7
        for s in summaries:
            assert 0.0 < s.lo <= s.point <= s.hi < 1.0
            assert s.draws.shape == (20,)

    def test_width_grows_with_ensemble_spread(self):
        gen = np.random.default_rng(1)
        base = gen.standard_normal(200)
        (narrow,) = predict(constant_ensemble(0.1 * base), ROW, ROW, LAYOUT, SPEC, SPEC)
        (wide,) = predict(constant_ensemble(1.0 * base), ROW, ROW, LAYOUT, SPEC, SPEC)
        assert wide.width > narrow.width

    def test_draws_are_probabilities(self):
        e = constant_ensemble([-50.0, 50.0])
        (s,) = predict(e, ROW, ROW, LAYOUT, SPEC, SPEC)
        assert np.all((s.draws >= 0.0) & (s.draws <= 1.0))


def logit_table_ensemble(logits):
    """An ensemble, inputs and arms whose member logits are exactly the
    (N, rows) table: arm f is affine on one-hot rows with the table as
    its weights, and a = -800 puts all weight on it."""
    n, rows = logits.shape
    spec_f, spec_g = ArmSpec(rows, (), "identity"), ArmSpec(1, (), "identity")
    layout = StateLayout.from_specs(spec_f, spec_g)
    members = np.zeros((n, layout.dim))
    members[:, layout.wf_slice.start:layout.wf_slice.start + rows] = logits
    members[:, layout.a_index] = -800.0
    # the kernel reads only .members; an Ensemble would refuse N = 1
    return (SimpleNamespace(members=members), np.eye(rows), np.zeros((rows, 1)),
            layout, spec_f, spec_g)


class TestIntervalArrays:
    # a few repeated logits make tied draws; N = 1 and N = 2 are the edges
    # of the quantile rule, and from N = 8 numpy's pairwise sum along a row
    # departs from a plain sum down a column
    @given(st.integers(1, 240).flatmap(lambda n: hnp.arrays(
        float, st.tuples(st.just(n), st.integers(1, 9)),
        elements=st.sampled_from([-2.0, 0.0, 0.5]) | st.floats(-40.0, 40.0))))
    @example(np.array([[0.5, -2.0]]))
    @example(np.array([[0.5, -2.0], [0.5, 3.0]]))
    @settings(max_examples=150, deadline=None)
    def test_equals_per_row_rule_bitwise(self, logits):
        e, v_f, v_g, layout, spec_f, spec_g = logit_table_ensemble(logits)
        point, lo, hi = interval_arrays(e, v_f, v_g, layout, spec_f, spec_g)
        draws = sigmoid(logits)
        assert point.shape == lo.shape == hi.shape == (logits.shape[1],)
        for j, s in enumerate(predict(e, v_f, v_g, layout, spec_f, spec_g)):
            np.testing.assert_array_equal(s.draws, draws[:, j])
            col = draws[:, j]
            assert point[j] == float(np.mean(col.copy()))
            assert lo[j] == empirical_quantile(col.copy(), 0.025)
            assert hi[j] == empirical_quantile(col.copy(), 0.975)

    # logits of +-800 saturate to exactly 0.0 and 1.0, so the sorted rows tie at
    # both ends, where the quantile's interpolation reads equal order statistics
    @given(st.integers(1, 240).flatmap(lambda n: hnp.arrays(
        float, st.tuples(st.just(n), st.integers(1, 9)),
        elements=st.sampled_from([-800.0, 800.0, 0.5]) | st.floats(-40.0, 40.0))))
    @example(np.array([[-800.0, 800.0], [800.0, -800.0]]))
    @example(np.full((216, 3), 800.0))
    @settings(max_examples=150, deadline=None)
    def test_saturated_draws_equal_per_row_rule_bitwise(self, logits):
        e, v_f, v_g, layout, spec_f, spec_g = logit_table_ensemble(logits)
        point, lo, hi = interval_arrays(e, v_f, v_g, layout, spec_f, spec_g)
        draws = sigmoid(logits)
        for j in range(logits.shape[1]):
            col = draws[:, j]
            assert point[j] == float(np.mean(col.copy()))
            assert lo[j] == empirical_quantile(col.copy(), 0.025)
            assert hi[j] == empirical_quantile(col.copy(), 0.975)

    @pytest.mark.parametrize("n", [216, 433])  # the presets' ensemble sizes
    def test_preset_sizes_equal_per_row_rule_bitwise(self, n):
        # rows with k members at each of -800 and +800, so that 0.0 and 1.0 ties
        # sit at and around the order statistics each bound reads; saturated
        # rows; and enough random rows that the two forms of the interpolation
        # round apart on some of them
        gen = np.random.default_rng(n)
        ties = [np.where(np.arange(n) < k, -800.0, np.where(np.arange(n) >= n - k, 800.0, 0.3))
                for k in range(3, 14)]
        logits = np.column_stack([*ties, 3.0 * gen.standard_normal((n, 400)),
                                  gen.choice([-800.0, 800.0], size=(n, 4)),
                                  gen.choice([-800.0, 800.0, 0.0], size=(n, 4)),
                                  np.full(n, -800.0), np.full(n, 800.0)])
        logits = gen.permuted(logits, axis=0)  # ties in no particular member order
        _, lo, hi = interval_arrays(*logit_table_ensemble(logits))
        draws = sigmoid(logits)
        for j in range(logits.shape[1]):
            assert lo[j] == empirical_quantile(draws[:, j].copy(), 0.025)
            assert hi[j] == empirical_quantile(draws[:, j].copy(), 0.975)

    def test_predict_wraps_the_arrays(self):
        logits = np.random.default_rng(4).standard_normal((216, 5))
        args = logit_table_ensemble(logits)
        point, lo, hi = interval_arrays(*args)
        summaries = predict(*args)
        assert [s.point for s in summaries] == point.tolist()
        assert [(s.lo, s.hi) for s in summaries] == list(zip(lo.tolist(), hi.tolist()))
        for j, s in enumerate(summaries):
            np.testing.assert_array_equal(s.draws, sigmoid(logits[:, j]))

    @pytest.mark.parametrize("rows_f, rows_g", [(5, 1), (1, 5), (5, 3), (1025, 1),
                                                (1025, 1024)])
    def test_row_count_mismatch_rejected(self, rows_f, rows_g):
        # a one-row input must not broadcast against the other arm's rows
        e = constant_ensemble([0.1, 0.4, -0.3])
        v_f, v_g = np.zeros((rows_f, 1)), np.zeros((rows_g, 1))
        named = rf"v_f \({rows_f}, 1\) and v_g \({rows_g}, 1\)"
        for call in (interval_arrays, predict):
            with pytest.raises(DimensionError, match=named):
                call(e, v_f, v_g, LAYOUT, SPEC, SPEC)
        with pytest.raises(DimensionError, match=named):
            arm_averaged_logits(e.members, v_f, v_g, LAYOUT, SPEC, SPEC)


def random_arms(spec, rows, seed, members=40):
    """A random ensemble and random inputs for two equal arms."""
    layout = StateLayout.from_specs(spec, spec)
    gen = np.random.default_rng(seed)
    members = gen.standard_normal((members, layout.dim))
    v_f, v_g = gen.standard_normal((2, rows, spec.input_dim))
    return Ensemble(members), v_f, v_g, layout, spec, spec


class TestBlocks:
    # rows on both sides of one and two blocks, and a short last block
    @pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049, 3000])
    @pytest.mark.parametrize("spec", [ArmSpec(3, (), "identity"), ArmSpec(3, (4,), "tanh")],
                             ids=["affine", "tanh"])
    def test_blocks_keep_the_per_row_rule(self, rows, spec):
        args = random_arms(spec, rows, seed=rows)
        point, lo, hi = interval_arrays(*args)
        summaries = predict(*args)
        assert [s.point for s in summaries] == point.tolist()
        assert [s.lo for s in summaries] == lo.tolist()
        assert [s.hi for s in summaries] == hi.tolist()
        for s in summaries:
            assert s.point == float(np.mean(s.draws))
            assert s.lo == empirical_quantile(s.draws, 0.025)
            assert s.hi == empirical_quantile(s.draws, 0.975)
        # one unblocked pass over all rows agrees to rounding
        e, v_f, v_g, layout, spec_f, spec_g = args
        draws = sigmoid(arm_averaged_logits(e.members, v_f, v_g, layout, spec_f, spec_g))
        whole = [draws.mean(axis=0), *np.quantile(draws, [0.025, 0.975], axis=0)]
        for got, want in zip((point, lo, hi), whole):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_memory_does_not_grow_with_rows(self):
        # at N = 216 one (N, rows) float table is 1.7 KB per row; blocks keep
        # the peak flat apart from the three (rows,) outputs
        def peak(rows):
            args = random_arms(ArmSpec(3, (), "identity"), rows, seed=0, members=216)
            tracemalloc.start()
            try:
                interval_arrays(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1024)  # the first call in a process makes one-time allocations
        assert peak(16384) - peak(4096) < 2**20
        # one block's draws are freed before the next block's are drawn
        assert peak(2048) - peak(1024) < 2**20


def summary(lo, hi, point=None):
    return PredictionSummary(draws=np.array([lo, hi]), point=point if point is not None else (lo + hi) / 2,
                             lo=lo, hi=hi)


class TestCoverage:
    def test_closed_endpoints_count(self):
        s = summary(0.2, 0.6)
        assert coverage([s], [0.2]) == 1.0
        assert coverage([s], [0.6]) == 1.0
        assert coverage([s], [0.61]) == 0.0

    def test_zero_width_interval(self):
        s = summary(0.4, 0.4)
        assert coverage([s], [0.4]) == 1.0
        assert coverage([s], [0.4000001]) == 0.0

    def test_fraction(self):
        sums = [summary(0.1, 0.3), summary(0.4, 0.6), summary(0.7, 0.9)]
        assert coverage(sums, [0.2, 0.9, 0.8]) == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            coverage([summary(0.1, 0.2)], [0.1, 0.2])

    def test_empty_is_undefined(self):
        with pytest.raises(InvalidInputError):
            coverage([], [])


class TestAdequacy:
    def test_report_arithmetic(self):
        sums = [summary(0.2, 0.4, point=0.3), summary(0.5, 0.9, point=0.7)]
        e = constant_ensemble([0.0, 0.0, 0.0], a=0.0)
        report = adequacy(sums, [0.3, 0.95], e, LAYOUT)
        assert report.coverage == pytest.approx(0.5)
        assert report.avg_width == pytest.approx((0.2 + 0.4) / 2)
        assert report.mae == pytest.approx((0.0 + 0.25) / 2)
        assert report.mean_arm_weight == pytest.approx(0.5)
        assert report.n_test == 2

    def test_to_dict_includes_both_arm_weights(self):
        d = AdequacyReport(coverage=1.0, avg_width=0.1, mae=0.05,
                           mean_arm_weight=0.3, n_test=4, frac_wide=0.0,
                           frac_contains_half=0.5).to_dict()
        assert d["arm_f_weight"] == pytest.approx(0.7)
        assert set(d) == {"coverage", "avg_width", "mae", "mean_arm_weight",
                          "arm_f_weight", "n_test", "frac_wide", "frac_contains_half"}

    def test_sharpness_fractions(self):
        # widths 0.99, 0.995, 0.2, 0.1: the first two count as wide, and
        # 0.5 lies in the first, the second and (closed end) the last
        sums = [summary(0.0, 0.99), summary(0.004, 0.999), summary(0.2, 0.4),
                summary(0.5, 0.6)]
        e = constant_ensemble([0.0, 0.0])
        report = adequacy(sums, [0.5, 0.5, 0.3, 0.55], e, LAYOUT)
        assert report.frac_wide == 0.5
        assert report.frac_contains_half == 0.75
        assert report.coverage == 1.0  # full coverage, half of it uninformative

    def test_sharp_intervals_flag_nothing(self):
        sums = [summary(0.1, 0.3), summary(0.6, 0.7)]
        report = adequacy(sums, [0.2, 0.65], constant_ensemble([0.0, 0.0]), LAYOUT)
        assert report.frac_wide == 0.0 and report.frac_contains_half == 0.0

    def test_mean_arm_weight_reads_ensemble(self):
        e = constant_ensemble([0.0, 0.0], a=40.0)  # all weight on arm g
        report = adequacy([summary(0.1, 0.9)], [0.5], e, LAYOUT)
        assert report.mean_arm_weight == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("length", [2, 4, 1])  # n - 1, n + 1 and 1 for n = 3
    def test_truth_of_the_wrong_length(self, length):
        # the shape is checked before the point error is taken, which would
        # broadcast a length-1 truth and fail on the others with numpy's error
        sums = [summary(0.1, 0.3), summary(0.4, 0.6), summary(0.7, 0.9)]
        point, lo, hi = (np.array([getattr(s, name) for s in sums])
                         for name in ("point", "lo", "hi"))
        truth, e = np.full(length, 0.5), constant_ensemble([0.0, 0.0])
        with pytest.raises(DimensionError, match=f"truth length \\({length},\\)"):
            interval_adequacy(point, lo, hi, truth, e, LAYOUT)
        with pytest.raises(DimensionError, match=f"truth length \\({length},\\)"):
            adequacy(sums, truth, e, LAYOUT)


class TestPredictAfterFit:
    def test_training_improves_point_error(self):
        gen = np.random.default_rng(3)
        v_f = 0.3 * gen.standard_normal((60, 3))
        v_g = 0.3 * gen.standard_normal((60, 3))
        logits = v_f @ np.array([2.0, -1.5, 1.0]) - 0.2
        truth = sigmoid(logits)
        cfg = MenkfConfig(arm_f=ArmSpec(3, (), "identity"),
                          arm_g=ArmSpec(3, (), "identity"),
                          ensemble_size=150, init_var=16.0, batch_size=10,
                          passes_over_data=2)
        layout = cfg.layout()
        prior = init_ensemble(cfg, layout, RngStream(8).child(0))
        before = adequacy(predict(prior, v_f, v_g, layout, cfg.arm_f, cfg.arm_g),
                          truth, prior, layout)
        trained, _ = fit(make_batches(v_f, v_g, logits, cfg.batch_size), cfg, RngStream(8))
        after = adequacy(predict(trained, v_f, v_g, layout, cfg.arm_f, cfg.arm_g),
                         truth, trained, layout)
        assert after.mae < before.mae
        assert after.mae < 0.1
        assert after.avg_width < before.avg_width
