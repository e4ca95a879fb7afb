import numpy as np
import pytest

from menkf.arms import ArmSpec, StateLayout
from menkf.enkf import Ensemble
from menkf.exceptions import DimensionError, InvalidInputError
from menkf.numerics import RngStream
from menkf.trainer import (MenkfConfig, fit, init_ensemble, make_batches,
                           sigmoid)
from menkf.uq import AdequacyReport, PredictionSummary, adequacy, coverage, predict

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
                           mean_arm_weight=0.3, n_test=4).to_dict()
        assert d["arm_f_weight"] == pytest.approx(0.7)
        assert set(d) == {"coverage", "avg_width", "mae", "mean_arm_weight",
                          "arm_f_weight", "n_test"}

    def test_mean_arm_weight_reads_ensemble(self):
        e = constant_ensemble([0.0, 0.0], a=40.0)  # all weight on arm g
        report = adequacy([summary(0.1, 0.9)], [0.5], e, LAYOUT)
        assert report.mean_arm_weight == pytest.approx(1.0, abs=1e-12)


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
