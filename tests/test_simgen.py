import numpy as np
import pytest

from menkf.exceptions import ConfigError, DimensionError, InvalidInputError
from menkf.numerics import RngStream
from menkf.simgen import (SCENARIOS, Replicate, SimConfig, gen_base_probs,
                          gen_replicates, logit, split)
from menkf.storage import read_dataset_csv
from menkf.trainer import sigmoid


def r_squared(design, target):
    design = np.hstack([design, np.ones((design.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return 1.0 - resid.var() / target.var()


class TestLogit:
    def test_inverse_of_sigmoid(self):
        for x in (-5.0, -0.3, 0.0, 1.7, 10.0):
            assert logit(sigmoid(x)) == pytest.approx(x, abs=1e-9)

    def test_saturated_inputs_stay_finite(self):
        out = logit(np.array([0.0, 1.0]))
        assert np.all(np.isfinite(out))
        assert out[0] < -20 and out[1] > 20


class TestSimConfigValidation:
    def test_bad_values_rejected(self):
        for kw in (dict(m=1), dict(replicates=0), dict(perturb_sd=-0.1),
                   dict(threshold=0.0), dict(threshold=1.0), dict(p=0),
                   dict(q=0), dict(scenario="other"), dict(surrogate_sd=-1.0)):
            with pytest.raises(InvalidInputError):
                SimConfig(**kw)

    def test_scenarios_list(self):
        assert set(SCENARIOS) == {"well_specified", "misspecified", "stacked_average"}


class TestBaseDraw:
    def setup_method(self):
        self.cfg = SimConfig(m=400, replicates=1)
        self.base = gen_base_probs(self.cfg, RngStream(0))

    def test_shapes_and_range(self):
        v_f, v_g, p_hat = self.base
        assert v_f.shape == (400, 32) and v_g.shape == (400, 32)
        assert p_hat.shape == (400,)
        assert np.all((p_hat > 0.0) & (p_hat < 1.0))

    def test_logits_are_standardized(self):
        _, _, p_hat = self.base
        logits = logit(p_hat)
        assert logits.mean() == pytest.approx(0.0, abs=1e-9)
        assert logits.std() == pytest.approx(3.0, rel=1e-9)

    def test_deterministic(self):
        again = gen_base_probs(self.cfg, RngStream(0))
        other = gen_base_probs(self.cfg, RngStream(1))
        for a, b in zip(self.base, again):
            np.testing.assert_array_equal(a, b)
        assert not np.array_equal(self.base[0], other[0])

    def test_second_block_partially_tracks_first(self):
        v_f, v_g, _ = self.base
        # pooled in-sample R^2 of V_f -> V_g columns sits near the mixing
        # share (0.4) plus the p/m overfit allowance
        explained = np.mean([r_squared(v_f, v_g[:, j]) for j in range(v_g.shape[1])])
        assert 0.3 < explained < 0.6

    def test_first_block_is_more_informative(self):
        v_f, v_g, p_hat = self.base
        logits = logit(p_hat)
        assert r_squared(v_f, logits) > r_squared(v_g, logits) + 0.1

    def test_blocks_share_entry_scale(self):
        v_f, v_g, _ = self.base
        assert 0.25 < v_f.std() < 0.35
        assert 0.25 < v_g.std() < 0.35


class TestReplicates:
    def make(self, seed=0, **kw):
        cfg = SimConfig(m=74, replicates=8, **kw)
        base = gen_base_probs(cfg, RngStream(seed))
        return cfg, base, list(gen_replicates(cfg, base, RngStream(seed).child(1)))

    def test_count_and_shapes(self):
        cfg, _, reps = self.make()
        assert len(reps) == 8
        for rep in reps:
            assert rep.v_f.shape == (74, 32)
            assert rep.v_g.shape == (74, 32)
            assert rep.size == 74
            assert rep.labels.dtype == np.int64
            assert set(np.unique(rep.labels)) <= {0, 1}

    def test_noise_free_limit(self):
        _, base, reps = self.make(perturb_sd=0.0, surrogate_sd=0.0)
        v_f, _, p_hat = base
        expected_labels = (p_hat > 0.5).astype(np.int64)
        for rep in reps:
            np.testing.assert_array_equal(rep.labels, expected_labels)
            np.testing.assert_allclose(rep.target_logits, logit(p_hat), atol=1e-12)
            np.testing.assert_array_equal(rep.v_f, v_f)

    def test_target_noise_varies_per_replicate(self):
        _, _, reps = self.make(perturb_sd=0.0)
        assert not np.array_equal(reps[0].target_logits, reps[1].target_logits)
        # noise is centered on the same base logits
        spread = np.std([rep.target_logits for rep in reps], axis=0).mean()
        assert 0.01 < spread < 0.15

    def test_threshold_is_strict(self):
        # probability exactly at the threshold goes to class zero
        rep = Replicate(v_f=np.zeros((2, 1)), v_g=np.zeros((2, 1)),
                        labels=np.zeros(2, dtype=np.int64),
                        target_logits=np.zeros(2), true_prob=np.array([0.5, 0.6]))
        labels = (rep.true_prob > 0.5).astype(np.int64)
        np.testing.assert_array_equal(labels, [0, 1])

    def test_label_flips_grow_with_perturbation(self):
        flips = []
        for sd in (0.01, 1.0, 5.0):
            _, base, reps = self.make(perturb_sd=sd)
            base_labels = (base[2] > 0.5).astype(np.int64)
            flips.append(sum(int(np.sum(rep.labels != base_labels)) for rep in reps))
        assert flips[0] <= flips[1] <= flips[2]
        assert flips[2] > flips[0]

    def test_deterministic_and_prefix_stable(self):
        cfg, base, reps = self.make()
        again = gen_replicates(cfg, base, RngStream(0).child(1))
        for a, b in zip(reps, again):
            np.testing.assert_array_equal(a.target_logits, b.target_logits)
            np.testing.assert_array_equal(a.v_f, b.v_f)
        # replicate j depends only on child(j): growing J keeps the prefix
        bigger = SimConfig(m=74, replicates=12)
        more = gen_replicates(bigger, base, RngStream(0).child(1))
        for a, b in zip(reps, more):
            np.testing.assert_array_equal(a.target_logits, b.target_logits)

    def test_base_shape_mismatch(self):
        cfg, base, _ = self.make()
        with pytest.raises(DimensionError):
            list(gen_replicates(SimConfig(m=74, p=16), base, RngStream(2)))

    @pytest.mark.parametrize("seed, refused", [(0, 1), (1, 0)])
    def test_overflowing_surrogate_sd_is_refused_before_the_first_replicate(self, seed,
                                                                             refused):
        # tests/test_cli.py's TINY sim section: at seed 0 replicate 0 draws finite
        # targets and replicate 1 does not; at seed 1 replicate 0 does not
        cfg = SimConfig(m=12, replicates=2, p=2, q=2, surrogate_sd=1e308)
        root = RngStream(seed)
        reps = gen_replicates(cfg, gen_base_probs(cfg, root.child(0)), root.child(1))
        with pytest.raises(ConfigError, match=f"not finite in replicate {refused}$"):
            next(reps)


class TestMisspecified:
    def test_first_block_replaced_per_replicate(self):
        cfg = SimConfig(m=74, replicates=4, scenario="misspecified")
        base = gen_base_probs(cfg, RngStream(3))
        reps = list(gen_replicates(cfg, base, RngStream(3).child(1)))
        for rep in reps:
            assert not np.array_equal(rep.v_f, base[0])
            np.testing.assert_array_equal(rep.v_g, base[1])
            assert 0.2 < rep.v_f.std() < 0.4  # same entry scale as the original
        assert not np.array_equal(reps[0].v_f, reps[1].v_f)

    def test_targets_match_well_specified(self):
        # only the features change; the regression targets do not
        base = gen_base_probs(SimConfig(m=74, replicates=4), RngStream(3))
        well = gen_replicates(SimConfig(m=74, replicates=4), base, RngStream(3).child(1))
        mis = gen_replicates(SimConfig(m=74, replicates=4, scenario="misspecified"),
                             base, RngStream(3).child(1))
        for a, b in zip(well, mis):
            np.testing.assert_array_equal(a.target_logits, b.target_logits)
            np.testing.assert_array_equal(a.true_prob, b.true_prob)

    def test_replacement_is_uninformative(self):
        cfg = SimConfig(m=400, replicates=1, scenario="misspecified")
        base = gen_base_probs(cfg, RngStream(5))
        (rep,) = gen_replicates(cfg, base, RngStream(5).child(1))
        assert r_squared(rep.v_f, logit(rep.true_prob)) < 0.25


class TestStacked:
    def test_targets_average_two_estimates(self):
        cfg = SimConfig(m=74, replicates=2, scenario="stacked_average",
                        perturb_sd=0.0, surrogate_sd=0.0)
        base = gen_base_probs(cfg, RngStream(7))
        v_f, v_g, p_hat = base
        (rep, _) = gen_replicates(cfg, base, RngStream(7).child(1))
        design = np.hstack([v_g, np.ones((74, 1))])
        coef, *_ = np.linalg.lstsq(design, logit(p_hat), rcond=None)
        expected = (p_hat + sigmoid(design @ coef)) / 2.0
        np.testing.assert_allclose(rep.true_prob, expected, atol=1e-10)
        np.testing.assert_allclose(sigmoid(rep.target_logits), expected, atol=1e-10)

    def test_differs_from_well_specified_truth(self):
        cfg = SimConfig(m=74, replicates=1, scenario="stacked_average")
        base = gen_base_probs(cfg, RngStream(7))
        (rep,) = gen_replicates(cfg, base, RngStream(7).child(1))
        assert not np.allclose(rep.true_prob, base[2], atol=1e-6)


def indexed_replicate(n=20):
    # row i carries the value i everywhere, so alignment is checkable
    idx = np.arange(float(n))
    return Replicate(v_f=np.tile(idx[:, None], (1, 3)),
                     v_g=np.tile(idx[:, None], (1, 2)),
                     labels=np.arange(n, dtype=np.int64),
                     target_logits=idx.copy(),
                     true_prob=idx / n)


class TestSplit:
    def test_sizes_and_disjoint(self):
        train, test = split(indexed_replicate(), 12, 5, RngStream(1))
        assert train.size == 12 and test.size == 5
        taken = np.concatenate([train.target_logits, test.target_logits])
        assert len(np.unique(taken)) == 17

    def test_rows_stay_aligned(self):
        train, test = split(indexed_replicate(), 12, 5, RngStream(1))
        for part in (train, test):
            np.testing.assert_array_equal(part.v_f[:, 0], part.target_logits)
            np.testing.assert_array_equal(part.v_g[:, 1], part.target_logits)
            np.testing.assert_array_equal(part.labels, part.target_logits.astype(np.int64))

    def test_deterministic(self):
        a_train, a_test = split(indexed_replicate(), 10, 10, RngStream(4))
        b_train, b_test = split(indexed_replicate(), 10, 10, RngStream(4))
        np.testing.assert_array_equal(a_train.target_logits, b_train.target_logits)
        np.testing.assert_array_equal(a_test.target_logits, b_test.target_logits)

    def test_oversized_split_rejected(self):
        with pytest.raises(InvalidInputError):
            split(indexed_replicate(20), 18, 5, RngStream(0))
        with pytest.raises(InvalidInputError):
            split(indexed_replicate(), 0, 2, RngStream(0))

    def test_missing_columns_stay_missing(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("emb_f_0,emb_g_0,target_logit\n"
                        + "".join(f"{i}.0,{-i}.0,{i}.5\n" for i in range(6)))
        rep = read_dataset_csv(path)
        train, test = split(rep, 4, 2, RngStream(0))
        for part in (train, test):
            assert part.labels is None and part.true_prob is None
            np.testing.assert_array_equal(part.v_f[:, 0] + 0.5, part.target_logits)
            assert not np.shares_memory(part.v_f, rep.v_f)
        assert sorted(np.concatenate([train.target_logits, test.target_logits])) == [
            i + 0.5 for i in range(6)]

    def test_empty_test_part_allowed(self):
        train, test = split(indexed_replicate(), 20, 0, RngStream(0))
        assert train.size == 20 and test.size == 0
