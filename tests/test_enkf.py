import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from menkf import enkf, numerics
from menkf.enkf import (Ensemble, analysis, enkf_update, ensemble_moments,
                        member_perturbations)
from menkf.exceptions import DimensionError, InvalidInputError
from menkf.kalman import GaussianBelief, LinearStateSpace, kf_update
from menkf.numerics import RngStream


class TestEnsembleMoments:
    def test_two_member_example(self):
        mean, cov = ensemble_moments(Ensemble([[0.0], [2.0]]))
        assert mean[0] == pytest.approx(1.0)
        # 1/N normalization: ((0-1)^2 + (2-1)^2) / 2
        assert cov[0, 0] == pytest.approx(1.0)

    def test_identical_members_have_zero_cov(self):
        mean, cov = ensemble_moments(Ensemble(np.ones((5, 3)) * 2.5))
        np.testing.assert_array_equal(mean, [2.5, 2.5, 2.5])
        np.testing.assert_array_equal(cov, np.zeros((3, 3)))

    def test_matches_generating_distribution(self):
        rng = np.random.default_rng(2)
        draws = rng.multivariate_normal([0.0, 0.0], np.diag([1.0, 4.0]), size=100_000)
        mean, cov = ensemble_moments(Ensemble(draws))
        np.testing.assert_allclose(mean, [0.0, 0.0], atol=0.05)
        np.testing.assert_allclose(cov, np.diag([1.0, 4.0]), atol=0.2)

    def test_too_few_members(self):
        with pytest.raises(InvalidInputError):
            Ensemble(np.ones((1, 3)))

    def test_nonfinite_members(self):
        with pytest.raises(InvalidInputError):
            Ensemble([[0.0, np.nan], [1.0, 2.0]])


def scalar_setup(n, seed, prior_mean=1.0, prior_var=2.0):
    gen = RngStream(seed, 999).generator()
    members = gen.normal(prior_mean, np.sqrt(prior_var), size=(n, 1))
    return Ensemble(members)


class TestEnkfUpdate:
    def test_zero_noise_limit_pins_members(self):
        rng = np.random.default_rng(4)
        e = Ensemble(rng.standard_normal((200, 3)) * 2.0)
        y = np.array([1.0, -2.0, 0.5])
        out = enkf_update(e, y, np.eye(3), np.full(200, 1e-12), RngStream(0, 1))
        np.testing.assert_allclose(out.members, np.tile(y, (200, 1)), atol=1e-4)

    def test_zero_spread_is_fixed_point(self):
        members = np.tile([1.0, 2.0], (50, 1))
        out = enkf_update(Ensemble(members), np.array([5.0]),
                          np.array([[1.0, 0.0]]), np.ones(50), RngStream(3))
        np.testing.assert_array_equal(out.members, members)

    def test_matches_direct_per_member_gain(self):
        # recompute by hand: full sample covariance, K_i = S H'(H S H' + v_i I)^-1
        rng = np.random.default_rng(17)
        n, d, m = 40, 4, 2
        members = rng.standard_normal((n, d))
        obs = rng.standard_normal((m, d))
        obs_var = rng.uniform(0.5, 2.0, size=n)
        y = rng.standard_normal(m)
        stream = RngStream(77, 5)

        out = enkf_update(Ensemble(members), y, obs, obs_var, stream)

        centered = members - members.mean(axis=0)
        full_cov = centered.T @ centered / n
        perturbed = member_perturbations(stream, n, m, obs_var)
        expected = np.empty_like(members)
        for i in range(n):
            gain = full_cov @ obs.T @ np.linalg.inv(
                obs @ full_cov @ obs.T + obs_var[i] * np.eye(m))
            expected[i] = members[i] + gain @ (y + perturbed[i] - obs @ members[i])
        np.testing.assert_allclose(out.members, expected, atol=1e-10)

    def test_rank_deficient_block_matches_member_space_gain(self):
        # N = 3 < m = 6: M has rank 2, so four of its eigenvalues are
        # rounding noise of either sign, and obs_var goes down to 1e-10
        rng = np.random.default_rng(23)
        n, d, m = 3, 5, 6
        members = rng.standard_normal((n, d))
        obs = rng.standard_normal((m, d))
        obs_var = np.array([1e-10, 1e-4, 1.0])
        y = rng.standard_normal(m)
        stream = RngStream(31, 2)

        out = enkf_update(Ensemble(members), y, obs, obs_var, stream)

        # the same per-member gain solved in member space, where L's null
        # space is exact: L (M + v I)^-1 = Cs' (Cp Cp' + N v I)^-1 Cp
        pred = members @ obs.T
        cs = members - members.mean(axis=0)
        cp = pred - pred.mean(axis=0)
        residual = y + member_perturbations(stream, n, m, obs_var) - pred
        expected = np.empty_like(members)
        for i in range(n):
            solved = np.linalg.solve(cp @ cp.T + n * obs_var[i] * np.eye(n), cp @ residual[i])
            expected[i] = members[i] + cs.T @ solved
        np.testing.assert_allclose(out.members, expected, rtol=0.0, atol=1e-10)

    def test_one_stream_and_no_factorization_per_call(self, monkeypatch):
        # per-member work would show as N generators or N factorizations
        calls = {"generator": 0, "solve_spd": 0}
        generator, solve_spd = RngStream.generator, numerics.solve_spd

        def counted_generator(stream):
            calls["generator"] += 1
            return generator(stream)

        def counted_solve_spd(*args, **kwargs):
            calls["solve_spd"] += 1
            return solve_spd(*args, **kwargs)

        monkeypatch.setattr(RngStream, "generator", counted_generator)
        for module in (enkf, numerics):
            monkeypatch.setattr(module, "solve_spd", counted_solve_spd, raising=False)
        rng = np.random.default_rng(8)
        n, d, m = 216, 20, 11
        obs_var = np.linspace(0.5, 1.5, n)
        enkf_update(Ensemble(rng.standard_normal((n, d))), rng.standard_normal(m),
                    rng.standard_normal((m, d)), obs_var, RngStream(4, 2))
        assert calls == {"generator": 1, "solve_spd": 0}

    def test_scalar_posterior_matches_exact_filter(self):
        # linear-Gaussian problem, N = 50000: within 2% of the exact answer
        prior_mean, prior_var, obs_noise, y = 1.0, 2.0, 0.5, 2.0
        e = scalar_setup(50_000, seed=1, prior_mean=prior_mean, prior_var=prior_var)
        out = enkf_update(e, np.array([y]), np.eye(1),
                          np.full(50_000, obs_noise), RngStream(1, 2))
        mean, cov = ensemble_moments(out)

        ss = LinearStateSpace(H=[[1.0]], M=[[1.0]], R=[[obs_noise]], Q=[[0.0]])
        exact = kf_update(GaussianBelief([prior_mean], [[prior_var]]),
                          np.array([y]), ss)
        assert abs(mean[0] - exact.mean[0]) <= 0.02 * abs(exact.mean[0])
        assert abs(cov[0, 0] - exact.cov[0, 0]) <= 0.02 * exact.cov[0, 0]

    def test_error_decreases_with_ensemble_size(self):
        # average over 20 seeds of the moment error, monotone in N
        ss = LinearStateSpace(H=[[1.0]], M=[[1.0]], R=[[0.5]], Q=[[0.0]])
        exact = kf_update(GaussianBelief([1.0], [[2.0]]), np.array([2.0]), ss)

        sizes = (100, 1000, 10_000, 50_000)
        avg_errors = []
        for n in sizes:
            errs = []
            for seed in range(20):
                e = scalar_setup(n, seed=seed)
                out = enkf_update(e, np.array([2.0]), np.eye(1),
                                  np.full(n, 0.5), RngStream(seed, 101))
                mean, cov = ensemble_moments(out)
                errs.append(abs(mean[0] - exact.mean[0]) + abs(cov[0, 0] - exact.cov[0, 0]))
            avg_errors.append(np.mean(errs))
        assert avg_errors[0] > avg_errors[1] > avg_errors[2] > avg_errors[3]

    def test_deterministic_given_stream(self):
        rng = np.random.default_rng(9)
        members = rng.standard_normal((30, 3))
        obs = rng.standard_normal((2, 3))
        y = rng.standard_normal(2)
        obs_var = rng.uniform(0.5, 1.5, size=30)
        a = enkf_update(Ensemble(members), y, obs, obs_var, RngStream(12, 8))
        b = enkf_update(Ensemble(members), y, obs, obs_var, RngStream(12, 8))
        np.testing.assert_array_equal(a.members, b.members)

    def test_input_ensemble_not_mutated(self):
        members = np.random.default_rng(1).standard_normal((20, 2))
        snapshot = members.copy()
        e = Ensemble(members)
        enkf_update(e, np.zeros(1), np.array([[1.0, 0.0]]), np.ones(20), RngStream(0))
        np.testing.assert_array_equal(e.members, snapshot)

    def test_nonpositive_obs_var_rejected(self):
        e = Ensemble(np.random.default_rng(0).standard_normal((5, 2)))
        with pytest.raises(InvalidInputError):
            enkf_update(e, np.zeros(2), np.eye(2), np.array([1.0, 1.0, 0.0, 1.0, 1.0]),
                        RngStream(0))

    def test_obs_var_length_mismatch(self):
        e = Ensemble(np.random.default_rng(0).standard_normal((5, 2)))
        with pytest.raises(DimensionError):
            enkf_update(e, np.zeros(2), np.eye(2), np.ones(4), RngStream(0))

    def test_obs_matrix_shape_mismatch(self):
        e = Ensemble(np.random.default_rng(0).standard_normal((5, 2)))
        with pytest.raises(DimensionError):
            enkf_update(e, np.zeros(2), np.eye(3), np.ones(5), RngStream(0))


MODERATE = st.floats(-1e3, 1e3)
BLOCK = enkf._COLUMN_BLOCK


@st.composite
def zero_column_cases(draw):
    """(members, zero, predicted, y, obs_var, seed): members whose columns
    in the non-empty index list zero are all +0.0; d is small or crosses
    the first edge of analysis's column blocks."""
    n, m = draw(st.integers(2, 12)), draw(st.integers(1, 6))
    d = draw(st.one_of(st.integers(1, 8), st.integers(BLOCK - 2, BLOCK + 3)))
    members = draw(hnp.arrays(float, (n, d), elements=MODERATE))
    zero = draw(st.lists(st.integers(0, d - 1), min_size=1, unique=True))
    members[:, zero] = 0.0
    predicted = draw(hnp.arrays(float, (n, m), elements=MODERATE))
    y = draw(hnp.arrays(float, m, elements=MODERATE))
    obs_var = draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e3)))
    return members, zero, predicted, y, obs_var, draw(st.integers(0, 2**32))


def whole_array_analysis(members, predicted, y, obs_var, rng):
    """Oracle: the textbook per-member update x_i + L (M + v_i I)^-1 r_i,
    with the whole (d, m) L and one solve per member."""
    n = members.shape[0]
    centered, centered_pred = members - members.mean(axis=0), predicted - predicted.mean(axis=0)
    cross, obs_block = centered.T @ centered_pred / n, centered_pred.T @ centered_pred / n
    residual = y + member_perturbations(rng, n, len(y), obs_var) - predicted
    eye = np.eye(len(y))
    return members + np.stack([cross @ np.linalg.solve(obs_block + v * eye, r)
                               for v, r in zip(obs_var, residual)])


class TestAnalysis:
    @pytest.mark.parametrize("d", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_column_blocks_match_whole_array_formula(self, d):
        gen = np.random.default_rng(d)
        members, obs = gen.standard_normal((40, d)), gen.standard_normal((6, d))
        predicted = np.tanh(members @ obs.T)  # a nonlinear measurement, m = 6 < N
        y, obs_var = gen.standard_normal(6), gen.uniform(0.5, 1.5, size=40)
        expected = whole_array_analysis(members, predicted, y, obs_var, RngStream(7))
        out = analysis(members, predicted, y, obs_var, RngStream(7))
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)

    @given(zero_column_cases())
    @settings(max_examples=300, deadline=None)
    def test_all_zero_columns_stay_positive_zero(self, case):
        # the trainer relies on this to leave the layout's structural zeros alone
        members, zero, predicted, y, obs_var, seed = case
        out = analysis(members, predicted, y, obs_var, RngStream(seed))
        assert not out[:, zero].view(np.int64).any()  # +0.0 bit for bit, sign included

    def test_shifts_members_in_place(self):
        # the kernel writes its first argument; enkf_update copies it first
        gen = np.random.default_rng(3)
        members, obs = gen.standard_normal((20, 5)), gen.standard_normal((3, 5))
        y, obs_var = gen.standard_normal(3), gen.uniform(0.5, 1.5, size=20)
        expected = enkf_update(Ensemble(members), y, obs, obs_var, RngStream(4)).members
        out = analysis(members, members @ obs.T, y, obs_var, RngStream(4))
        assert out is members and members.flags.c_contiguous
        assert members.tobytes() == expected.tobytes()


class TestMemberPerturbations:
    def test_scaled_by_member_variance(self):
        stream = RngStream(5, 6)
        obs_var = np.array([1.0, 4.0])
        pert = member_perturbations(stream, 2, 1000, obs_var)
        assert pert[0].std() == pytest.approx(1.0, rel=0.1)
        assert pert[1].std() == pytest.approx(2.0, rel=0.1)

    def test_rows_are_one_scaled_block(self):
        stream = RngStream(5, 6)
        obs_var = np.array([1.0, 4.0, 0.25])
        pert = member_perturbations(stream, 3, 4, obs_var)
        block = stream.generator().standard_normal((3, 4))
        np.testing.assert_array_equal(pert, block * np.sqrt(obs_var)[:, None])
