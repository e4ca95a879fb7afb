"""End-to-end oracle for the written 95% intervals in the linear-Gaussian case.

With affine arms and a, b pinned, every training step is a linear-Gaussian
update (trainer.linear_reference_system), so the exact Kalman filter run over
the same batches gives each test row a posterior predictive logit mean mu and
sd sigma. The logistic function is monotone, so the exact 95% interval is
[sigmoid(mu - 1.96 sigma), sigmoid(mu + 1.96 sigma)]. In this case the EnKF
converges to the Kalman filter as the ensemble grows (Le Gland, Monbet & Tran
2011), so fit followed by uq.interval_arrays must approach that interval.
Transition jitter of variance q is process noise Q = q on the w_f and w_g
coordinates.
"""

import numpy as np
import pytest

from menkf.arms import ArmSpec
from menkf.kalman import LinearStateSpace, kf_forecast, kf_update
from menkf.numerics import RngStream
from menkf.trainer import (Batch, MenkfConfig, fit, linear_reference_system,
                           make_batches, sigmoid)
from menkf.uq import interval_arrays

FEATURES = 4
TRAIN_ROWS, BATCH_ROWS, TEST_ROWS = 66, 11, 200
NOISE_VAR, INIT_VAR = 0.25, 4.0
SIZES = (216, 2_000, 20_000)
SEEDS = range(5)
Z_975 = 1.959963984540054
# largest endpoint error at N = 20,000 over the five seeds reads about 0.004
# with and without jitter; the bound leaves room for other seeds and BLAS builds
LARGE_N_BOUND = 0.01


def oracle_config(ensemble_size, jitter_var):
    return MenkfConfig(arm_f=ArmSpec(FEATURES, (), "identity"),
                       arm_g=ArmSpec(FEATURES, (), "identity"),
                       ensemble_size=ensemble_size, init_var=INIT_VAR,
                       batch_size=BATCH_ROWS, passes_over_data=1,
                       jitter_var=jitter_var, fixed_arm_logit=0.4,
                       fixed_noise_var=NOISE_VAR)


def oracle_data():
    gen = np.random.default_rng(2307)
    rows = TRAIN_ROWS + TEST_ROWS
    v_f = 0.5 * gen.standard_normal((rows, FEATURES))
    v_g = 0.5 * gen.standard_normal((rows, FEATURES))
    y = (v_f @ np.array([1.5, -1.0, 0.5, 0.0]) + 0.3 * v_g[:, 0]
         + np.sqrt(NOISE_VAR) * gen.standard_normal(rows))
    train = make_batches(v_f[:TRAIN_ROWS], v_g[:TRAIN_ROWS], y[:TRAIN_ROWS], BATCH_ROWS)
    return train, v_f[TRAIN_ROWS:], v_g[TRAIN_ROWS:]


def exact_intervals(batches, v_f, v_g, jitter_var):
    """The Kalman filter over the batches, then each test row's exact
    95% interval on the probability scale, as (lo, hi)."""
    cfg = oracle_config(2, jitter_var)
    layout = cfg.layout()
    belief, _ = linear_reference_system(batches[0], cfg, layout)
    process = np.zeros(layout.dim)
    process[layout.wf_slice] = jitter_var
    process[layout.wg_slice] = jitter_var
    for batch in batches:
        _, ss = linear_reference_system(batch, cfg, layout)
        ss = LinearStateSpace(H=ss.H, M=ss.M, R=ss.R, Q=np.diag(process))
        belief = kf_update(kf_forecast(belief, ss), batch.y, ss)
    test = Batch(v_f, v_g, np.zeros(v_f.shape[0]))
    _, ss = linear_reference_system(test, cfg, layout)
    mu = ss.H @ belief.mean
    sigma = np.sqrt(np.einsum("ij,jk,ik->i", ss.H, belief.cov, ss.H))
    return sigmoid(mu - Z_975 * sigma), sigmoid(mu + Z_975 * sigma)


@pytest.fixture(scope="module", params=[0.0, 0.01], ids=["no_jitter", "jitter"])
def endpoint_errors(request):
    """Largest endpoint error over the test rows, (len(SIZES), len(SEEDS))."""
    jitter_var = request.param
    batches, v_f, v_g = oracle_data()
    lo_exact, hi_exact = exact_intervals(batches, v_f, v_g, jitter_var)
    errors = np.empty((len(SIZES), len(SEEDS)))
    for i, n in enumerate(SIZES):
        cfg = oracle_config(n, jitter_var)
        for j, seed in enumerate(SEEDS):
            ens, _ = fit(batches, cfg, RngStream(seed))
            _, lo, hi = interval_arrays(ens, v_f, v_g, cfg.layout(), cfg.arm_f, cfg.arm_g)
            errors[i, j] = max(np.max(np.abs(lo - lo_exact)), np.max(np.abs(hi - hi_exact)))
    return errors


def test_exact_intervals_are_informative():
    # the oracle is only a check if the exact intervals are neither
    # degenerate nor near [0, 1]
    batches, v_f, v_g = oracle_data()
    lo, hi = exact_intervals(batches, v_f, v_g, 0.0)
    assert 0.05 < np.mean(hi - lo) < 0.5


def test_endpoints_match_the_exact_interval_at_large_n(endpoint_errors):
    assert np.max(endpoint_errors[-1]) < LARGE_N_BOUND


def test_error_falls_as_the_ensemble_grows(endpoint_errors):
    mean_error = endpoint_errors.mean(axis=1)
    assert np.all(np.diff(mean_error) < 0.0), mean_error
