import json

import numpy as np
import pytest

from amariflow import (
    Field,
    GainSpec,
    GibbsTarget,
    NoiseSpec,
    SimConfig,
    compare_measures,
    detailed_balance_residual,
    ergodic_moments,
    galerkin_simulate,
    gamma_cov,
    gibbs_log_density,
    gibbs_log_density_grad,
    rw_metropolis,
    write_moment_report_jsonl,
    write_samples_csv,
)
from amariflow.ergodic import sidak_threshold
from amariflow.errors import (
    DimensionMismatchError,
    InsufficientDataError,
    RangeError,
    RankExceededError,
)
from conftest import constant_field


def test_target_validation(gauss_setup):
    _, _, dec = gauss_setup
    gain = GainSpec("sigmoid")
    with pytest.raises(RangeError):
        GibbsTarget(dec, gain, alpha=0.0, epsilon=0.5, n_modes=2)
    with pytest.raises(RangeError):
        GibbsTarget(dec, gain, alpha=1.0, epsilon=0.0, n_modes=2)
    with pytest.raises(RangeError):
        GibbsTarget(dec, gain, alpha=1.0, epsilon=0.5, n_modes=0)
    with pytest.raises(RankExceededError):
        GibbsTarget(dec, gain, alpha=1.0, epsilon=0.5, n_modes=dec.rank + 1)


def test_log_density_at_origin(gauss_setup):
    # phi(0) = 0 pins log pi(0) = 0 for every gain
    _, _, dec = gauss_setup
    for family in ("sigmoid", "tanh", "zero"):
        tgt = GibbsTarget(dec, GainSpec(family), alpha=1.0, epsilon=0.5,
                          n_modes=3)
        assert gibbs_log_density(tgt, np.zeros(3)) == 0.0


def test_log_density_zero_gain_quadratic(gauss_setup):
    _, _, dec = gauss_setup
    alpha, eps = 1.3, 0.6
    tgt = GibbsTarget(dec, GainSpec("zero"), alpha=alpha, epsilon=eps,
                      n_modes=4)
    rng = np.random.default_rng(2)
    u = rng.normal(size=4)
    expect = -(alpha / eps**2) * float(np.sum(u * u / dec.lambdas[:4]))
    assert abs(gibbs_log_density(tgt, u) - expect) < 1e-12 * abs(expect)


def test_log_density_constant_gain_is_shifted_gaussian(gauss_setup):
    # linear Phi completes the square: same quadratic part, mean moved to
    # mu_i = lambda_i c <1, e_i>_H / alpha
    _, grid, dec = gauss_setup
    alpha, eps, c, N = 1.0, 0.5, 0.4, 3
    tgt = GibbsTarget(dec, GainSpec("constant", c=c), alpha=alpha,
                      epsilon=eps, n_modes=N)
    E = dec.eigenfields[:, :N]
    lam = dec.lambdas[:N]
    mu = lam * c * (grid.h * E.T.sum(axis=1)) / alpha
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = rng.normal(size=N)
        quad = lambda v: -(alpha / eps**2) * float(np.sum((v - mu) ** 2 / lam))
        got = gibbs_log_density(tgt, u) - gibbs_log_density(tgt, mu)
        assert abs(got - (quad(u) - quad(mu))) < 1e-10


def test_log_density_grad_matches_fd(gauss_setup):
    _, _, dec = gauss_setup
    tgt = GibbsTarget(dec, GainSpec("sigmoid"), alpha=1.0, epsilon=0.5,
                      n_modes=4)
    rng = np.random.default_rng(4)
    u = rng.normal(size=4)
    g = gibbs_log_density_grad(tgt, u)
    t = 1e-6
    for i in range(4):
        e = np.zeros(4)
        e[i] = t
        fd = (gibbs_log_density(tgt, u + e) - gibbs_log_density(tgt, u - e)) / (2 * t)
        assert abs(fd - g[i]) < 1e-5 * max(abs(g[i]), 1.0)


def test_gamma_cov_scaling(gauss_setup):
    _, _, dec = gauss_setup
    # eps = sqrt(2), alpha = 1 makes the variance equal the eigenvalue
    tgt = GibbsTarget(dec, GainSpec("zero"), alpha=1.0, epsilon=np.sqrt(2.0),
                      n_modes=3)
    for i in range(3):
        assert abs(gamma_cov(tgt, i) - dec.lambdas[i]) < 1e-15
    # quadrupling eps multiplies every variance by 16
    big = GibbsTarget(dec, GainSpec("zero"), alpha=1.0,
                      epsilon=4.0 * np.sqrt(2.0), n_modes=3)
    assert abs(gamma_cov(big, 0) / gamma_cov(tgt, 0) - 16.0) < 1e-12
    with pytest.raises(IndexError):
        gamma_cov(tgt, 3)
    with pytest.raises(IndexError):
        gamma_cov(tgt, -1)


def test_detailed_balance_picks_out_b_sq_eq_k(gauss_setup):
    _, _, dec = gauss_setup
    tgt = GibbsTarget(dec, GainSpec("sigmoid"), alpha=1.0, epsilon=0.5,
                      n_modes=4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.normal(size=4)
        assert detailed_balance_residual(tgt, np.sqrt(dec.lambdas[:4]), u) <= 1e-12
    u = rng.normal(size=4)
    assert detailed_balance_residual(tgt, dec.lambdas[:4], u) > 1e-3
    with pytest.raises(DimensionMismatchError):
        detailed_balance_residual(tgt, np.ones(3), u)


def test_metropolis_validation_and_determinism(gauss_setup):
    _, _, dec = gauss_setup
    tgt = GibbsTarget(dec, GainSpec("zero"), alpha=1.0, epsilon=0.5, n_modes=2)
    with pytest.raises(RangeError):
        rw_metropolis(tgt, steps=0)
    with pytest.raises(RangeError):
        rw_metropolis(tgt, steps=10, burn_in=-1)
    with pytest.raises(RangeError):
        rw_metropolis(tgt, steps=10, step_scale=0.0)
    a, acc_a = rw_metropolis(tgt, steps=200, seed=5)
    b, acc_b = rw_metropolis(tgt, steps=200, seed=5)
    assert np.array_equal(a, b) and acc_a == acc_b
    c, _ = rw_metropolis(tgt, steps=200, seed=6)
    assert not np.array_equal(a, c)
    assert a.shape == (200, 2)


def test_metropolis_tiny_steps_always_accept(gauss_setup):
    _, _, dec = gauss_setup
    tgt = GibbsTarget(dec, GainSpec("zero"), alpha=1.0, epsilon=0.5, n_modes=2)
    _, acc = rw_metropolis(tgt, steps=2000, step_scale=1e-4, seed=4)
    assert acc > 0.99


def test_metropolis_samples_zero_gain_gaussian(gauss_setup):
    _, _, dec = gauss_setup
    tgt = GibbsTarget(dec, GainSpec("zero"), alpha=1.0, epsilon=0.7, n_modes=2)
    samples, acc = rw_metropolis(tgt, steps=20000, step_scale=1.0, seed=3,
                                 burn_in=1000)
    assert 0.2 < acc < 0.9
    ms = ergodic_moments(samples)
    gam = np.array([gamma_cov(tgt, i) for i in range(2)])
    assert np.all(np.abs(ms.means / ms.se_means) <= 3.0)
    assert np.all(np.abs((ms.variances - gam) / ms.se_variances) <= 3.0)


def test_sde_matches_conjugate_moments(gauss_setup):
    # constant gain: the truncated dynamics are linear, so the invariant
    # measure is Gaussian with known mean and variance per mode
    _, grid, dec = gauss_setup
    alpha, eps, c, N = 1.0, 0.5, 0.4, 2
    cfg = SimConfig(alpha=alpha, epsilon=eps, dt=0.02, t_final=400.0,
                    u0=constant_field(grid, 0.0), record_every=1)
    tr = galerkin_simulate(dec, GainSpec("constant", c=c), NoiseSpec(seed=8),
                           cfg, n_modes=N)
    ms = ergodic_moments(tr, burn_in=500)
    E = dec.eigenfields[:, :N]
    lam = dec.lambdas[:N]
    mu = lam * c * (grid.h * E.T.sum(axis=1)) / alpha
    gam = eps**2 * lam / (2.0 * alpha)
    assert np.all(np.abs((ms.means - mu) / ms.se_means) <= 3.0)
    assert np.all(np.abs((ms.variances - gam) / ms.se_variances) <= 3.0)


def test_moments_batch_layout():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(400, 2))
    ms = ergodic_moments(data)
    assert ms.n_samples == 400
    assert ms.n_batches == 20
    assert np.all(np.abs(ms.means / ms.se_means) <= 3.0)
    assert np.all(np.abs((ms.variances - 1.0) / ms.se_variances) <= 3.0)
    tail = ergodic_moments(data, burn_in=100)
    assert tail.n_samples == 300
    assert tail.n_batches == 17


def test_moments_on_constant_series():
    data = np.full((400, 1), 2.5)
    ms = ergodic_moments(data)
    assert np.all(ms.means == 2.5)
    assert np.all(ms.variances == 0.0)
    assert np.all(ms.se_means == 0.0)


def test_moments_insufficient_data():
    rng = np.random.default_rng(1)
    with pytest.raises(InsufficientDataError):
        ergodic_moments(rng.normal(size=(81, 1)))
    with pytest.raises(InsufficientDataError):
        ergodic_moments(rng.normal(size=(400, 1)), burn_in=400)
    with pytest.raises(RangeError):
        ergodic_moments(rng.normal(size=(400, 1)), burn_in=-1)


def test_moments_accepts_1d_and_records(gauss_setup):
    rng = np.random.default_rng(2)
    flat = ergodic_moments(rng.normal(size=900))
    assert flat.means.shape == (1,)
    kernel, grid, dec = gauss_setup
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=4.0,
                    u0=constant_field(grid, 0.0), record_every=1)
    tr = galerkin_simulate(dec, GainSpec("zero"), NoiseSpec(seed=1), cfg,
                           n_modes=2)
    ms = ergodic_moments(tr, burn_in=100)
    assert ms.means.shape == (2,)
    from amariflow import em_simulate_full
    grid_tr = em_simulate_full(kernel, grid, GainSpec("zero"),
                               NoiseSpec(seed=1), cfg, dec=dec)
    with pytest.raises(RangeError):
        ergodic_moments(grid_tr)


def test_compare_measures_agreement_and_shift():
    rng = np.random.default_rng(11)
    stream = rng.normal(size=(40000, 2))
    rep = compare_measures(ergodic_moments(stream[:20000]), ergodic_moments(stream[20000:]))
    assert rep.passed and rep.max_abs_z <= 3.0
    shifted = stream[20000:] + 1.0
    rep2 = compare_measures(ergodic_moments(stream[:20000]), ergodic_moments(shifted))
    assert not rep2.passed
    assert np.all(np.abs(rep2.mean_z) > 10.0)


def test_compare_measures_mixed_inputs():
    rng = np.random.default_rng(12)
    with pytest.raises(DimensionMismatchError):
        compare_measures(ergodic_moments(rng.normal(size=(2500, 1))),
                         ergodic_moments(rng.normal(size=(2500, 2))))


def test_samples_csv_layout(tmp_path):
    samples = np.array([[1.5, -2.0], [0.25, 3.0]])
    out = tmp_path / "samples.csv"
    write_samples_csv(samples, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "step,c_1,c_2"
    assert lines[1] == "0,1.5,-2.0"
    assert lines[2] == "1,0.25,3.0"


def test_moment_report_jsonl(tmp_path):
    rng = np.random.default_rng(13)
    rep = compare_measures(ergodic_moments(rng.normal(size=(2500, 2))),
                           ergodic_moments(rng.normal(size=(2500, 2))))
    out = tmp_path / "report.jsonl"
    write_moment_report_jsonl(rep, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first["mode"] == 1
    assert set(first) == {"mode", "mean_a", "se_mean_a", "mean_b", "se_mean_b",
                          "z_mean", "var_a", "se_var_a", "var_b", "se_var_b",
                          "z_var"}
    summary = json.loads(lines[-1])
    assert summary == {"max_abs_z": rep.max_abs_z, "passed": rep.passed,
                       "n_comparisons": 4,
                       "familywise_threshold": sidak_threshold(4),
                       "familywise_passed": rep.max_abs_z <= sidak_threshold(4)}


def test_log_density_refuses_a_point_of_the_wrong_shape(gauss_setup):
    _, _, dec = gauss_setup
    tgt = GibbsTarget(dec, GainSpec("sigmoid"), alpha=1.0, epsilon=0.5, n_modes=3)
    with pytest.raises(DimensionMismatchError):
        gibbs_log_density(tgt, np.zeros(4))
