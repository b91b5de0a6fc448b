import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from amariflow import sde
from amariflow import (
    Field,
    GainSpec,
    Gaussian,
    GibbsTarget,
    Grid,
    NoisePath,
    NoiseSpec,
    SimConfig,
    TrajectoryRecord,
    apply_operator,
    bochner_numeric_check,
    build_operator_matrix,
    convergence_table,
    detect_switches,
    doss_sussmann_simulate,
    em_simulate_full,
    fd_directional,
    galerkin_simulate,
    invariance_monitor,
    preset_fig1,
    rw_metropolis,
    sample_noise_increments,
    spectral_decompose,
    write_trajectory_csv,
)
from amariflow.errors import (
    BlowUpError,
    DimensionMismatchError,
    GridMismatchError,
    InsufficientDataError,
    NotInSError,
    RangeError,
    RankExceededError,
    ValidationError,
)
from amariflow.config import build_grid, build_kernel
from amariflow.operator import s_residual
from amariflow.rng import derive_rng
from conftest import constant_field


def zero_cfg(grid, **kw):
    base = dict(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0,
                u0=constant_field(grid, 0.0))
    base.update(kw)
    return SimConfig(**base)


def test_noise_spec_validation():
    with pytest.raises(RangeError):
        NoiseSpec(mode="pink")
    with pytest.raises(RangeError):
        NoiseSpec(mode="white", rule="b_eq_k")
    with pytest.raises(RangeError):
        NoiseSpec(mode="spectral", rule="b_cubed")
    with pytest.raises(RangeError):
        NoiseSpec(mode="spectral", rule="custom")
    with pytest.raises(RangeError):
        NoiseSpec(mode="spectral", rule="custom", custom=(1.0, -0.5))
    with pytest.raises(RangeError, match="^rule 'b_eq_k' takes no custom coefficients$"):
        NoiseSpec(mode="spectral", rule="b_eq_k", custom=(1.0,))
    with pytest.raises(RangeError, match="^white noise takes no diagonal rule and no custom "):
        NoiseSpec(mode="white", rule=None, custom=(1.0,))
    assert NoiseSpec(mode="white", rule=None).mode == "white"


def test_noise_diagonal_rules(gauss_setup):
    _, _, dec = gauss_setup
    lam = dec.lambdas
    assert np.array_equal(NoiseSpec(rule="b_eq_k").b_coeffs(dec), lam)
    assert np.array_equal(NoiseSpec(rule="b_sq_eq_k").b_coeffs(dec), np.sqrt(lam))
    full = tuple(float(v) for v in np.sqrt(lam))
    got = NoiseSpec(rule="custom", custom=full).b_coeffs(dec)
    assert np.array_equal(got, np.sqrt(lam))
    with pytest.raises(DimensionMismatchError):
        NoiseSpec(rule="custom", custom=(1.0, 2.0)).b_coeffs(dec)
    with pytest.raises(RangeError):
        NoiseSpec(mode="white", rule=None).b_coeffs(dec)


def test_sim_config_validation():
    g = Grid(0.0, 1.0, 8)
    u0 = constant_field(g, 0.0)
    with pytest.raises(RangeError):
        SimConfig(alpha=0.0, epsilon=0.0, dt=0.01, t_final=1.0, u0=u0)
    with pytest.raises(RangeError):
        SimConfig(alpha=1.0, epsilon=-0.1, dt=0.01, t_final=1.0, u0=u0)
    with pytest.raises(RangeError):
        SimConfig(alpha=1.0, epsilon=0.0, dt=0.0, t_final=1.0, u0=u0)
    with pytest.raises(RangeError):
        SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=-1.0, u0=u0)
    # explicit-step stability bound dt < 2/alpha
    with pytest.raises(RangeError):
        SimConfig(alpha=4.0, epsilon=0.0, dt=0.5, t_final=1.0, u0=u0)
    with pytest.raises(RangeError):
        SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0, u0=u0,
                  record_every=0)
    with pytest.raises(RangeError):
        SimConfig(alpha=1.0, epsilon=0.0, dt=0.3, t_final=0.1, u0=u0)


def test_sim_config_needs_an_integer_record_every():
    g = Grid(0.0, 1.0, 32)
    u0 = constant_field(g, 0.0)
    with pytest.raises(RangeError, match="integer"):
        SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=0.1, u0=u0,
                  record_every=2.5)
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=0.1, u0=u0,
                    record_every=np.int64(5))
    tr = em_simulate_full(Gaussian(), g, GainSpec("zero"), NoiseSpec(), cfg)
    assert np.allclose(tr.times, [0.0, 0.05, 0.1], rtol=0, atol=1e-15)


def test_sim_config_step_rounding():
    g = Grid(0.0, 1.0, 8)
    u0 = constant_field(g, 0.0)
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.3, t_final=1.0, u0=u0)
    assert cfg.n_steps == 3
    assert abs(cfg.effective_t_final - 0.9) < 1e-15
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0, u0=u0)
    assert cfg.n_steps == 100


def test_noise_path_determinism(gauss_setup):
    _, grid, dec = gauss_setup
    spec = NoiseSpec(seed=9)
    a = sample_noise_increments(spec, dec, 0.01, 50)
    b = sample_noise_increments(spec, dec, 0.01, 50)
    assert np.array_equal(a.increments, b.increments)
    c = sample_noise_increments(spec, dec, 0.01, 50, seed=10)
    assert not np.array_equal(a.increments, c.increments)
    assert a.increments.shape == (50, dec.rank)


def test_white_noise_variance_scaling():
    grid = Grid(0.0, 1.0, 8)
    spec = NoiseSpec(mode="white", rule=None, seed=3)
    dt, steps = 0.01, 100000
    path = sample_noise_increments(spec, grid, dt, steps)
    target = dt / grid.h
    band = 3.0 * np.sqrt(2.0 / steps)
    per_node = path.increments.var(axis=0)
    assert np.max(np.abs(per_node / target - 1.0)) < band
    assert abs(path.increments.var() / target - 1.0) < band


def test_spectral_increments_are_sqrt_dt_scaled(gauss_setup):
    _, _, dec = gauss_setup
    spec = NoiseSpec(seed=4)
    path = sample_noise_increments(spec, dec, 0.04, 20000)
    # raw standard increments, unscaled by eps or b
    assert abs(path.increments.var() / 0.04 - 1.0) < 0.01


def test_noise_path_cumulative_and_coarsen(gauss_setup):
    _, _, dec = gauss_setup
    path = sample_noise_increments(NoiseSpec(seed=7), dec, 0.01, 100)
    W = path.cumulative()
    assert W.shape == (101, dec.rank)
    assert np.all(W[0] == 0.0)
    assert np.allclose(W[-1], path.increments.sum(axis=0), rtol=0, atol=1e-15)
    p2 = path.coarsen(2)
    assert p2.dt == 0.02 and p2.steps == 50
    blocks = path.increments.reshape(50, 2, -1).sum(axis=1)
    assert np.array_equal(p2.increments, blocks)
    with pytest.raises(RangeError):
        path.coarsen(3)


def test_coarsen_by_one_is_the_path(gauss_setup):
    # the finest level of a step-halving study holds no second copy
    _, _, dec = gauss_setup
    path = sample_noise_increments(NoiseSpec(seed=7), dec, 0.01, 100)
    assert path.coarsen(1) is path


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 12),
    st.floats(1e-4, 1.0),
    st.data(),
)
def test_coarsen_keeps_the_path_at_coarse_edges(factor, coarse_steps, dt, data):
    inc = data.draw(arrays(np.float64, (factor * coarse_steps, 3),
                           elements=st.floats(-10.0, 10.0)))
    fine = NoisePath("modes", dt, inc, seed=0)
    coarse = fine.coarsen(factor)
    assert coarse.steps == coarse_steps and coarse.dt == dt * factor
    W = fine.cumulative()[::factor]
    assert np.max(np.abs(coarse.cumulative() - W)) <= 1e-12 * (1.0 + np.max(np.abs(W)))


@pytest.mark.parametrize("mode", ["white", "spectral"])
def test_blocked_draws_continue_one_stream(gauss_setup, mode):
    _, grid, dec = gauss_setup
    spec = NoiseSpec(mode=mode, rule=None if mode == "white" else "b_sq_eq_k", seed=11)
    target = grid if mode == "white" else dec
    whole = sample_noise_increments(spec, target, 0.01, 1000)
    # scaled in place, bitwise as the scaled copy of one draw
    std = np.sqrt(0.01 / grid.h) if mode == "white" else np.sqrt(0.01)
    raw = derive_rng(11, 0).standard_normal(whole.increments.shape)
    assert np.array_equal(whole.increments, std * raw)
    rng = derive_rng(11, 0)
    blocks = [
        sample_noise_increments(spec, target, 0.01, m, seed=rng)
        for m in (300, 300, 300, 100)
    ]
    assert all(b.seed == 11 and b.kind == whole.kind for b in blocks)
    assert np.array_equal(np.vstack([b.increments for b in blocks]), whole.increments)


def test_seeds_must_be_integers(gauss_setup):
    _, _, dec = gauss_setup
    for seed in (1.5, 1.0, np.float64(2.0), "1"):
        with pytest.raises(RangeError, match="need an integer seed, got "):
            derive_rng(seed)
    with pytest.raises(RangeError, match=r"^need a seed >= 0, got -3$"):
        derive_rng(-3)
    # a seed the stream would have truncated is refused where it is drawn
    with pytest.raises(RangeError, match=r"^need an integer seed, got 1\.5$"):
        sample_noise_increments(NoiseSpec(seed=1.5), dec, 0.01, 10)
    with pytest.raises(RangeError, match=r"^need an integer seed, got 2\.5$"):
        sample_noise_increments(NoiseSpec(seed=1), dec, 0.01, 10, seed=2.5)
    # numpy integers are integers
    a = sample_noise_increments(NoiseSpec(seed=np.int64(4)), dec, 0.01, 10)
    b = sample_noise_increments(NoiseSpec(seed=1), dec, 0.01, 10, seed=np.uint8(4))
    raw = derive_rng(4, 0).standard_normal((10, dec.rank))
    assert np.array_equal(a.increments, np.sqrt(0.01) * raw)
    assert np.array_equal(a.increments, b.increments)


def test_em_zero_gain_closed_form(gauss_setup):
    kernel, grid, dec = gauss_setup
    rng = np.random.default_rng(12)
    u0 = Field(grid, rng.normal(size=grid.n))
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=0.5, u0=u0,
                    record_every=50)
    tr = em_simulate_full(kernel, grid, GainSpec("zero"), NoiseSpec(), cfg)
    expect = u0.values * (1.0 - 0.01) ** 50
    assert np.max(np.abs(tr.states[-1] - expect)) < 5e-13 * np.max(np.abs(expect))


def test_em_relaxes_to_homogeneous_fixed_point(periodic_setup):
    # circulant operator: constant states evolve by the scalar recursion,
    # so the run must land on the root of alpha*c = mass*f(c)
    kernel, grid, dec = periodic_setup
    gain = GainSpec("cubic", allow_non_lipschitz=True)
    alpha = 0.1
    mass = float(np.max(dec.lambdas))
    root = brentq(lambda s: alpha * s - mass * gain.f(s), 0.5, 1.0, xtol=1e-15)
    cfg = SimConfig(alpha=alpha, epsilon=0.0, dt=0.05, t_final=80.0,
                    u0=constant_field(grid, 0.8), record_every=400)
    tr = em_simulate_full(kernel, grid, gain, NoiseSpec(), cfg, dec=dec)
    assert np.max(np.abs(tr.states[-1] - root)) < 1e-12


def test_em_stochastic_determinism(gauss_setup):
    kernel, grid, dec = gauss_setup
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=0.5,
                    u0=constant_field(grid, 0.0), record_every=10)
    spec = NoiseSpec(seed=5)
    a = em_simulate_full(kernel, grid, GainSpec("sigmoid"), spec, cfg, dec=dec)
    b = em_simulate_full(kernel, grid, GainSpec("sigmoid"), spec, cfg, dec=dec)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.mean_series, b.mean_series)
    other = NoiseSpec(seed=6)
    c = em_simulate_full(kernel, grid, GainSpec("sigmoid"), other, cfg, dec=dec)
    assert not np.array_equal(a.states, c.states)


def run_scheme(scheme, kernel, grid, dec, gain, spec, cfg, **kw):
    """One run of the scheme a test id names: "white" and "spectral" are
    grid Euler-Maruyama with that noise."""
    if scheme == "galerkin":
        return galerkin_simulate(dec, gain, spec, cfg, **kw)
    if scheme == "doss_sussmann":
        return doss_sussmann_simulate(dec, gain, spec, cfg, **kw)
    return em_simulate_full(kernel, grid, gain, spec, cfg, dec=dec, **kw)


@pytest.mark.parametrize("scheme", ["white", "spectral", "galerkin", "doss_sussmann"])
def test_em_streamed_noise_equals_explicit_path(gauss_setup, monkeypatch, scheme):
    kernel, grid, dec = gauss_setup
    # 7-row blocks: 500 steps end in a partial block
    monkeypatch.setattr(sde, "NOISE_BLOCK_BYTES", 7 * 8 * grid.n)
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=5.0,
                    u0=constant_field(grid, 0.0), record_every=37)
    mode = "white" if scheme == "white" else "spectral"
    spec = NoiseSpec(mode=mode, rule=None if mode == "white" else "b_sq_eq_k", seed=5)
    path = sample_noise_increments(spec, grid if mode == "white" else dec,
                                   cfg.dt, cfg.n_steps)
    # a truncated Galerkin run slices its modes off full-rank rows
    kw = {"n_modes": 5} if scheme == "galerkin" else {}
    a = run_scheme(scheme, kernel, grid, dec, GainSpec("sigmoid"), spec, cfg, **kw)
    b = run_scheme(scheme, kernel, grid, dec, GainSpec("sigmoid"), spec, cfg, path=path, **kw)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.mean_series, b.mean_series)
    monkeypatch.setattr(sde, "NOISE_BLOCK_BYTES", 2**20)
    c = run_scheme(scheme, kernel, grid, dec, GainSpec("sigmoid"), spec, cfg, **kw)
    if scheme == "spectral":
        assert np.allclose(a.states, c.states, rtol=0, atol=1e-13)
    else:
        # elementwise kicks, and a running sum carried across blocks
        assert np.array_equal(a.states, c.states)


def test_pathwise_run_reads_the_cumulative_path(gauss_setup, monkeypatch):
    kernel, grid, dec = gauss_setup
    monkeypatch.setattr(sde, "NOISE_BLOCK_BYTES", 7 * 8 * grid.n)
    spec = NoiseSpec(seed=8)
    gain = GainSpec("sigmoid")
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=1.0,
                    u0=constant_field(grid, 0.2))
    tr = doss_sussmann_simulate(dec, gain, spec, cfg)
    # the recursion on the whole path's running sum, step by step
    path = sample_noise_increments(spec, dec, cfg.dt, cfg.n_steps)
    bw = (cfg.epsilon * spec.b_coeffs(dec)) * path.cumulative()
    E, lam, h = dec.eigenfields, dec.lambdas, grid.h
    y = dec.coeffs(cfg.u0)
    vs = [y + bw[0]]
    for k in range(cfg.n_steps):
        z = y + bw[k + 1]
        y = y + cfg.dt * (-cfg.alpha * z + lam * (h * (E.T @ gain.f(E @ z))))
        vs.append(y + bw[k + 1])
    assert np.array_equal(tr.states, np.array(vs))


def test_em_requires_matching_grid_and_dec(gauss_setup):
    kernel, grid, dec = gauss_setup
    other = Grid(0.0, 1.0, 8)
    cfg = zero_cfg(other)
    with pytest.raises(GridMismatchError):
        em_simulate_full(kernel, grid, GainSpec("zero"), NoiseSpec(), cfg)
    cfg = SimConfig(alpha=1.0, epsilon=0.1, dt=0.01, t_final=0.1,
                    u0=constant_field(grid, 0.0))
    with pytest.raises(RangeError):
        em_simulate_full(kernel, grid, GainSpec("zero"), NoiseSpec(), cfg)


def test_non_lipschitz_gain_needs_optin(gauss_setup):
    kernel, grid, dec = gauss_setup
    cfg = zero_cfg(grid)
    with pytest.raises(RangeError):
        em_simulate_full(kernel, grid, GainSpec("cubic"), NoiseSpec(), cfg)


def test_blowup_raises(periodic_setup):
    kernel, grid, dec = periodic_setup
    gain = GainSpec("cubic", allow_non_lipschitz=True)
    # oversized step on the cubic: the explicit update overshoots and the
    # state leaves the trust region within a few steps
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=1.0, t_final=30.0,
                    u0=constant_field(grid, 5.0))
    with pytest.raises(BlowUpError) as err:
        em_simulate_full(kernel, grid, gain, NoiseSpec(), cfg, dec=dec)
    assert err.value.step >= 1
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0,
                    u0=constant_field(grid, 20.0), clamp=10.0)
    with pytest.raises(BlowUpError) as err:
        em_simulate_full(kernel, grid, gain, NoiseSpec(), cfg, dec=dec)
    assert err.value.step == 0


def test_blowup_step_mid_block(periodic_setup, monkeypatch):
    kernel, grid, dec = periodic_setup
    block = 7
    monkeypatch.setattr(sde, "NOISE_BLOCK_BYTES", block * 8 * grid.n)
    gain = GainSpec("cubic", allow_non_lipschitz=True)
    cfg = SimConfig(alpha=1.0, epsilon=1.0, dt=0.01, t_final=10.0,
                    u0=constant_field(grid, 0.0), clamp=2.0)
    spec = NoiseSpec(mode="white", rule=None, seed=3)
    # the step-by-step recursion on the same draws
    K = build_operator_matrix(kernel, grid)
    path = sample_noise_increments(spec, grid, cfg.dt, cfg.n_steps)
    u = cfg.u0.values.copy()
    for k in range(cfg.n_steps):
        u = u + (cfg.dt * (-cfg.alpha * u + K @ gain.f(u)) + cfg.epsilon * path.increments[k])
        if np.abs(u).max() > cfg.clamp:
            expect = k + 1
            break
    assert (expect - 1) % block != 0
    with pytest.raises(BlowUpError) as err:
        em_simulate_full(kernel, grid, gain, spec, cfg, dec=dec)
    assert err.value.step == expect
    assert err.value.time == expect * cfg.dt


def recursion_peaks(scheme, kernel, grid, dec, gain, spec, cfg, path):
    """max |u_k| for k = 0..steps, from the scheme's recursion on path,
    one step at a time with the dense K and without a trust region."""
    E, lam, h, dt, eps = dec.eigenfields, dec.lambdas, grid.h, cfg.dt, cfg.epsilon
    xi = path.increments
    if scheme in ("white", "spectral"):
        K = build_operator_matrix(kernel, grid)
        kick = eps * (xi if scheme == "white" else xi @ (E * spec.b_coeffs(dec)).T)
        u = cfg.u0.values
        us = [u]
        for k in range(cfg.n_steps):
            u = u + (dt * (-cfg.alpha * u + K @ gain.f(u)) + kick[k])
            us.append(u)
    elif scheme == "galerkin":
        c = dec.coeffs(cfg.u0)
        us = [E @ c]
        for k in range(cfg.n_steps):
            u = E @ c
            c = c + (dt * (-cfg.alpha * c + lam * (h * (E.T @ gain.f(u))))
                     + eps * (spec.b_coeffs(dec) * xi[k]))
            us.append(E @ c)
    else:
        bw = (eps * spec.b_coeffs(dec)) * path.cumulative()
        y = dec.coeffs(cfg.u0)
        us = [E @ (y + bw[0])]
        for k in range(cfg.n_steps):
            z = y + bw[k + 1]
            y = y + dt * (-cfg.alpha * z + lam * (h * (E.T @ gain.f(E @ z))))
            us.append(E @ (y + bw[k + 1]))
    return np.abs(np.array(us)).max(axis=1)


@pytest.mark.parametrize("where", ["block start", "block end", "final step", "start"])
@pytest.mark.parametrize("scheme", ["white", "spectral", "galerkin", "doss_sussmann"])
def test_blowup_step_at_block_edges(gauss_setup, monkeypatch, scheme, where):
    kernel, grid, dec = gauss_setup
    block = 7
    monkeypatch.setattr(sde, "NOISE_BLOCK_BYTES", block * 8 * grid.n)
    gain = GainSpec("sigmoid")
    # 100 steps: blocks hold steps 1-7, 8-14, ..., and 99-100 the last
    planted = {"block start": 3 * block + 1, "block end": 4 * block,
               "final step": 100, "start": 0}[where]
    u0 = dec.reconstruct([1e4]) if planted == 0 else constant_field(grid, 0.2)
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=1.0, u0=u0, record_every=5)
    mode = "white" if scheme == "white" else "spectral"
    spec = NoiseSpec(mode=mode, rule=None if mode == "white" else "b_sq_eq_k", seed=6)
    path = sample_noise_increments(spec, grid if mode == "white" else dec,
                                   cfg.dt, cfg.n_steps)
    if planted:
        path.increments[planted - 1] = 1e6  # the kick of step `planted`
    peaks = recursion_peaks(scheme, kernel, grid, dec, gain, spec, cfg, path)
    expect = int(np.argmax(peaks > cfg.clamp))
    assert expect == planted
    with pytest.raises(BlowUpError) as err:
        run_scheme(scheme, kernel, grid, dec, gain, spec, cfg, path=path)
    assert err.value.step == expect
    assert err.value.time == expect * cfg.dt


def test_blowup_raises_no_warnings(periodic_setup):
    # the dt = 1 cubic run overflows and steps on to the end of its block
    kernel, grid, dec = periodic_setup
    gain = GainSpec("cubic", allow_non_lipschitz=True)
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=1.0, t_final=30.0,
                    u0=constant_field(grid, 5.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as err:
            em_simulate_full(kernel, grid, gain, NoiseSpec(), cfg, dec=dec)
    assert err.value.step >= 1


def test_mismatched_decomposition_fails_at_the_start_snapshot(gauss_setup):
    # the t = 0 diagnostics see the other grid before any noise is spread
    kernel, grid, _ = gauss_setup
    other = Grid(-4.0, 4.0, 32)
    dec = spectral_decompose(build_operator_matrix(kernel, other), other)
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=1.0,
                    u0=constant_field(grid, 0.2))
    with pytest.raises(GridMismatchError):
        em_simulate_full(kernel, grid, GainSpec("sigmoid"), NoiseSpec(), cfg, dec=dec)


@pytest.mark.parametrize("scheme", ["em", "galerkin", "doss_sussmann", "galerkin study"])
def test_streamed_run_holds_a_block_not_the_path(scheme):
    kernel = Gaussian(width=0.01)
    grid = Grid(-4.0, 4.0, 512)
    K = build_operator_matrix(kernel, grid)
    dec = spectral_decompose(K, grid)
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=150.0,
                    u0=constant_field(grid, 0.0), record_every=100000)
    path_bytes = cfg.n_steps * dec.rank * 8
    # a grid EM run assembles its own K, which is not noise
    held = K.nbytes if scheme in ("em", "galerkin study") else 0
    tracemalloc.start()
    try:
        if scheme == "galerkin study":
            convergence_table(kernel, grid, dec, GainSpec("sigmoid"), NoiseSpec(), cfg, [4])
        else:
            run_scheme(scheme, kernel, grid, dec, GainSpec("sigmoid"), NoiseSpec(), cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path_bytes > 20e6
    assert peak - held < path_bytes / 5


@pytest.mark.parametrize("scheme", ["galerkin", "doss_sussmann"])
def test_mode_schemes_check_their_start(gauss_setup, scheme):
    kernel, grid, dec = gauss_setup
    gain = GainSpec("cubic", allow_non_lipschitz=True)
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0,
                    u0=dec.reconstruct([20.0]), clamp=1.0)
    with pytest.raises(BlowUpError) as err:
        run_scheme(scheme, kernel, grid, dec, gain, NoiseSpec(), cfg)
    assert (err.value.step, err.value.time) == (0, 0.0)


def test_snapshot_thinning(gauss_setup):
    kernel, grid, dec = gauss_setup
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=0.25,
                    u0=constant_field(grid, 0.5), record_every=10)
    tr = em_simulate_full(kernel, grid, GainSpec("sigmoid"), NoiseSpec(), cfg)
    # snapshots at multiples of record_every plus the final step
    assert np.allclose(tr.times, [0.0, 0.1, 0.2, 0.25], atol=1e-12)
    assert tr.states.shape == (4, grid.n)
    assert tr.mean_series.size == cfg.n_steps + 1
    snap_idx = (np.round(tr.times / cfg.dt)).astype(int)
    assert np.allclose(tr.diagnostics["mean"], tr.mean_series[snap_idx],
                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [64, 400])
def test_mean_series_is_the_snapshot_mean(n):
    # bitwise: the step loop's mean must stay ndarray.mean's sum over count
    kernel, grid = Gaussian(width=0.3), Grid(-4.0, 4.0, n)
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=2.0,
                    u0=constant_field(grid, 0.5), record_every=7)
    tr = em_simulate_full(kernel, grid, GainSpec("sigmoid"),
                          NoiseSpec(mode="white", rule=None, seed=2), cfg)
    snap_idx = np.round(tr.times / cfg.dt).astype(int)
    assert np.array_equal(tr.mean_series[snap_idx], tr.states.mean(axis=1))


def test_galerkin_full_rank_matches_dense_run(gauss_setup):
    kernel, grid, dec = gauss_setup
    gain = GainSpec("sigmoid")
    cfg = SimConfig(alpha=1.0, epsilon=0.2, dt=0.01, t_final=1.0,
                    u0=Field(grid, dec.eigenfields[:, 0]), record_every=10)
    spec = NoiseSpec(seed=7)
    path = sample_noise_increments(spec, dec, cfg.dt, cfg.n_steps)
    ref = em_simulate_full(kernel, grid, gain, spec, cfg, dec=dec, path=path)
    tr = galerkin_simulate(dec, gain, spec, cfg, path=path)
    ugrid = tr.states @ dec.eigenfields.T
    diff = ref.states - ugrid
    sup = np.max(np.sqrt(grid.h * np.sum(diff * diff, axis=1)))
    assert sup <= 1e-8
    assert tr.projection_residual < 1e-12


def test_galerkin_mode_bounds(gauss_setup):
    _, grid, dec = gauss_setup
    cfg = zero_cfg(grid)
    with pytest.raises(RangeError):
        galerkin_simulate(dec, GainSpec("zero"), NoiseSpec(), cfg, n_modes=0)
    with pytest.raises(RankExceededError):
        galerkin_simulate(dec, GainSpec("zero"), NoiseSpec(), cfg,
                          n_modes=dec.rank + 1)
    with pytest.raises(RangeError):
        galerkin_simulate(dec, GainSpec("zero"),
                          NoiseSpec(mode="white", rule=None), cfg)


def test_truncation_errors_shrink_with_rank(gauss_setup):
    kernel, grid, dec = gauss_setup
    gain = GainSpec("sigmoid")
    cfg = SimConfig(alpha=1.0, epsilon=0.2, dt=0.01, t_final=0.5,
                    u0=Field(grid, dec.eigenfields[:, 0]), record_every=5)
    rows = convergence_table(kernel, grid, dec, gain, NoiseSpec(seed=7), cfg,
                             [1, 4, dec.rank])
    errs = [e for _, e in rows]
    assert errs[0] >= errs[1] >= errs[2]
    assert errs[2] <= 1e-8


def test_ou_mode_variance(gauss_setup):
    # zero gain, one mode: the exact discrete stationary variance of the
    # recursion c' = (1 - a*dt)c + eps*b*dW is eps^2 b^2 dt / (1-(1-a*dt)^2)
    # = eps^2 b^2 / (2a) / (1 - a*dt/2)
    _, grid, dec = gauss_setup
    alpha, eps, dt = 1.0, 0.5, 0.02
    cfg = SimConfig(alpha=alpha, epsilon=eps, dt=dt, t_final=400.0,
                    u0=constant_field(grid, 0.0), record_every=1)
    tr = galerkin_simulate(dec, GainSpec("zero"), NoiseSpec(seed=42), cfg,
                           n_modes=1)
    sample = tr.states[500:, 0].var()
    theory = eps**2 * dec.lambdas[0] / (2.0 * alpha) / (1.0 - alpha * dt / 2.0)
    assert abs(sample / theory - 1.0) < 0.15


def test_custom_zero_coefficient_silences_mode(gauss_setup):
    # a mode with b_i = 0 receives no noise: under zero gain it follows the
    # deterministic linear recursion exactly while other modes diffuse
    _, grid, dec = gauss_setup
    custom = list(np.sqrt(dec.lambdas))
    custom[1] = 0.0
    spec = NoiseSpec(rule="custom", custom=tuple(custom), seed=11)
    u0 = Field(grid, dec.eigenfields[:, 0] + dec.eigenfields[:, 1])
    cfg = SimConfig(alpha=1.0, epsilon=0.5, dt=0.01, t_final=1.0, u0=u0,
                    record_every=1)
    tr = galerkin_simulate(dec, GainSpec("zero"), spec, cfg)
    ks = np.arange(tr.times.size)
    silent = tr.states[:, 1]
    expect = dec.coeffs(u0)[1] * (1.0 - 0.01) ** ks
    assert np.max(np.abs(silent - expect)) < 1e-14
    noisy = tr.states[:, 0]
    expect0 = dec.coeffs(u0)[0] * (1.0 - 0.01) ** ks
    assert np.max(np.abs(noisy - expect0)) > 1e-3


def test_pathwise_transform_reduces_to_deterministic(gauss_setup):
    _, grid, dec = gauss_setup
    gain = GainSpec("sigmoid")
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0,
                    u0=Field(grid, dec.eigenfields[:, 0]), record_every=10)
    g = galerkin_simulate(dec, gain, NoiseSpec(), cfg)
    d = doss_sussmann_simulate(dec, gain, NoiseSpec(), cfg)
    assert np.max(np.abs(g.states - d.states)) <= 1e-12


def test_pathwise_transform_tracks_dense_run(gauss_setup):
    # at matched small dt the two discretizations agree to O(dt)
    kernel, grid, dec = gauss_setup
    gain = GainSpec("sigmoid")
    spec = NoiseSpec(seed=13)
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.002, t_final=0.5,
                    u0=Field(grid, dec.eigenfields[:, 0]), record_every=25)
    path = sample_noise_increments(spec, dec, cfg.dt, cfg.n_steps)
    em = em_simulate_full(kernel, grid, gain, spec, cfg, dec=dec, path=path)
    ds = doss_sussmann_simulate(dec, gain, spec, cfg, path=path)
    ugrid = ds.states @ dec.eigenfields.T
    diff = em.states - ugrid
    sup = np.max(np.sqrt(grid.h * np.sum(diff * diff, axis=1)))
    assert sup < 0.05


def test_path_mismatch_is_rejected(gauss_setup):
    kernel, grid, dec = gauss_setup
    spec = NoiseSpec(seed=7)
    cfg = SimConfig(alpha=1.0, epsilon=0.2, dt=0.01, t_final=0.5,
                    u0=constant_field(grid, 0.0))
    wrong_dt = sample_noise_increments(spec, dec, 0.02, cfg.n_steps)
    with pytest.raises(RangeError):
        galerkin_simulate(dec, GainSpec("zero"), spec, cfg, path=wrong_dt)
    short = sample_noise_increments(spec, dec, 0.01, 10)
    with pytest.raises(DimensionMismatchError):
        galerkin_simulate(dec, GainSpec("zero"), spec, cfg, path=short)


def test_invariance_monitor_modes_and_grid(gauss_setup):
    kernel, grid, dec = gauss_setup
    gain = GainSpec("sigmoid")
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0,
                    u0=Field(grid, 2.0 * dec.eigenfields[:, 0]),
                    record_every=10)
    tr = galerkin_simulate(dec, gain, NoiseSpec(), cfg)
    sup, series = invariance_monitor(tr)
    assert series.size == tr.times.size
    assert sup == series.max()
    # the dense deterministic run stays in S and the monitor accepts it
    em = em_simulate_full(kernel, grid, gain, NoiseSpec(), cfg, dec=dec)
    sup_em, series_em = invariance_monitor(em)
    assert abs(sup_em - sup) < 1e-8 * max(sup, 1.0)


def test_invariance_monitor_rejects_white_noise_states(gauss_setup):
    kernel, grid, dec = gauss_setup
    spec = NoiseSpec(mode="white", rule=None, seed=2)
    cfg = SimConfig(alpha=1.0, epsilon=0.5, dt=0.01, t_final=0.2,
                    u0=constant_field(grid, 0.0), record_every=5)
    tr = em_simulate_full(kernel, grid, GainSpec("zero"), spec, cfg, dec=dec)
    with pytest.raises(NotInSError):
        invariance_monitor(tr)


@pytest.mark.parametrize("scheme", ["em", "galerkin"])
def test_invariance_monitor_matches_a_projection_of_each_snapshot(gauss_setup, scheme):
    kernel, grid, dec = gauss_setup
    gain, spec = GainSpec("sigmoid"), NoiseSpec(seed=4)
    cfg = SimConfig(alpha=1.0, epsilon=0.3, dt=0.01, t_final=1.0,
                    u0=Field(grid, dec.eigenfields[:, 0]), record_every=1)
    if scheme == "em":
        modes = dec
        tr = em_simulate_full(kernel, grid, gain, spec, cfg, dec=dec)
        fields = tr.states
    else:
        modes = dec.truncate(5)
        tr = galerkin_simulate(dec, gain, spec, cfg, n_modes=5)
        fields = tr.states @ modes.eigenfields.T
    ref = []
    for u in fields:
        c, rel = s_residual(modes, Field(grid, u))
        assert rel <= 1e-6
        ref.append(modes.hminus1_sq(c))
    sup, series = invariance_monitor(tr)
    assert np.allclose(series, ref, rtol=1e-14, atol=0)
    assert sup == series.max()


def test_invariance_monitor_names_the_first_snapshot_without_a_norm(gauss_setup):
    kernel, grid, dec = gauss_setup
    white = NoiseSpec(mode="white", rule=None, seed=2)
    cfg = SimConfig(alpha=1.0, epsilon=0.5, dt=0.01, t_final=0.2,
                    u0=constant_field(grid, 0.0), record_every=5)
    # u = 0 at snapshot 0 is in S; white noise leaves S at the first step
    tr = em_simulate_full(kernel, grid, GainSpec("zero"), white, cfg, dec=dec)
    with pytest.raises(NotInSError, match=r"snapshot 1 \(t = 0\.05\)"):
        invariance_monitor(tr)
    # without a decomposition the run records no norm to monitor
    tr = em_simulate_full(kernel, grid, GainSpec("sigmoid"), NoiseSpec(), zero_cfg(grid))
    with pytest.raises(NotInSError, match=r"snapshot 0 \(t = 0\)"):
        invariance_monitor(tr)
    bare = TrajectoryRecord(kind="grid", times=np.array([0.0]), states=np.zeros((1, grid.n)),
                            dt=0.01, seed=0, integrator="em_full", grid=grid)
    with pytest.raises(ValidationError):
        invariance_monitor(bare)


def test_zero_gain_decay_sup_at_start(gauss_setup):
    _, grid, dec = gauss_setup
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=1.0,
                    u0=Field(grid, dec.eigenfields[:, 0]), record_every=10)
    tr = galerkin_simulate(dec, GainSpec("zero"), NoiseSpec(), cfg)
    sup, series = invariance_monitor(tr)
    assert sup == series[0]
    assert np.all(np.diff(series) < 0.0)


def test_trajectory_record_validation():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(RangeError):
        TrajectoryRecord(kind="grid", times=np.array([0.0, 0.0]),
                         states=np.zeros((2, 4)), dt=0.1, seed=0,
                         integrator="em_full", grid=g)
    with pytest.raises(DimensionMismatchError):
        TrajectoryRecord(kind="grid", times=np.array([0.0, 0.1]),
                         states=np.zeros((3, 4)), dt=0.1, seed=0,
                         integrator="em_full", grid=g)


def test_detect_switches():
    g = Grid(0.0, 1.0, 4)
    means = np.array([0.0, 0.6, 0.7, -0.6, -0.1, 0.8])
    tr = TrajectoryRecord(kind="grid", times=np.arange(6) * 0.1,
                          states=np.zeros((6, 4)), dt=0.1, seed=0,
                          integrator="em_full", grid=g, mean_series=means)
    events = detect_switches(tr, -0.5, 0.5)
    assert len(events) == 2
    (t1, d1), (t2, d2) = events
    assert d1 == "down" and abs(t1 - 0.3) < 1e-12
    assert d2 == "up" and abs(t2 - 0.5) < 1e-12
    flat = TrajectoryRecord(kind="grid", times=np.arange(3) * 0.1,
                            states=np.zeros((3, 4)), dt=0.1, seed=0,
                            integrator="em_full", grid=g,
                            mean_series=np.full(3, 0.2))
    assert detect_switches(flat, -0.5, 0.5) == []
    with pytest.raises(RangeError):
        detect_switches(flat, 0.5, -0.5)


def loop_detect_switches(means, dt, lower, upper):
    """The step-by-step hysteresis loop that `detect_switches` replaces."""
    times = np.arange(means.size) * dt
    events = []
    regime = None
    for t, m in zip(times, means):
        if m >= upper and regime != "up":
            if regime == "down":
                events.append((float(t), "up"))
            regime = "up"
        elif m <= lower and regime != "down":
            if regime == "up":
                events.append((float(t), "down"))
            regime = "down"
    return events


@settings(max_examples=300, deadline=None)
@given(
    means=arrays(np.float64, st.integers(0, 300), elements=st.one_of(
        st.floats(-1.5, 1.5),
        st.sampled_from([-0.5, 0.5, np.nan, np.inf, -np.inf]),
    )),
    dt=st.floats(1e-4, 1.0),
    lower=st.one_of(st.just(-0.5), st.floats(-1.0, 0.4)),
    width=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
)
def test_detect_switches_matches_the_loop(means, dt, lower, width):
    # thresholds hit exactly, NaN means and infinite ones included
    upper = lower + width
    g = Grid(0.0, 1.0, 4)
    tr = TrajectoryRecord(kind="grid", times=np.zeros(1), states=np.zeros((1, 4)),
                          dt=dt, seed=0, integrator="em_full", grid=g,
                          mean_series=means)
    events = detect_switches(tr, lower, upper)
    assert events == loop_detect_switches(means, dt, lower, upper)
    assert all(type(t) is float for t, _ in events)


def test_detect_switches_needs_the_mean_series():
    g = Grid(0.0, 1.0, 4)
    bare = TrajectoryRecord(kind="grid", times=np.arange(3) * 0.1,
                            states=np.zeros((3, 4)), dt=0.1, seed=0,
                            integrator="em_full", grid=g,
                            diagnostics={"mean": np.array([0.0, 0.6, -0.6])})
    with pytest.raises(InsufficientDataError):
        detect_switches(bare, -0.5, 0.5)


def test_trajectory_csv_roundtrip(gauss_setup, tmp_path):
    _, grid, dec = gauss_setup
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=0.1,
                    u0=Field(grid, dec.eigenfields[:, 0]), record_every=5)
    tr = galerkin_simulate(dec, GainSpec("sigmoid"), NoiseSpec(), cfg)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(tr, out)
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:5] == ["t", "mean", "h_norm", "hminus1_norm", "theta"]
    assert header[5] == "c_1"
    assert len(lines) == tr.times.size + 1
    first = np.array([float(v) for v in lines[1].split(",")])
    assert first[0] == tr.times[0]
    assert np.array_equal(first[5:], tr.states[0])


# -- periodic grids: K applied by FFT ------------------------------------------------

def periodic_cfg(grid, dec, epsilon):
    rng = np.random.default_rng(8)
    u0 = Field(grid, dec.eigenfields @ (rng.normal(size=dec.rank) * np.sqrt(dec.lambdas)))
    return SimConfig(alpha=1.0, epsilon=epsilon, dt=0.01, t_final=0.5, u0=u0, record_every=5)


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_periodic_em_matches_dense_recursion(periodic_setup, epsilon):
    kernel, grid, dec = periodic_setup
    gain, noise = GainSpec("sigmoid"), NoiseSpec(rule="b_sq_eq_k", seed=4)
    cfg = periodic_cfg(grid, dec, epsilon)
    tr = em_simulate_full(kernel, grid, gain, noise, cfg, dec=dec)
    K = build_operator_matrix(kernel, grid)
    spread = dec.eigenfields * noise.b_coeffs(dec)
    xi = sample_noise_increments(noise, dec, cfg.dt, cfg.n_steps).increments
    u = cfg.u0.values
    states = [u]
    for k in range(cfg.n_steps):
        u = u + cfg.dt * (-cfg.alpha * u + K @ gain.f(u)) + epsilon * (spread @ xi[k])
        states.append(u)
    expect = np.array(states)[:: cfg.record_every]
    assert tr.states.shape == expect.shape
    assert np.max(np.abs(tr.states - expect)) <= 1e-12 * np.max(np.abs(expect))


def test_periodic_em_assembles_no_operator_matrix(periodic_setup, monkeypatch):
    kernel, grid, dec = periodic_setup

    def refuse(kernel, grid):
        raise AssertionError("dense operator assembled")

    monkeypatch.setattr(sde, "build_operator_matrix", refuse)
    cfg = periodic_cfg(grid, dec, 0.3)
    for noise in (NoiseSpec(seed=2), NoiseSpec(mode="white", rule=None, seed=2)):
        tr = em_simulate_full(kernel, grid, GainSpec("sigmoid"), noise, cfg, dec=dec)
        assert np.all(np.isfinite(tr.states))


def test_periodic_em_step_is_apply_operator(periodic_setup):
    # one EM step and apply_operator share one FFT application of K
    kernel, grid, dec = periodic_setup
    gain = GainSpec("sigmoid")
    u0 = periodic_cfg(grid, dec, 0.0).u0
    cfg = SimConfig(alpha=1.0, epsilon=0.0, dt=0.01, t_final=0.01, u0=u0)
    tr = em_simulate_full(kernel, grid, gain, NoiseSpec(), cfg)
    Kf = apply_operator(kernel, grid, Field(grid, gain.f(u0.values))).values
    assert np.array_equal(u0.values + cfg.dt * (-cfg.alpha * u0.values + Kf), tr.states[1])


def fig1_grid_run(monkeypatch, plant=None, dense=False):
    """A deterministic 50-step cubic EM run on the fig1 kernel and grid
    from a rough start, with `plant` applied to the K the run assembles
    and, when dense, K applied by `K.dot` whatever its band."""
    cfg = preset_fig1()
    kernel, grid = build_kernel(cfg), build_grid(cfg)
    build = sde.build_operator_matrix

    def planted(kernel, grid):
        K = build(kernel, grid)
        if plant is not None:
            plant(K)
        return K

    monkeypatch.setattr(sde, "build_operator_matrix", planted)
    if dense:
        monkeypatch.setattr(sde, "_band_matvec", lambda K: K.dot)
    u0 = Field(grid, np.random.default_rng(5).uniform(-1.0, 1.0, grid.n))
    sim = SimConfig(alpha=0.1, epsilon=0.0, dt=0.01, t_final=0.5, u0=u0, record_every=1)
    tr = em_simulate_full(kernel, grid, GainSpec("cubic", allow_non_lipschitz=True),
                          NoiseSpec(), sim)
    monkeypatch.undo()
    return tr.states


def test_unsymmetric_or_wide_K_keeps_the_dense_product(monkeypatch):
    def pair(K):
        K[5, 300] = K[300, 5] = K[0, 0]

    def upper(K):
        K[5, 300] = K[0, 0]

    def upper_in_band(K):  # w stays 19: only the symmetry test refuses the band
        K[5, 10] = K[0, 0]

    band = fig1_grid_run(monkeypatch)
    assert not np.array_equal(band, fig1_grid_run(monkeypatch, dense=True))
    for plant in (pair, upper, upper_in_band):
        run = fig1_grid_run(monkeypatch, plant)
        assert np.array_equal(run, fig1_grid_run(monkeypatch, plant, dense=True))
        assert np.all(run[1:, 5] != band[1:, 5])  # the planted entry reaches the step


# A NaN compares false against every bound, so each guard of a positive
# (or nonnegative) argument must also ask for a finite value.
NON_FINITE_CALLS = {
    "spectral_decompose-rel_tol": lambda kernel, grid, dec, x: spectral_decompose(
        build_operator_matrix(kernel, grid), grid, rel_tol=x),
    "spectral_decompose-neg_tol": lambda kernel, grid, dec, x: spectral_decompose(
        build_operator_matrix(kernel, grid), grid, neg_tol=x),
    "sample_noise_increments-dt": lambda kernel, grid, dec, x: sample_noise_increments(
        NoiseSpec(), dec, x, 10),
    "rw_metropolis-step_scale": lambda kernel, grid, dec, x: rw_metropolis(
        GibbsTarget(dec, GainSpec("zero"), alpha=1.0, epsilon=0.5, n_modes=2),
        steps=10, step_scale=x),
    "fd_directional-t": lambda kernel, grid, dec, x: fd_directional(
        lambda v: 0.0, constant_field(grid, 1.0), constant_field(grid, 1.0), x),
    "bochner_numeric_check-xi_max": lambda kernel, grid, dec, x: bochner_numeric_check(
        kernel, xi_max=x),
}


@pytest.mark.parametrize("x", [np.nan, np.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_arguments_are_refused(gauss_setup, call, x):
    with pytest.raises(RangeError):
        NON_FINITE_CALLS[call](*gauss_setup, x)


def test_path_of_another_kind_or_width_is_refused(gauss_setup):
    _, grid, dec = gauss_setup
    spec = NoiseSpec(seed=7)
    cfg = SimConfig(alpha=1.0, epsilon=0.2, dt=0.01, t_final=0.5,
                    u0=constant_field(grid, 0.0))
    grid_path = sample_noise_increments(NoiseSpec(mode="white", rule=None, seed=7),
                                        grid, cfg.dt, cfg.n_steps)
    with pytest.raises(RangeError):
        galerkin_simulate(dec, GainSpec("zero"), spec, cfg, path=grid_path)
    narrow = sample_noise_increments(spec, dec.truncate(3), cfg.dt, cfg.n_steps)
    with pytest.raises(DimensionMismatchError):
        galerkin_simulate(dec, GainSpec("zero"), spec, cfg, path=narrow)


def test_noise_draw_refuses_a_target_of_the_wrong_kind(gauss_setup):
    _, grid, _ = gauss_setup
    with pytest.raises(RangeError):
        sample_noise_increments(NoiseSpec(mode="white", rule=None), "grid", 0.01, 5)
    with pytest.raises(RangeError):
        sample_noise_increments(NoiseSpec(), grid, 0.01, 5)


def test_record_and_config_refuse_a_short_diagnostic_or_zero_clamp():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(DimensionMismatchError):
        TrajectoryRecord(kind="grid", times=np.array([0.0, 0.1]),
                         states=np.zeros((2, 4)), dt=0.1, seed=0,
                         integrator="em_full", grid=g,
                         diagnostics={"mean": np.zeros(3)})
    with pytest.raises(RangeError):
        zero_cfg(g, clamp=0)
