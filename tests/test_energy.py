import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from amariflow import (
    Field,
    GainSpec,
    ModeFlow,
    fd_directional,
    grad_theta,
    inner_h,
    inner_hminus1,
    norm_h,
    phi_functional,
    psi_functional,
    theta_functional,
)
from amariflow.errors import NotInSError, RangeError
from conftest import constant_field, random_field_in_S

ALL_GAINS = (
    GainSpec("sigmoid"),
    GainSpec("tanh"),
    GainSpec("cubic", allow_non_lipschitz=True),
    GainSpec("constant", c=0.3),
    GainSpec("zero"),
)


def test_gain_point_values():
    assert GainSpec("sigmoid").f(0.0) == 0.5
    assert GainSpec("tanh").f(0.0) == 0.5
    cubic = GainSpec("cubic", allow_non_lipschitz=True)
    for root in (-1.0, 1.0, 0.1):
        assert abs(cubic.f(root)) < 1e-15
    assert GainSpec("constant", c=0.3).f(17.0) == 0.3
    assert GainSpec("zero").f(-5.0) == 0.0


def test_gain_validation():
    with pytest.raises(RangeError):
        GainSpec("relu")
    with pytest.raises(RangeError):
        GainSpec("constant", c=float("nan"))


def test_lipschitz_constants():
    assert GainSpec("sigmoid").lipschitz_constant == 0.25
    assert GainSpec("tanh").lipschitz_constant == 0.5
    assert GainSpec("cubic", allow_non_lipschitz=True).lipschitz_constant is None
    assert GainSpec("zero").lipschitz_constant == 0.0


def test_antiderivative_pinned_at_zero():
    for gain in ALL_GAINS:
        assert gain.phi(0.0) == 0.0


def test_antiderivative_point_oracles():
    # closed forms evaluated once and frozen
    assert abs(GainSpec("sigmoid").phi(1.0) - 0.6201145069582775) < 1e-15
    assert abs(GainSpec("tanh").phi(1.0) - 0.7168904152415135) < 1e-15
    cubic = GainSpec("cubic", allow_non_lipschitz=True)
    assert abs(cubic.phi(1.0) - 0.18333333333333332) < 1e-15
    assert GainSpec("constant", c=0.3).phi(2.0) == 0.6


def test_antiderivative_derivative_is_gain():
    s = np.linspace(-3.0, 3.0, 13)
    t = 1e-5
    for gain in ALL_GAINS:
        fd = (gain.phi(s + t) - gain.phi(s - t)) / (2.0 * t)
        assert np.max(np.abs(fd - gain.f(s))) < 1e-9


def test_gain_derivative_matches_fd():
    s = np.linspace(-2.5, 2.5, 11)
    t = 1e-6
    for gain in ALL_GAINS:
        fd = (gain.f(s + t) - gain.f(s - t)) / (2.0 * t)
        assert np.max(np.abs(fd - gain.fprime(s))) < 1e-8


def test_antiderivative_overflow_safe():
    sig = GainSpec("sigmoid")
    tan = GainSpec("tanh")
    big = np.array([-800.0, 800.0])
    with np.errstate(over="raise"):
        assert np.all(np.isfinite(sig.phi(big)))
        assert np.all(np.isfinite(tan.phi(big)))
    # asymptote: phi(s) ~ s - log 2 for large s
    assert abs(sig.phi(800.0) - (800.0 - math.log(2.0))) < 1e-12


def test_nemytskii_pointwise(gauss_setup):
    _, grid, _ = gauss_setup
    rng = np.random.default_rng(3)
    u = Field(grid, rng.normal(size=grid.n))
    out = Field(u.grid, GainSpec("sigmoid").f(u.values))
    assert out.grid == grid
    assert np.array_equal(out.values, GainSpec("sigmoid").f(u.values))


def test_phi_functional_examples(gauss_setup):
    _, grid, _ = gauss_setup
    zero = constant_field(grid, 0.0)
    for gain in ALL_GAINS:
        assert phi_functional(gain, zero) == 0.0
    # constant field reduces to length times the scalar antiderivative
    u = constant_field(grid, 1.0)
    length = grid.b - grid.a
    got = phi_functional(GainSpec("sigmoid"), u)
    assert abs(got - length * 0.6201145069582775) < 1e-12


def test_psi_on_scaled_eigenfields(gauss_setup):
    _, grid, dec = gauss_setup
    alpha = 0.8
    for i in (0, 4, 9):
        u = Field(grid, np.sqrt(dec.lambdas[i]) * dec.eigenfields[:, i])
        assert abs(psi_functional(dec, alpha, u) - alpha / 2.0) < 1e-12


def test_theta_homogeneous_reduction(periodic_setup):
    # circulant operator: constant fields are exact eigenfields, so the
    # energy of u = c*1 has a closed scalar form
    kernel, grid, dec = periodic_setup
    length = grid.b - grid.a
    mass = float(np.max(dec.lambdas))  # eigenvalue of the constant mode
    c, alpha = 0.7, 1.0
    u = constant_field(grid, c)
    gain = GainSpec("sigmoid")
    expected = -length * gain.phi(c) + 0.5 * alpha * c * c * length / mass
    got = theta_functional(dec, gain, alpha, u)
    assert abs(got - expected) < 1e-10 * max(abs(expected), 1.0)


def test_grad_zero_gain_is_alpha_u(gauss_setup):
    _, grid, dec = gauss_setup
    rng = np.random.default_rng(8)
    u = random_field_in_S(dec, rng)
    alpha = 1.3
    g = grad_theta(dec, GainSpec("zero"), alpha, u)
    assert np.max(np.abs(g.values - alpha * u.values)) < 1e-12


def test_grad_vanishes_at_homogeneous_critical_point(periodic_setup):
    _, grid, dec = periodic_setup
    gain = GainSpec("cubic", allow_non_lipschitz=True)
    alpha = 0.1
    mass = float(np.max(dec.lambdas))
    # scalar fixed point alpha*c = mass*f(c), bracketed in the upper well
    c = brentq(lambda s: alpha * s - mass * gain.f(s), 0.5, 1.0, xtol=1e-15)
    g = grad_theta(dec, gain, alpha, constant_field(grid, c))
    assert norm_h(g) <= 1e-8


def test_functionals_reject_outside_subspace(gauss_setup):
    _, grid, dec = gauss_setup
    rng = np.random.default_rng(17)
    v = rng.normal(size=grid.n)
    E = dec.eigenfields
    v = v - E @ (grid.h * (E.T @ v))
    q = Field(grid, v / norm_h(Field(grid, v)))
    with pytest.raises(NotInSError):
        psi_functional(dec, 1.0, q)
    with pytest.raises(NotInSError):
        theta_functional(dec, GainSpec("sigmoid"), 1.0, q)
    with pytest.raises(NotInSError):
        grad_theta(dec, GainSpec("sigmoid"), 1.0, q)


def test_fd_directional_exact_on_linear_and_quadratic(gauss_setup):
    _, grid, dec = gauss_setup
    rng = np.random.default_rng(30)
    a = Field(grid, rng.normal(size=grid.n))
    u = Field(grid, rng.normal(size=grid.n))
    h = Field(grid, rng.normal(size=grid.n))

    linear = lambda v: inner_h(a, v)
    d = fd_directional(linear, u, h, 1e-3)
    assert abs(d - inner_h(a, h)) < 1e-10

    quadratic = lambda v: norm_h(v) ** 2
    d = fd_directional(quadratic, u, h, 1e-3)
    assert abs(d - 2.0 * inner_h(u, h)) < 1e-9


def test_fd_directional_second_order(gauss_setup):
    _, grid, dec = gauss_setup
    rng = np.random.default_rng(5)
    u = random_field_in_S(dec, rng)
    h = random_field_in_S(dec, rng)
    gain = GainSpec("sigmoid")
    alpha = 0.8
    ref = inner_hminus1(dec, grad_theta(dec, gain, alpha, u), h)
    func = lambda v: theta_functional(dec, gain, alpha, v)
    err = {t: abs(fd_directional(func, u, h, t) - ref) for t in (1e-2, 1e-3)}
    assert 50.0 < err[1e-2] / err[1e-3] < 200.0


def test_gradient_matches_fd_property(gauss_setup):
    # the nonlocal inner product is the one that linearizes Theta
    _, grid, dec = gauss_setup
    alpha = 0.8
    for gain in (GainSpec("sigmoid"), GainSpec("tanh")):
        rng = np.random.default_rng(77)
        func = lambda v: theta_functional(dec, gain, alpha, v)
        for _ in range(20):
            u = random_field_in_S(dec, rng)
            h = random_field_in_S(dec, rng)
            ref = inner_hminus1(dec, grad_theta(dec, gain, alpha, u), h)
            d = fd_directional(func, u, h, 1e-4)
            assert abs(d - ref) <= 1e-5 * max(abs(ref), 1e-12)


@pytest.mark.parametrize("n_modes", [3, None])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    gain=st.sampled_from(ALL_GAINS),
    x=arrays(np.float64, 36, elements=st.floats(-2.0, 2.0)),
)
def test_mode_drift_is_minus_lambda_grad_theta(gauss_setup, n_modes, gain, x):
    # the drift the integrators step is -lambda_i dTheta_N/dc_i, by central
    # differences of the same flow's Theta_N, at full rank and truncated
    _, _, dec = gauss_setup
    assert dec.rank == x.size
    modes = dec.truncate(dec.rank if n_modes is None else n_modes)
    flow = ModeFlow(modes, gain, 0.8)
    E, lam = modes.eigenfields, modes.lambdas
    c = np.sqrt(lam) * x[: modes.rank]
    fd = np.empty(modes.rank)
    for i in range(modes.rank):
        t = 1e-4 * np.sqrt(lam[i])
        up, dn = c.copy(), c.copy()
        up[i] += t
        dn[i] -= t
        fd[i] = (flow.theta(up, E @ up) - flow.theta(dn, E @ dn)) / (2.0 * t)
    err = np.abs(flow.drift(c, E @ c) + lam * fd)
    assert np.all(err <= 1e-7 * np.sqrt(lam)), (err / np.sqrt(lam)).max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    gain=st.sampled_from(ALL_GAINS),
    alpha=st.floats(0.1, 2.0),
    x=arrays(np.float64, 36, elements=st.floats(-2.0, 2.0)),
    y=arrays(np.float64, 36, elements=st.floats(-2.0, 2.0)),
)
def test_grad_theta_matches_fd_directional(gauss_setup, gain, alpha, x, y):
    # <grad Theta(u), h>_-1 is the derivative of Theta along h, for
    # generated states u and directions h in S
    _, _, dec = gauss_setup
    assert dec.rank == x.size
    root = np.sqrt(dec.lambdas)
    u, h = dec.reconstruct(root * x), dec.reconstruct(root * y)
    ref = inner_hminus1(dec, grad_theta(dec, gain, alpha, u), h)
    d = fd_directional(lambda v: theta_functional(dec, gain, alpha, v), u, h, 1e-4)
    assert abs(d - ref) <= 1e-6 * max(abs(ref), 1.0), (d, ref)


def test_rangeerror_on_nonpositive_fd_step(gauss_setup):
    _, grid, dec = gauss_setup
    u = constant_field(grid, 0.0)
    with pytest.raises(RangeError):
        fd_directional(lambda v: 0.0, u, u, 0.0)
