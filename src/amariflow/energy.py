"""Gain nonlinearities and the Lyapunov structure of the field dynamics.

The drift -alpha*u + K F(u) is the negative gradient, in the nonlocal inner
product (f, g)_-1 = <K^(-1) f, g>, of

    Theta(u) = -Phi(u) + Psi(u),
    Phi(u)   = integral phi(u(x)) dx,   phi' = f,  phi(0) = 0,
    Psi(u)   = (alpha/2) ||u||_-1^2.

All antiderivatives are pinned by phi(0) = 0; the additive constant is
irrelevant to gradients and to energy differences, and the convention makes
values comparable across gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import RangeError
from .operator import Field, SpectralDecomposition, _coeffs_in_S

LN2 = math.log(2.0)

GAIN_FAMILIES = ("sigmoid", "tanh", "cubic", "constant", "zero")


@dataclass(frozen=True)
class GainSpec:
    """Pointwise gain f with derivative and antiderivative.

    sigmoid   f(s) = 1/(1+exp(-s))          Lipschitz 1/4
    tanh      f(s) = (tanh(s)+1)/2          Lipschitz 1/2
    cubic     f(s) = (s+1)(1-s)(s-0.1)      not Lipschitz (cubic growth)
    constant  f(s) = c                      Lipschitz 0
    zero      f(s) = 0                      Lipschitz 0

    The cubic gain may be constructed freely but integrators refuse it
    unless allow_non_lipschitz is set: without global Lipschitz control the
    explicit schemes can escape to infinity, so runs with it are guarded by
    a trust region (see the BlowUp clamp in the integrators).
    """

    family: str
    c: float = 0.0
    allow_non_lipschitz: bool = False

    def __post_init__(self):
        if self.family not in GAIN_FAMILIES:
            raise RangeError(
                f"gain family must be one of {GAIN_FAMILIES}, got {self.family!r}"
            )
        if not np.isfinite(self.c):
            raise RangeError(f"constant gain level must be finite, got {self.c!r}")

    @property
    def lipschitz_constant(self) -> float | None:
        """Global Lipschitz constant of f, None for the cubic gain."""
        return {"sigmoid": 0.25, "tanh": 0.5, "cubic": None,
                "constant": 0.0, "zero": 0.0}[self.family]

    def f(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "sigmoid":
            return expit(s)
        if self.family == "tanh":
            return 0.5 * (np.tanh(s) + 1.0)
        if self.family == "cubic":
            return (s + 1.0) * (1.0 - s) * (s - 0.1)
        if self.family == "constant":
            return np.full_like(s, self.c)
        return np.zeros_like(s)

    def fprime(self, s):
        s = np.asarray(s, dtype=float)
        if self.family == "sigmoid":
            p = expit(s)
            return p * (1.0 - p)
        if self.family == "tanh":
            sech = 2.0 * np.exp(-np.abs(s)) / (1.0 + np.exp(-2.0 * np.abs(s)))
            return 0.5 * sech * sech
        if self.family == "cubic":
            return -3.0 * s * s + 0.2 * s + 1.0
        return np.zeros_like(s)

    def phi(self, s):
        """Antiderivative of f with phi(0) = 0, overflow-safe."""
        s = np.asarray(s, dtype=float)
        if self.family == "sigmoid":
            # log(1 + e^s) - log 2
            return np.logaddexp(0.0, s) - LN2
        if self.family == "tanh":
            # (log cosh s)/2 + s/2
            logcosh = np.abs(s) + np.log1p(np.exp(-2.0 * np.abs(s))) - LN2
            return 0.5 * (logcosh + s)
        if self.family == "cubic":
            s2 = s * s
            return -0.25 * s2 * s2 + (0.1 / 3.0) * s2 * s + 0.5 * s2 - 0.1 * s
        if self.family == "constant":
            return self.c * s
        return np.zeros_like(s)


def _check_alpha(alpha: float):
    if not (np.isfinite(alpha) and alpha > 0.0):
        raise RangeError(f"alpha must be positive, got {alpha!r}")


def _phi(gain: GainSpec, h: float, u) -> float:
    """Phi = h sum phi(u) of grid values u: the midpoint rule."""
    return float(h * np.sum(gain.phi(u)))


def _psi(dec: SpectralDecomposition, alpha: float, c) -> float:
    """Psi = (alpha/2) ||c||_-1^2 of mode coefficients c on dec's modes."""
    return 0.5 * alpha * float(dec.hminus1_sq(c))


class ModeFlow:
    """The gradient structure on the modes of dec (a decomposition or its
    truncation to the leading N modes): Theta_N and the mode drift
    -Lambda grad Theta_N.  c are mode coefficients on those modes and u
    their grid values, u = E c for a state in S.  E, lambda and h are
    resolved once, here, not on every call.
    """

    def __init__(self, dec: SpectralDecomposition, gain: GainSpec, alpha: float):
        _check_alpha(alpha)
        self.dec, self.gain, self.alpha = dec, gain, alpha
        self._E, self._lam, self._h = dec.eigenfields, dec.lambdas, dec.grid.h

    def theta(self, c, u) -> float:
        """Theta_N = -Phi(u) + Psi(c)."""
        return -_phi(self.gain, self._h, u) + _psi(self.dec, self.alpha, c)

    def nonlocal_part(self, u) -> np.ndarray:
        """lambda_i <F(u), e_i>_H: the coefficients of K F(u) through the modes."""
        return self._lam * (self._h * (self._E.T @ self.gain.f(u)))

    def drift(self, c, u) -> np.ndarray:
        """-Lambda grad Theta_N = -alpha c + lambda_i <F(u), e_i>_H."""
        return -self.alpha * c + self.nonlocal_part(u)


def phi_functional(gain: GainSpec, u: Field) -> float:
    """Phi(u) = integral phi(u(x)) dx by the midpoint rule."""
    return _phi(gain, u.grid.h, u.values)


def psi_functional(dec: SpectralDecomposition, alpha: float, u: Field) -> float:
    """Psi(u) = (alpha/2) ||u||_-1^2; requires u in S (raises NotInS)."""
    _check_alpha(alpha)
    return _psi(dec, alpha, _coeffs_in_S(dec, u))


def theta_functional(
    dec: SpectralDecomposition, gain: GainSpec, alpha: float, u: Field
) -> float:
    """Theta(u) = -Phi(u) + Psi(u), the Lyapunov functional of the flow;
    requires u in S (raises NotInS)."""
    flow = ModeFlow(dec, gain, alpha)
    return flow.theta(_coeffs_in_S(dec, u), u.values)


def grad_theta(dec: SpectralDecomposition, gain: GainSpec, alpha: float, u: Field) -> Field:
    """Riesz gradient of Theta in the (., .)_-1 product: alpha*u - K F(u).

    Requires u in S (raises NotInS).  K is applied through the retained
    modes, so K F(u) lies in S.  Its mode coefficients are
    -ModeFlow.drift, the drift the integrators assemble.
    """
    flow = ModeFlow(dec, gain, alpha)
    _coeffs_in_S(dec, u)
    return Field(u.grid, alpha * u.values - dec.eigenfields @ flow.nonlocal_part(u.values))


def fd_directional(functional, u: Field, direction: Field, t: float) -> float:
    """Central finite difference of a functional along a direction."""
    if not (np.isfinite(t) and t > 0.0):
        raise RangeError(f"step t must be positive and finite, got {t!r}")
    up = Field(u.grid, u.values + t * direction.values)
    dn = Field(u.grid, u.values - t * direction.values)
    return (functional(up) - functional(dn)) / (2.0 * t)
