"""Connectivity kernel families and their spectral positivity structure.

Every kernel here is even, bounded, and continuous, J(x) = J(-x).  Under the
Fourier convention

    J(x) = (2 pi)^(-1/2) * integral exp(i xi x) g(xi) d xi,

a kernel is nonnegative definite exactly when its spectral measure is
nonnegative (Bochner).  For the families with absolutely continuous spectrum,
`Kernel.fourier_density` evaluates the closed-form density g; sums of cosines
have purely atomic spectrum and raise AtomicSpectrum instead.

The exponential mexican hat is special-cased: its standard printed density is
the plain transform integral exp(-i xi x) J(x) dx, so its inversion prefactor
is (2 pi)^(-1) rather than (2 pi)^(-1/2).  Signs, and therefore every
positivity verdict, do not depend on this normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np
from scipy import linalg

from .errors import (
    AtomicSpectrumError,
    DimensionMismatchError,
    EmptyPointSetError,
    RangeError,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


class Verdict(str, Enum):
    NONNEGATIVE_DEFINITE = "nonnegative_definite"
    INDEFINITE = "indefinite"


@dataclass(frozen=True)
class Classification:
    """Positivity verdict. Indefinite verdicts carry a witness frequency."""

    verdict: Verdict
    witness: float | None = None
    reason: str = ""

    def __post_init__(self):
        if self.verdict is Verdict.INDEFINITE and self.witness is None:
            raise ValueError("indefinite verdict requires a witness")


def _check_positive(name: str, value: float):
    if not np.isfinite(value) or value <= 0.0:
        raise RangeError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Kernel:
    """Base class: scale multiplies both J and its density."""

    scale: float = field(default=1.0, kw_only=True)

    family: ClassVar[str] = "?"

    def __post_init__(self):
        _check_positive("scale", self.scale)

    # J is evaluated on |x| throughout, so evenness holds bitwise.
    def evaluate(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        out = self.scale * self._profile(ax)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out

    def fourier_density(self, xi):
        if not self.has_density():
            raise AtomicSpectrumError(
                f"{self.family} kernel has atomic spectrum: no density"
            )
        axi = np.abs(np.asarray(xi, dtype=float))
        out = self.scale * self._density(axi)
        return float(out) if np.isscalar(xi) or np.ndim(xi) == 0 else out

    def has_density(self) -> bool:
        return True

    def density_support(self) -> float | None:
        """Right endpoint of the density's support, None if unbounded."""
        return None

    def inversion_prefactor(self) -> float:
        return 1.0 / SQRT_2PI

    def classify(self) -> Classification:
        return Classification(
            Verdict.NONNEGATIVE_DEFINITE,
            reason="spectral density nonnegative for all admissible parameters",
        )

    def thresholds(self) -> dict:
        """The parameter bounds that classify compares against, by name;
        empty for families whose sign does not depend on a parameter."""
        return {}

    def _profile(self, ax):
        raise NotImplementedError

    def _density(self, axi):
        raise NotImplementedError


@dataclass(frozen=True)
class Gaussian(Kernel):
    """J(x) = scale * exp(-x^2 / (2 width)); width is variance-like."""

    width: float = 1.0

    family: ClassVar[str] = "gaussian"

    def __post_init__(self):
        super().__post_init__()
        _check_positive("width", self.width)

    def _profile(self, ax):
        return np.exp(-(ax * ax) / (2.0 * self.width))

    def _density(self, axi):
        return math.sqrt(self.width) * np.exp(-self.width * axi * axi / 2.0)


@dataclass(frozen=True)
class Exponential(Kernel):
    """J(x) = scale * exp(-rate |x|); density is a Lorentzian."""

    rate: float = 1.0

    family: ClassVar[str] = "exponential"

    def __post_init__(self):
        super().__post_init__()
        _check_positive("rate", self.rate)

    def _profile(self, ax):
        return np.exp(-self.rate * ax)

    def _density(self, axi):
        b = self.rate
        return math.sqrt(2.0 / math.pi) * b / (b * b + axi * axi)


@dataclass(frozen=True)
class CauchyExp(Kernel):
    """J(x) = scale * exp(-sqrt(m) |x|), m >= 0. m = 0 degenerates to a
    constant, whose spectrum is an atom at the origin."""

    m: float = 1.0

    family: ClassVar[str] = "cauchy_exp"

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.m) or self.m < 0.0:
            raise RangeError(f"m must be >= 0 and finite, got {self.m!r}")

    def has_density(self) -> bool:
        return self.m > 0.0

    def _profile(self, ax):
        return np.exp(-math.sqrt(self.m) * ax)

    def _density(self, axi):
        c = math.sqrt(self.m)
        return math.sqrt(2.0 / math.pi) * c / (c * c + axi * axi)


@dataclass(frozen=True)
class Laplace(Kernel):
    """J(x) = scale / (1 + m x^2 / 2), m >= 0; double-exponential density."""

    m: float = 1.0

    family: ClassVar[str] = "laplace"

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.m) or self.m < 0.0:
            raise RangeError(f"m must be >= 0 and finite, got {self.m!r}")

    def has_density(self) -> bool:
        return self.m > 0.0

    def _profile(self, ax):
        return 1.0 / (1.0 + self.m * ax * ax / 2.0)

    def _density(self, axi):
        return math.sqrt(math.pi / self.m) * np.exp(-math.sqrt(2.0 / self.m) * axi)


@dataclass(frozen=True)
class Sinc(Kernel):
    """J(x) = scale * sin(x)/x; band-limited flat density on [-1, 1]."""

    family: ClassVar[str] = "sinc"

    def _profile(self, ax):
        # np.sinc(t) = sin(pi t)/(pi t)
        return np.sinc(ax / np.pi)

    def _density(self, axi):
        return math.sqrt(math.pi / 2.0) * (axi <= 1.0).astype(float)

    def density_support(self) -> float | None:
        return 1.0


@dataclass(frozen=True)
class CosineSum(Kernel):
    """J(x) = scale * sum_i weights[i] * cos(freqs[i] x), weights >= 0.

    Spectrum is atomic (point masses at +-freqs), so there is no density;
    nonnegative weights make the kernel nonnegative definite outright.
    """

    weights: tuple = (1.0,)
    freqs: tuple = (1.0,)

    family: ClassVar[str] = "cosine_sum"

    def __post_init__(self):
        super().__post_init__()
        w = tuple(float(v) for v in self.weights)
        f = tuple(float(v) for v in self.freqs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "freqs", f)
        if len(w) != len(f):
            raise DimensionMismatchError(
                f"weights ({len(w)}) and freqs ({len(f)}) differ in length"
            )
        if len(w) == 0:
            raise RangeError("cosine sum needs at least one term")
        if any(not np.isfinite(v) or v < 0.0 for v in w):
            raise RangeError(f"weights must be >= 0 and finite, got {w!r}")
        if any(not np.isfinite(v) for v in f):
            raise RangeError(f"freqs must be finite, got {f!r}")
        if len({abs(v) for v in f}) != len(f):
            raise RangeError(f"freqs must have distinct magnitudes, got {f!r}")

    def has_density(self) -> bool:
        return False

    def _profile(self, ax):
        out = np.zeros_like(ax)
        for a, m in zip(self.weights, self.freqs):
            out += a * np.cos(m * ax)
        return out

    def classify(self) -> Classification:
        return Classification(
            Verdict.NONNEGATIVE_DEFINITE,
            reason="atomic spectral measure with nonnegative weights",
        )


@dataclass(frozen=True)
class MexicanHatPoly(Kernel):
    """J(x) = scale * (1 - x^2) exp(-x^2/2); density xi^2 exp(-xi^2/2)."""

    family: ClassVar[str] = "mexican_hat_poly"

    def _profile(self, ax):
        x2 = ax * ax
        return (1.0 - x2) * np.exp(-x2 / 2.0)

    def _density(self, axi):
        x2 = axi * axi
        return x2 * np.exp(-x2 / 2.0)


@dataclass(frozen=True)
class MexicanHatGauss(Kernel):
    """J(x) = scale * (exp(-x^2/2) - amp * exp(-x^2/s^2)), 0 < amp < 1, s > 1.

    Density exp(-xi^2/2) - (amp*s/sqrt(2)) exp(-s^2 xi^2/4): nonnegative
    exactly when sqrt(2) <= s <= sqrt(2)/amp.  Below sqrt(2) the wide bump's
    transform decays slower and wins at high frequency; above sqrt(2)/amp it
    already wins at xi = 0.
    """

    amp: float = 0.5
    s: float = 2.0

    family: ClassVar[str] = "mexican_hat_gauss"

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.amp) and 0.0 < self.amp < 1.0):
            raise RangeError(f"amp must be in (0, 1), got {self.amp!r}")
        if not (np.isfinite(self.s) and self.s > 1.0):
            raise RangeError(f"s must be > 1, got {self.s!r}")

    def _profile(self, ax):
        x2 = ax * ax
        return np.exp(-x2 / 2.0) - self.amp * np.exp(-x2 / (self.s * self.s))

    def _density(self, axi):
        x2 = axi * axi
        coef = self.amp * self.s / math.sqrt(2.0)
        return np.exp(-x2 / 2.0) - coef * np.exp(-self.s * self.s * x2 / 4.0)

    def thresholds(self) -> dict:
        return {"s_min": math.sqrt(2.0), "s_max": math.sqrt(2.0) / self.amp}

    def classify(self) -> Classification:
        t = self.thresholds()
        if t["s_min"] <= self.s <= t["s_max"]:
            return Classification(
                Verdict.NONNEGATIVE_DEFINITE,
                reason="sqrt(2) <= s <= sqrt(2)/amp",
            )
        if self.s < t["s_min"]:
            # Negative tail at high frequency; locate the density minimum.
            delta = (2.0 - self.s * self.s) / 4.0
            arg = 2.0 * math.sqrt(2.0) / (self.amp * self.s**3)
            xi_star = math.sqrt(max(math.log(max(arg, 1.0 + 1e-12)), 0.1) / max(delta, 1e-12))
            xi_max = 1.5 * xi_star + 5.0
            reason = "s < sqrt(2): wide component dominates at high frequency"
        else:
            xi_max = 10.0
            reason = "s > sqrt(2)/amp: wide component dominates at xi = 0"
        witness, _ = _density_min(self, xi_max)
        return Classification(Verdict.INDEFINITE, witness=witness, reason=reason)


@dataclass(frozen=True)
class MexicanHatExp(Kernel):
    """J(x) = scale * (exp(-gamma1 |x|) - ratio * exp(-gamma2 |x|)),
    0 < ratio < 1, gamma1 > gamma2 > 0.

    Density 2 (gamma1/(gamma1^2+xi^2) - ratio*gamma2/(gamma2^2+xi^2)):
    nonnegative exactly when ratio <= gamma2/gamma1 (tightest at xi = 0).
    This family's printed density is the plain transform, hence the
    (2 pi)^(-1) inversion prefactor.
    """

    ratio: float = 0.5
    gamma1: float = 2.0
    gamma2: float = 1.0

    family: ClassVar[str] = "mexican_hat_exp"

    def __post_init__(self):
        super().__post_init__()
        if not (np.isfinite(self.ratio) and 0.0 < self.ratio < 1.0):
            raise RangeError(f"ratio must be in (0, 1), got {self.ratio!r}")
        _check_positive("gamma2", self.gamma2)
        if not (np.isfinite(self.gamma1) and self.gamma1 > self.gamma2):
            raise RangeError(
                f"need gamma1 > gamma2 > 0, got gamma1={self.gamma1!r}, gamma2={self.gamma2!r}"
            )

    def inversion_prefactor(self) -> float:
        return 1.0 / (2.0 * math.pi)

    def _profile(self, ax):
        return np.exp(-self.gamma1 * ax) - self.ratio * np.exp(-self.gamma2 * ax)

    def _density(self, axi):
        x2 = axi * axi
        g1, g2 = self.gamma1, self.gamma2
        return 2.0 * (g1 / (g1 * g1 + x2) - self.ratio * g2 / (g2 * g2 + x2))

    def thresholds(self) -> dict:
        return {"ratio_max": self.gamma2 / self.gamma1}

    def classify(self) -> Classification:
        if self.ratio <= self.thresholds()["ratio_max"]:
            return Classification(
                Verdict.NONNEGATIVE_DEFINITE, reason="ratio <= gamma2/gamma1"
            )
        witness, _ = _density_min(self, 5.0 * self.gamma1)
        return Classification(
            Verdict.INDEFINITE,
            witness=witness,
            reason="ratio > gamma2/gamma1: density negative at low frequency",
        )


@dataclass(frozen=True)
class WizardHat(Kernel):
    """J(x) = scale * (1 - |x|) exp(-|x|) / 4; density xi^2/(1+xi^2)^2 up to
    the (2 pi)^(-1/2) convention factor."""

    family: ClassVar[str] = "wizard_hat"

    def _profile(self, ax):
        return 0.25 * (1.0 - ax) * np.exp(-ax)

    def _density(self, axi):
        x2 = axi * axi
        return x2 / (SQRT_2PI * (1.0 + x2) ** 2)


@dataclass(frozen=True)
class DampedCosine(Kernel):
    """J(x) = scale * exp(-rate |x|) (rate * sin|x| + cos x), rate > 0.

    Density 4 rate (rate^2+1) / (sqrt(2 pi) (rate^2+(1+xi)^2)(rate^2+(1-xi)^2)):
    strictly positive, so the kernel is nonnegative definite for every rate.
    """

    rate: float = 1.0

    family: ClassVar[str] = "damped_cosine"

    def __post_init__(self):
        super().__post_init__()
        _check_positive("rate", self.rate)

    def _profile(self, ax):
        b = self.rate
        return np.exp(-b * ax) * (b * np.sin(ax) + np.cos(ax))

    def _density(self, axi):
        b = self.rate
        b2 = b * b
        num = 4.0 * b * (b2 + 1.0)
        den = SQRT_2PI * (b2 + (1.0 + axi) ** 2) * (b2 + (1.0 - axi) ** 2)
        return num / den


@dataclass(frozen=True)
class Zero(Kernel):
    """J = 0; density identically zero."""

    family: ClassVar[str] = "zero"

    def _profile(self, ax):
        return np.zeros_like(ax)

    def _density(self, axi):
        return np.zeros_like(axi)


FAMILIES = {
    cls.family: cls
    for cls in (
        Gaussian,
        Exponential,
        CauchyExp,
        Laplace,
        Sinc,
        CosineSum,
        MexicanHatPoly,
        MexicanHatGauss,
        MexicanHatExp,
        WizardHat,
        DampedCosine,
        Zero,
    )
}


def _density_min(kernel: Kernel, xi_max: float, n: int = 8001) -> tuple[float, float]:
    """(xi, g(xi)) at the smallest density value on n equispaced points of
    [0, xi_max]; AtomicSpectrum for a kernel without a density."""
    grid = np.linspace(0.0, xi_max, n)
    vals = kernel.fourier_density(grid)
    k = int(np.argmin(vals))
    return float(grid[k]), float(vals[k])


def gram_min_eigenvalue(kernel: Kernel, points) -> float:
    """Smallest eigenvalue of the Gram matrix [J(x_i - x_j)]."""
    pts = np.atleast_1d(np.asarray(points, dtype=float)).ravel()
    if pts.size == 0:
        raise EmptyPointSetError("Gram check needs at least one point")
    G = kernel.evaluate(pts[:, None] - pts[None, :])
    return float(linalg.eigvalsh(G)[0])


def bochner_numeric_check(
    kernel: Kernel,
    xi_max: float = 20.0,
    n_xi: int = 2001,
    tol: float = 1e-8,
) -> Classification:
    """Sweep the closed-form spectral density on n_xi points of [0, xi_max]
    and compare its minimum against -tol.  A kernel with atomic spectrum
    has no density to sweep and raises AtomicSpectrum."""
    if not (np.isfinite(xi_max) and xi_max > 0.0) or n_xi < 2:
        raise RangeError(f"need finite xi_max > 0 and n_xi >= 2, got {xi_max!r}, {n_xi!r}")
    xi, vmin = _density_min(kernel, xi_max, n_xi)
    if vmin >= -tol:
        return Classification(
            Verdict.NONNEGATIVE_DEFINITE,
            reason=f"min {vmin:.3e} >= -tol (closed-form density sweep)",
        )
    return Classification(
        Verdict.INDEFINITE,
        witness=xi,
        reason=(
            f"density minimum {vmin:.3e} < -tol at xi = {xi:.6g}"
            " (closed-form density sweep)"
        ),
    )


def invert_density(kernel: Kernel, x: float) -> float:
    """Reconstruct J(x) from the spectral density by Fourier quadrature.

    Uses adaptive oscillatory quadrature (QAWO/QAWF); for the
    slowly-decaying Lorentzian-tail densities this is the only route to
    1e-6 absolute accuracy at reasonable cost.
    """
    from scipy import integrate  # imported here: no other caller, and slow to load

    ax = abs(float(x))

    def g(xi):
        return kernel.fourier_density(xi)

    sup = kernel.density_support()
    if sup is not None:
        if ax < 1e-12:
            val, _ = integrate.quad(g, 0.0, sup, epsabs=1e-12, limit=200)
        else:
            val, _ = integrate.quad(
                g, 0.0, sup, weight="cos", wvar=ax, epsabs=1e-12, limit=200
            )
    elif ax < 1e-12:
        val, _ = integrate.quad(g, 0.0, np.inf, epsabs=1e-12, limit=400)
    else:
        val, _ = integrate.quad(
            g, 0.0, np.inf, weight="cos", wvar=ax, epsabs=1e-11, limlst=200, limit=400
        )
    return 2.0 * kernel.inversion_prefactor() * val
