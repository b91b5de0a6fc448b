import math

import numpy as np
import pytest

from amariflow import (
    CauchyExp,
    CosineSum,
    DampedCosine,
    Exponential,
    Gaussian,
    Laplace,
    MexicanHatExp,
    MexicanHatGauss,
    MexicanHatPoly,
    Sinc,
    Verdict,
    WizardHat,
    Zero,
    bochner_numeric_check,
    gram_min_eigenvalue,
    invert_density,
)
from amariflow.errors import (
    AtomicSpectrumError,
    DimensionMismatchError,
    EmptyPointSetError,
    RangeError,
)
from conftest import sweep_xi_max

SQRT2 = math.sqrt(2.0)

# one representative per family, density-bearing parameter choices
DENSITY_KERNELS = [
    Gaussian(width=0.7),
    Exponential(rate=1.3),
    CauchyExp(m=0.8),
    Laplace(m=1.1),
    Sinc(),
    MexicanHatPoly(),
    MexicanHatGauss(amp=0.4, s=2.0),
    MexicanHatExp(ratio=0.3, gamma1=2.0, gamma2=1.0),
    WizardHat(),
    DampedCosine(rate=0.9),
    Zero(),
]

ATOMIC_KERNELS = [
    CosineSum(weights=(1.0, 0.5), freqs=(1.0, 2.5)),
    CauchyExp(m=0.0),
    Laplace(m=0.0),
]

NN_KERNELS = [
    Gaussian(width=0.7),
    Exponential(rate=1.3),
    CauchyExp(m=0.8),
    Laplace(m=1.1),
    Sinc(),
    CosineSum(weights=(1.0, 0.5), freqs=(1.0, 2.5)),
    MexicanHatPoly(),
    WizardHat(),
    DampedCosine(rate=0.9),
    Zero(),
]



def test_evenness_is_bitwise():
    rng = np.random.default_rng(8)
    x = rng.uniform(-30.0, 30.0, size=1000)
    for kernel in DENSITY_KERNELS + ATOMIC_KERNELS:
        left = kernel.evaluate(-x)
        right = kernel.evaluate(x)
        assert np.array_equal(left, right), type(kernel).__name__


def test_point_values():
    assert Gaussian(width=1.0).evaluate(0.0) == 1.0
    assert MexicanHatPoly().evaluate(1.0) == 0.0
    assert MexicanHatPoly().evaluate(0.0) == 1.0
    assert WizardHat().evaluate(0.0) == 0.25
    assert Zero().evaluate(3.7) == 0.0
    assert Sinc().evaluate(0.0) == 1.0
    assert CosineSum(weights=(2.0, 1.0), freqs=(1.0, 3.0)).evaluate(0.0) == 3.0


def test_density_point_oracles():
    # polynomial hat: density xi^2 exp(-xi^2/2) evaluated at xi = 1
    got = MexicanHatPoly().fourier_density(1.0)
    assert abs(got - math.exp(-0.5)) < 1e-15
    # Gaussian-difference hat at xi = 0: 1 - A s / sqrt(2)
    for amp, s in [(0.2, 1.5), (0.5, 2.0), (0.9, 1.2)]:
        got = MexicanHatGauss(amp=amp, s=s).fourier_density(0.0)
        assert abs(got - (1.0 - amp * s / SQRT2)) < 1e-15
    # exponential-difference hat at xi = 0: 2 (1/g1 - ratio/g2)
    for ratio, g1, g2 in [(0.3, 2.0, 1.0), (0.7, 3.0, 0.5)]:
        got = MexicanHatExp(ratio=ratio, gamma1=g1, gamma2=g2).fourier_density(0.0)
        assert abs(got - 2.0 * (1.0 / g1 - ratio / g2)) < 1e-14


def test_density_nonnegative_on_nn_families():
    rng = np.random.default_rng(3)
    xi = rng.uniform(0.0, 25.0, size=400)
    for kernel in NN_KERNELS:
        if not kernel.has_density():
            continue
        vals = kernel.fourier_density(xi)
        assert np.all(vals >= 0.0), type(kernel).__name__


def test_inversion_roundtrip():
    # quadrature of the density must reproduce J(x) within 1e-6 for |x| <= 5
    for kernel in DENSITY_KERNELS:
        for x in (0.0, 0.35, 0.7, 2.3, 5.0):
            back = invert_density(kernel, x)
            direct = kernel.evaluate(x)
            assert abs(back - direct) < 1e-6, (type(kernel).__name__, x)


def test_atomic_families_raise_on_density():
    for kernel in ATOMIC_KERNELS:
        assert not kernel.has_density()
        with pytest.raises(AtomicSpectrumError):
            kernel.fourier_density(1.0)


def test_classification_examples():
    assert MexicanHatGauss(amp=0.5, s=2.0).classify().verdict == Verdict.NONNEGATIVE_DEFINITE
    res = MexicanHatGauss(amp=0.5, s=3.0).classify()
    assert res.verdict == Verdict.INDEFINITE
    assert res.witness is not None
    assert MexicanHatExp(ratio=0.3, gamma1=2.0, gamma2=1.0).classify().verdict == Verdict.NONNEGATIVE_DEFINITE
    for kernel in NN_KERNELS:
        assert kernel.classify().verdict == Verdict.NONNEGATIVE_DEFINITE


def test_classification_thresholds_inclusive():
    # s in [sqrt(2), sqrt(2)/A] is nonnegative definite, endpoints included
    assert MexicanHatGauss(amp=0.5, s=SQRT2).classify().verdict == Verdict.NONNEGATIVE_DEFINITE
    assert MexicanHatGauss(amp=0.5, s=SQRT2 / 0.5).classify().verdict == Verdict.NONNEGATIVE_DEFINITE
    assert MexicanHatGauss(amp=0.5, s=SQRT2 - 1e-9).classify().verdict == Verdict.INDEFINITE
    assert MexicanHatGauss(amp=0.5, s=SQRT2 / 0.5 + 1e-9).classify().verdict == Verdict.INDEFINITE
    # ratio <= gamma2/gamma1, endpoint included
    assert MexicanHatExp(ratio=0.5, gamma1=2.0, gamma2=1.0).classify().verdict == Verdict.NONNEGATIVE_DEFINITE
    assert MexicanHatExp(ratio=0.5 + 1e-9, gamma1=2.0, gamma2=1.0).classify().verdict == Verdict.INDEFINITE


def test_indefinite_witness_has_negative_density():
    for kernel in (
        MexicanHatGauss(amp=0.5, s=3.0),
        MexicanHatGauss(amp=0.3, s=1.2),
        MexicanHatExp(ratio=0.8, gamma1=2.0, gamma2=1.0),
    ):
        res = kernel.classify()
        assert res.verdict == Verdict.INDEFINITE
        assert kernel.fourier_density(res.witness) < 0.0


def test_bochner_wizard_hat_example():
    res = bochner_numeric_check(WizardHat(), xi_max=20.0, n_xi=2000, tol=1e-8)
    assert res.verdict == Verdict.NONNEGATIVE_DEFINITE


def test_bochner_zero_kernel():
    res = bochner_numeric_check(Zero())
    assert res.verdict == Verdict.NONNEGATIVE_DEFINITE


def test_bochner_witness_near_density_minimum():
    kernel = MexicanHatGauss(amp=0.5, s=3.0)
    res = bochner_numeric_check(kernel, xi_max=10.0)
    assert res.verdict == Verdict.INDEFINITE
    xi = np.linspace(0.0, 10.0, 20001)
    argmin = xi[np.argmin(kernel.fourier_density(xi))]
    assert abs(res.witness - argmin) < 0.05


def test_bochner_strict_sweep_matches_analytic_on_box():
    # strict sign sweep (tol = 0): verdicts agree with the closed-form
    # threshold away from a 1e-3 parameter band
    for amp in np.linspace(0.0475, 0.95, 6):
        for s in np.linspace(1.15, 4.0, 6):
            if abs(s - SQRT2) < 1e-3 or abs(s - SQRT2 / amp) < 1e-3:
                continue
            kernel = MexicanHatGauss(amp=float(amp), s=float(s))
            numeric = bochner_numeric_check(kernel, xi_max=sweep_xi_max(kernel), tol=0.0)
            assert numeric.verdict == kernel.classify().verdict, (amp, s)
    for ratio in np.linspace(0.0475, 0.95, 6):
        for g2 in np.linspace(0.095, 1.9, 6):
            if abs(ratio - g2 / 2.0) < 1e-3:
                continue
            kernel = MexicanHatExp(ratio=float(ratio), gamma1=2.0, gamma2=float(g2))
            numeric = bochner_numeric_check(kernel, xi_max=sweep_xi_max(kernel), tol=0.0)
            assert numeric.verdict == kernel.classify().verdict, (ratio, g2)


def test_bochner_fixed_tolerance_blind_spots():
    # Just below s = sqrt(2) the density dip decays faster than exponentially
    # in the distance to the threshold, so any fixed positive tolerance has
    # blind spots. Document the two on the standard sweep box: the strict
    # sweep still finds the sign change, tol = 1e-8 does not.
    for amp in (0.0475, 0.095):
        kernel = MexicanHatGauss(amp=amp, s=1.3)
        assert kernel.classify().verdict == Verdict.INDEFINITE
        strict = bochner_numeric_check(kernel, xi_max=sweep_xi_max(kernel), tol=0.0)
        assert strict.verdict == Verdict.INDEFINITE
        loose = bochner_numeric_check(kernel, xi_max=sweep_xi_max(kernel), tol=1e-8)
        assert loose.verdict == Verdict.NONNEGATIVE_DEFINITE


def test_bochner_check_refuses_atomic_spectrum():
    # no density to sweep: the check cannot decide, so it refuses
    for kernel in ATOMIC_KERNELS:
        with pytest.raises(AtomicSpectrumError):
            bochner_numeric_check(kernel)


def test_gram_cosine_two_points():
    kernel = CosineSum(weights=(1.0,), freqs=(1.0,))
    assert abs(gram_min_eigenvalue(kernel, [0.0, math.pi])) < 1e-12


def test_gram_single_point():
    assert gram_min_eigenvalue(Gaussian(width=0.5), [1.7]) == 1.0
    assert gram_min_eigenvalue(WizardHat(), [-2.0]) == 0.25


def test_gram_gaussian_random_points():
    rng = np.random.default_rng(14)
    pts = rng.uniform(-5.0, 5.0, size=50)
    assert gram_min_eigenvalue(Gaussian(width=1.0), pts) >= -1e-10


def test_gram_nn_families_random_points():
    rng = np.random.default_rng(15)
    for kernel in NN_KERNELS:
        pts = rng.uniform(-5.0, 5.0, size=40)
        G = kernel.evaluate(pts[:, None] - pts[None, :])
        scale = np.abs(G).max()
        if scale == 0.0:
            continue
        assert gram_min_eigenvalue(kernel, pts) >= -1e-8 * scale, type(kernel).__name__


def test_gram_empty_point_set():
    with pytest.raises(EmptyPointSetError):
        gram_min_eigenvalue(Gaussian(), [])


def test_scale_multiplies_kernel_and_density():
    base = Gaussian(width=0.9)
    scaled = Gaussian(width=0.9, scale=3.5)
    x = np.array([0.0, 0.4, 1.3])
    assert np.allclose(scaled.evaluate(x), 3.5 * base.evaluate(x), rtol=1e-15)
    assert np.allclose(
        scaled.fourier_density(x), 3.5 * base.fourier_density(x), rtol=1e-15
    )


def test_parameter_validation():
    with pytest.raises(RangeError):
        Gaussian(width=0.0)
    with pytest.raises(RangeError):
        Exponential(rate=-1.0)
    with pytest.raises(RangeError):
        CauchyExp(m=-0.1)
    with pytest.raises(RangeError):
        MexicanHatGauss(amp=0.0, s=2.0)
    with pytest.raises(RangeError):
        MexicanHatGauss(amp=1.0, s=2.0)
    with pytest.raises(RangeError):
        MexicanHatGauss(amp=0.5, s=1.0)
    with pytest.raises(RangeError):
        MexicanHatExp(ratio=0.5, gamma1=1.0, gamma2=2.0)
    with pytest.raises(RangeError):
        CosineSum(weights=(1.0, -0.5), freqs=(1.0, 2.0))
    with pytest.raises(RangeError):
        CosineSum(weights=(1.0, 0.5), freqs=(1.0, -1.0))
    with pytest.raises(DimensionMismatchError):
        CosineSum(weights=(1.0,), freqs=(1.0, 2.0))


@pytest.mark.parametrize("make", [
    lambda: Laplace(m=-1.0),
    lambda: CosineSum(weights=(), freqs=()),
    lambda: CosineSum(freqs=(np.inf,)),
    lambda: CosineSum(freqs=(np.nan,)),
    lambda: MexicanHatExp(ratio=1.5),
])
def test_out_of_range_parameters_are_refused(make):
    with pytest.raises(RangeError):
        make()
