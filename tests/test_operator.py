import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg

from amariflow import operator
from amariflow import (
    CosineSum,
    Field,
    Gaussian,
    Grid,
    MexicanHatGauss,
    Zero,
    apply_operator,
    build_operator_matrix,
    check_assumption5,
    default_config,
    inner_h,
    inner_hminus1,
    norm_h,
    norm_hminus1,
    norm_hplus1,
    preset_fig1,
    project_S,
    spectral_decompose,
    write_spectrum_csv,
)
from amariflow.config import build_grid, build_kernel
from amariflow.errors import (
    DimensionMismatchError,
    GridMismatchError,
    InvalidDomainError,
    NonpositiveEigenvalueError,
    NotInSError,
    NotNonnegativeError,
    NumericalError,
    RangeError,
    RankExceededError,
    ValidationError,
)
from amariflow.kernels import FAMILIES
from amariflow.operator import BOUNDARIES, s_residual
from conftest import constant_field, random_field_in_S

CONSTANT_KERNEL = CosineSum(weights=(1.0,), freqs=(0.0,))  # J identically 1


def test_grid_arithmetic():
    g = Grid(0.0, 1.0, 4)
    assert g.h == 0.25
    assert np.allclose(g.nodes, [0.125, 0.375, 0.625, 0.875], rtol=0, atol=1e-16)
    assert Grid(-80.0, 80.0, 1600).h == 0.1


def test_grid_validation():
    with pytest.raises(InvalidDomainError):
        Grid(0.0, 1.0, 0)
    with pytest.raises(InvalidDomainError):
        Grid(1.0, 1.0, 8)
    with pytest.raises(InvalidDomainError):
        Grid(2.0, 1.0, 8)
    with pytest.raises(InvalidDomainError):
        Grid(0.0, 1.0, 8, "free")


def test_grid_needs_an_integer_n():
    with pytest.raises(InvalidDomainError, match="integer"):
        Grid(0.0, 1.0, 2.5)
    with pytest.raises(InvalidDomainError):
        Grid(0.0, 1.0, 4.0)
    assert Field.constant(Grid(0.0, 1.0, np.int64(4)), 1.0).values.size == 4


def test_field_grid_mismatch():
    g = Grid(0.0, 1.0, 4)
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(5))
    other = Grid(0.0, 1.0, 5)
    with pytest.raises(GridMismatchError):
        Field(g, np.ones(4)) + Field(other, np.ones(5))


def test_inner_h_unit_interval():
    g = Grid(0.0, 1.0, 16)
    one = constant_field(g, 1.0)
    two = constant_field(g, 2.0)
    zero = constant_field(g, 0.0)
    assert abs(inner_h(one, one) - 1.0) < 1e-14
    assert inner_h(one, zero) == 0.0
    assert abs(inner_h(two, two) - 4.0) < 1e-14


def test_operator_matrix_constant_kernel():
    g = Grid(0.0, 1.0, 8)
    K = build_operator_matrix(CONSTANT_KERNEL, g)
    assert np.all(K == g.h)
    ones = np.ones(g.n)
    assert np.allclose(K @ ones, 1.0, rtol=0, atol=1e-15)


def test_operator_matrix_diagonal_is_h():
    g = Grid(-4.0, 4.0, 32)
    K = build_operator_matrix(Gaussian(width=0.3), g)
    assert np.allclose(np.diag(K), g.h, rtol=0, atol=0)
    assert np.array_equal(K, K.T)


def test_operator_matrix_flushes_subnormals():
    # the far tail of a narrow gaussian on a wide grid underflows into the
    # subnormal range; those entries are stored as exact zeros
    g = Grid(-20.0, 20.0, 400)
    kernel = Gaussian(width=0.05)
    K = build_operator_matrix(kernel, g)
    m = np.abs(np.subtract.outer(np.arange(g.n), np.arange(g.n)))
    raw = g.h * kernel.evaluate(g.h * m)
    tiny = np.finfo(float).tiny
    assert np.any((raw != 0.0) & (np.abs(raw) < tiny))
    assert not np.any((K != 0.0) & (np.abs(K) < tiny))
    normal = np.abs(raw) >= tiny
    assert np.array_equal(K[normal], raw[normal])
    assert np.array_equal(K, K.T)


def test_apply_operator_zero_kernel():
    g = Grid(-2.0, 2.0, 32)
    rng = np.random.default_rng(0)
    f = Field(g, rng.normal(size=g.n))
    out = apply_operator(Zero(), g, f)
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("boundary", ["truncated", "periodic"])
def test_apply_operator_matches_dense(boundary):
    g = Grid(-4.0, 4.0, 256, boundary)
    # width 0.01: the far tail of the column is subnormal, and flushed
    for kernel in (Gaussian(width=0.5), Gaussian(width=0.01)):
        K = build_operator_matrix(kernel, g)
        rng = np.random.default_rng(1)
        f = Field(g, rng.normal(size=g.n))
        fast = apply_operator(kernel, g, f).values
        dense = K @ f.values
        assert np.max(np.abs(fast - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 127])
def test_periodic_column_is_symmetric(n):
    # O(n): entry m of K's first column equals entry n - m, bitwise
    col = operator._column(Gaussian(width=0.3), Grid(-4.0, 4.0, n, "periodic"))
    assert np.array_equal(col[1:], col[:0:-1])


def test_periodic_matrix_is_circulant():
    g = Grid(-4.0, 4.0, 16, "periodic")
    K = build_operator_matrix(Gaussian(width=0.3), g)
    for i in range(1, g.n):
        assert np.allclose(K[i], np.roll(K[0], i), rtol=0, atol=0)


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(1, 300),
    a=st.floats(-50.0, 50.0),
    length=st.floats(0.01, 100.0),
    boundary=st.sampled_from(BOUNDARIES),
)
def test_built_operator_is_symmetric_and_periodic_one_exactly_circulant(
    family, n, a, length, boundary
):
    # spectral_decompose takes its closed form only for an exact circulant
    grid = Grid(a, a + length, n, boundary)
    K = build_operator_matrix(FAMILIES[family](), grid)
    assert np.array_equal(K, K.T)
    if boundary == "periodic":
        assert operator._is_circulant(K)


@pytest.mark.parametrize("n", [1, 2, 3, 2048])
@pytest.mark.parametrize("family", ["gaussian", "exponential", "sinc", "mexican_hat_gauss"])
def test_periodic_operator_is_a_read_only_circulant_view(family, n):
    kernel = FAMILIES[family]()
    grid = Grid(-10.0, 10.0, n, "periodic")
    K = build_operator_matrix(kernel, grid)
    assert np.array_equal(K, linalg.circulant(operator._column(kernel, grid)))
    assert not K.flags.writeable
    with pytest.raises(ValueError):
        K[0, 0] = 1.0


def test_periodic_operator_assembles_in_linear_memory():
    # the dense circulant would be 33.6 MB
    grid = Grid(-10.0, 10.0, 2048, "periodic")
    tracemalloc.start()
    try:
        build_operator_matrix(Gaussian(width=0.5), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6, peak


@pytest.mark.parametrize("n", [127, 128, 2048])
@pytest.mark.parametrize(
    "family", ["gaussian", "exponential", "sinc", "cosine_sum", "mexican_hat_gauss"]
)
def test_periodic_view_decomposes_as_its_dense_copy(family, n):
    # the view takes the closed form; its dense copy is centrosymmetric, not
    # a circulant layout, so it takes the even/odd split; both must agree,
    # or both refuse
    grid = Grid(-10.0, 10.0, n, "periodic")
    K = build_operator_matrix(FAMILIES[family](), grid)
    with no_eigh():
        view = decompose_or_refuse(spectral_decompose, K, grid)
    eigh = operator.linalg.eigh
    with mock.patch.object(operator.linalg, "eigh", side_effect=eigh) as spy:
        copy = decompose_or_refuse(spectral_decompose, K.copy(), grid)
    assert [c.args[0].shape for c in spy.call_args_list] == [((n + 1) // 2,) * 2, (n // 2,) * 2]
    assert (view is None) == (copy is None)
    if view is None:
        return
    lam_max = view.lambdas[0]
    assert copy.rank == view.rank
    assert np.max(np.abs(copy.lambdas - view.lambdas)) <= 1e-12 * lam_max
    assert abs(copy.threshold - view.threshold) <= 1e-12 * lam_max
    assert abs(copy.discarded_max - view.discarded_max) <= 1e-12 * lam_max
    floor = view.discarded_max if view.rank < n else -np.inf
    E, F = view.eigenfields, copy.eigenfields
    for idx in separated_eigenspaces(view.lambdas, floor, 1e-4 * lam_max):
        P = grid.h * (E[:, idx] @ E[:, idx].T)
        Q = grid.h * (F[:, idx] @ F[:, idx].T)
        assert np.max(np.abs(P - Q)) <= 1e-8


def test_spectral_decomposition_properties(gauss_setup):
    kernel, grid, dec = gauss_setup
    assert dec.rank >= 8
    assert np.all(np.diff(dec.lambdas) <= 0.0)
    assert np.all(dec.lambdas > 0.0)
    # H-orthonormal eigenfields
    E = dec.eigenfields
    gram = grid.h * E.T @ E
    assert np.max(np.abs(gram - np.eye(dec.rank))) < 1e-10
    # eigenfield relation K e_i = lambda_i e_i
    K = build_operator_matrix(kernel, grid)
    resid = K @ E - E * dec.lambdas
    assert np.max(np.abs(resid)) < 1e-12


def test_decompose_rejects_sign_indefinite_kernel():
    g = Grid(-10.0, 10.0, 200)
    K = build_operator_matrix(MexicanHatGauss(amp=0.5, s=3.0), g)
    with pytest.raises(NotNonnegativeError):
        spectral_decompose(K, g)


def test_constant_kernel_rank_one():
    g = Grid(0.0, 1.0, 32)
    dec = spectral_decompose(build_operator_matrix(CONSTANT_KERNEL, g), g)
    assert dec.rank == 1
    assert abs(dec.lambdas[0] - 1.0) < 1e-14
    # eigenfield is the constant 1 up to sign normalization
    assert np.allclose(dec.eigenfields[:, 0], 1.0, rtol=0, atol=1e-12)


def test_project_examples(gauss_setup):
    _, grid, dec = gauss_setup
    e1 = Field(grid, dec.eigenfields[:, 0])
    proj, resid = project_S(dec, e1)
    assert resid < 1e-12
    assert np.max(np.abs(proj.values - e1.values)) < 1e-10

    # H-orthogonal complement: eigenvector of the discarded part
    q = _orthogonal_direction(dec, grid)
    projq, residq = project_S(dec, q)
    assert abs(residq - norm_h(q)) < 1e-10
    assert np.max(np.abs(projq.values)) < 1e-10

    mixed = Field(grid, e1.values + q.values)
    _, residm = project_S(dec, mixed)
    assert abs(residm - norm_h(q)) < 1e-10


def test_s_residual_is_relative(gauss_setup):
    _, grid, dec = gauss_setup
    e1 = Field(grid, dec.eigenfields[:, 0])
    q = _orthogonal_direction(dec, grid)
    c, rel = s_residual(dec, Field(grid, 3.0 * e1.values + 4.0 * q.values))
    assert abs(rel - 0.8) < 1e-10
    assert np.allclose(c, 3.0 * np.eye(dec.rank)[0], rtol=0, atol=1e-10)
    assert s_residual(dec, e1)[1] < 1e-12
    assert s_residual(dec, constant_field(grid, 0.0))[1] == 0.0


def _orthogonal_direction(dec, grid):
    """A unit-H-norm field H-orthogonal to every retained eigenfield."""
    rng = np.random.default_rng(99)
    v = rng.normal(size=grid.n)
    E = dec.eigenfields
    v = v - E @ (grid.h * (E.T @ v))
    v = v - E @ (grid.h * (E.T @ v))
    f = Field(grid, v)
    return Field(grid, v / norm_h(f))


def test_hminus1_norm_on_eigenfields(gauss_setup):
    _, grid, dec = gauss_setup
    for i in (0, 3, 10):
        e = Field(grid, dec.eigenfields[:, i])
        lam = dec.lambdas[i]
        assert abs(norm_hminus1(dec, e) - lam ** (-0.5)) < 1e-10
        scaled = Field(grid, np.sqrt(lam) * dec.eigenfields[:, i])
        assert abs(norm_hminus1(dec, scaled) - 1.0) < 1e-10


def test_truncate_is_a_view_of_the_leading_modes(gauss_setup):
    _, _, dec = gauss_setup
    N = 5
    t = dec.truncate(N)
    assert t.rank == N
    assert np.shares_memory(t.lambdas, dec.lambdas)
    assert np.shares_memory(t.eigenfields, dec.eigenfields)
    assert np.array_equal(t.eigenfields, dec.eigenfields[:, :N])
    assert t.discarded_max == dec.lambdas[N]
    assert t.grid == dec.grid and t.threshold == dec.threshold
    assert dec.truncate(dec.rank) is dec
    with pytest.raises(RangeError, match="need n_modes >= 1, got 0"):
        dec.truncate(0)
    too_many = f"{dec.rank + 1} modes requested, {dec.rank} retained"
    with pytest.raises(RankExceededError, match=too_many):
        dec.truncate(dec.rank + 1)


def test_hminus1_sq_per_row(gauss_setup):
    # ||c||_-1^2 of a 2-d c is one value per row, each that row's own sum
    _, _, dec = gauss_setup
    c = np.random.default_rng(4).normal(size=(3, dec.rank)) * np.sqrt(dec.lambdas)
    rows = dec.hminus1_sq(c)
    assert rows.shape == (3,)
    for row, value in zip(c, rows):
        assert value == dec.hminus1_sq(row)
        assert value == pytest.approx(norm_hminus1(dec, dec.reconstruct(row)) ** 2, rel=1e-9)


def test_hminus1_rejects_outside_subspace(gauss_setup):
    _, grid, dec = gauss_setup
    e1 = Field(grid, dec.eigenfields[:, 0])
    q = _orthogonal_direction(dec, grid)
    # 10 percent of the H norm sits outside the retained span
    g = Field(grid, e1.values + 0.1 * norm_h(e1) * q.values)
    with pytest.raises(NotInSError):
        norm_hminus1(dec, g)


def test_hplus1_norm(gauss_setup):
    _, grid, dec = gauss_setup
    for i in (0, 5):
        e = Field(grid, dec.eigenfields[:, i])
        assert abs(norm_hplus1(dec, e) - np.sqrt(dec.lambdas[i])) < 1e-10
    q = _orthogonal_direction(dec, grid)
    assert norm_hplus1(dec, q) < 1e-10
    assert norm_hplus1(dec, constant_field(grid, 0.0)) == 0.0


def test_operator_bound_on_random_subspace_fields(gauss_setup):
    # |g|_H <= sqrt(lambda_1) |g|_-1 for g in the retained span
    _, grid, dec = gauss_setup
    rng = np.random.default_rng(21)
    bound = np.sqrt(dec.lambdas[0])
    for _ in range(25):
        g = random_field_in_S(dec, rng)
        assert norm_h(g) <= bound * norm_hminus1(dec, g) * (1.0 + 1e-12)


def test_inner_hminus1_polarization(gauss_setup):
    _, grid, dec = gauss_setup
    rng = np.random.default_rng(22)
    f = random_field_in_S(dec, rng)
    g = random_field_in_S(dec, rng)
    lhs = inner_hminus1(dec, f, g)
    rhs = 0.25 * (norm_hminus1(dec, f + g) ** 2 - norm_hminus1(dec, f - g) ** 2)
    assert abs(lhs - rhs) < 1e-8 * max(abs(lhs), 1.0)


def test_reconstruct_coeff_roundtrip(gauss_setup):
    _, grid, dec = gauss_setup
    rng = np.random.default_rng(23)
    c = rng.normal(size=dec.rank)
    u = dec.reconstruct(c)
    back = dec.coeffs(u)
    assert np.max(np.abs(back - c)) < 1e-10
    with pytest.raises(RankExceededError):
        dec.reconstruct(np.ones(dec.rank + 1))
    with pytest.raises(RangeError):
        dec.reconstruct(np.ones(0))  # the cut to the leading modes needs one


def test_check_assumption5(gauss_setup):
    _, _, dec = gauss_setup
    lam = dec.lambdas
    sums, growth = check_assumption5(lam, lam)
    assert np.allclose(sums, np.cumsum(lam), rtol=1e-14)
    assert not growth  # terms are the decaying lambdas themselves
    sums, growth = check_assumption5(lam, np.sqrt(lam))
    assert np.allclose(sums, np.arange(1, lam.size + 1), rtol=1e-12)
    assert growth  # constant terms, sum grows linearly with the mode count
    sums, _ = check_assumption5(lam, np.zeros_like(lam))
    assert np.all(sums == 0.0)
    with pytest.raises(NonpositiveEigenvalueError):
        check_assumption5(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    # the shorter array sets the number of terms; it needs one at least
    sums, _ = check_assumption5(lam, lam[:3])
    assert sums.size == 3
    with pytest.raises(RangeError):
        check_assumption5(lam, lam[:0])


def test_decompose_is_deterministic(gauss_setup):
    kernel, grid, dec = gauss_setup
    again = spectral_decompose(build_operator_matrix(kernel, grid), grid)
    assert np.array_equal(dec.lambdas, again.lambdas)
    assert np.array_equal(dec.eigenfields, again.eigenfields)


def test_spectrum_csv_roundtrip(gauss_setup, tmp_path):
    _, _, dec = gauss_setup
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(dec, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,lambda"
    assert len(lines) == dec.rank + 1
    values = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.array_equal(values, dec.lambdas)


# -- closed-form spectrum on periodic grids ----------------------------------------

def eigh_decompose(K, grid):
    """spectral_decompose on its one full eigh, whatever K is."""
    with mock.patch.object(operator, "_is_circulant", lambda K: False), \
            mock.patch.object(operator, "_is_centrosymmetric", lambda K: False):
        return spectral_decompose(K, grid)


def no_eigh():
    return mock.patch.object(operator.linalg, "eigh", side_effect=AssertionError("eigh called"))


def separated_eigenspaces(lam, floor, min_gap):
    """Index sets of the runs of eigenvalues (descending) closer than
    min_gap, keeping only runs that min_gap also parts from floor, the
    largest eigenvalue left out."""
    spaces = np.split(np.arange(lam.size), np.flatnonzero(np.diff(lam) < -min_gap) + 1)
    if lam[-1] - floor < min_gap:
        spaces.pop()
    return spaces


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 160),
    length=st.floats(2.0, 20.0),
    width=st.floats(0.01, 2.0),
)
def test_periodic_closed_form_matches_eigh(n, length, width):
    grid = Grid(-length / 2.0, length / 2.0, n, "periodic")
    K = build_operator_matrix(Gaussian(width=width), grid)
    with mock.patch.object(operator.linalg, "eigh", side_effect=operator.linalg.eigh) as spy:
        try:
            ref = eigh_decompose(K, grid)
        except NotNonnegativeError:
            ref = None
    # else the closed form would be compared with itself
    assert spy.call_count == 1
    if ref is None:
        # the wrapped kernel has a kink at L/2 that can make K indefinite
        with no_eigh(), pytest.raises(NotNonnegativeError):
            spectral_decompose(K, grid)
        return
    with no_eigh():
        dec = spectral_decompose(K, grid)
    lam_max = ref.lambdas[0]
    assert dec.rank == ref.rank
    assert abs(dec.discarded_max - ref.discarded_max) <= 1e-12 * lam_max
    assert np.max(np.abs(dec.lambdas - ref.lambdas)) <= 1e-12 * lam_max
    assert np.all(dec.lambdas > 0.0) and np.all(np.diff(dec.lambdas) <= 0.0)
    E = dec.eigenfields
    assert np.max(np.abs(grid.h * (E.T @ E) - np.eye(dec.rank))) <= 1e-12
    # eigh's basis inside a degenerate space is arbitrary: compare projectors
    # on the eigenspaces that a gap of 1e-4 lambda_max sets apart, where
    # eigh's rounding moves them by about 1e-14 / 1e-4
    floor = ref.discarded_max if ref.rank < n else -np.inf
    for idx in separated_eigenspaces(dec.lambdas, floor, 1e-4 * lam_max):
        P = grid.h * (E[:, idx] @ E[:, idx].T)
        Q = grid.h * (ref.eigenfields[:, idx] @ ref.eigenfields[:, idx].T)
        assert np.max(np.abs(P - Q)) <= 1e-8


def test_periodic_decomposition_pairs_cos_and_sin(periodic_setup):
    _, grid, dec = periodic_setup
    assert dec.rank % 2 == 1  # the constant mode, then whole cos/sin pairs
    assert np.array_equal(dec.lambdas[1::2], dec.lambdas[2::2])
    assert np.allclose(dec.eigenfields[:, 0], 1.0 / np.sqrt(grid.length), rtol=0, atol=1e-15)


def test_perturbed_periodic_operator_goes_to_eigh(periodic_setup):
    kernel, grid, _ = periodic_setup
    K = build_operator_matrix(kernel, grid)
    bad = K.copy()
    bad[5, 5] *= 1.0 + 1e-5
    eigh = operator.linalg.eigh
    with mock.patch.object(operator.linalg, "eigh", side_effect=eigh) as spy:
        spectral_decompose(K, grid)
        assert spy.call_count == 0
        dec = spectral_decompose(bad, grid)
        assert spy.call_count == 1
    resid = bad @ dec.eigenfields - dec.eigenfields * dec.lambdas
    assert np.max(np.abs(resid)) <= 1e-12 * dec.lambdas[0]


def test_wide_periodic_decomposition_does_not_call_eigh():
    grid = Grid(-10.0, 10.0, 2048, "periodic")
    K = build_operator_matrix(Gaussian(width=0.5), grid)
    with no_eigh():
        dec = spectral_decompose(K, grid)
    assert 0 < dec.rank < grid.n and 0.0 < dec.discarded_max <= dec.threshold


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 160),
    length=st.floats(2.0, 20.0),
    width=st.floats(0.01, 2.0),
)
def test_truncated_decomposition_is_h_orthonormal(n, length, width):
    grid = Grid(-length / 2.0, length / 2.0, n)
    dec = spectral_decompose(build_operator_matrix(Gaussian(width=width), grid), grid)
    assert dec.rank >= 1
    assert np.all(dec.lambdas > dec.threshold) and np.all(dec.lambdas > 0.0)
    assert np.all(np.diff(dec.lambdas) <= 0.0)
    assert dec.discarded_max <= dec.threshold
    E = dec.eigenfields
    assert np.max(np.abs(grid.h * (E.T @ E) - np.eye(dec.rank))) <= 1e-12


# -- the blocked checks on K ----------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 300),
    kind=st.sampled_from(["symmetric", "circulant", "asymmetric circulant", "general"]),
    perturb=st.booleans(),
    tile=st.sampled_from([operator.TILE, 7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_maxima_equal_dense(n, kind, perturb, tile, seed):
    rng = np.random.default_rng(seed)
    if kind == "symmetric":
        M = rng.normal(size=(n, n))
        K = M + M.T
    elif kind == "circulant":
        c = rng.normal(size=n)
        K = linalg.circulant(c + np.roll(c[::-1], 1))  # symmetric column
    elif kind == "asymmetric circulant":
        K = linalg.circulant(rng.normal(size=n))
        if n >= 3:  # every circulant of order 1 or 2 is symmetric
            with pytest.raises(ValidationError, match="not symmetric"):
                spectral_decompose(K, Grid(0.0, 1.0, n, "periodic"))
    else:
        K = rng.normal(size=(n, n))
    if perturb:
        i, j = rng.integers(n, size=2)
        K[i, j] += rng.choice([1e-13, 1e-6, 1.0]) * rng.normal()
    assert operator._asymmetry(K, tile) == np.abs(K - K.T).max()


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 300),
    periodic=st.booleans(),
    plant=st.sampled_from([None, np.nan, -0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_strided_toeplitz_view_is_judged_as_dense(n, periodic, plant, seed):
    # K[i, j] = base[n - 1 + j - i]; entries in {-1, 0, 1} make chance
    # circulants and zeros that a planted -0.0 can meet
    rng = np.random.default_rng(seed)
    if periodic:
        c = rng.integers(-1, 2, size=n).astype(float)
        base = np.concatenate((c[::-1], c[:0:-1]))
    else:
        base = rng.integers(-1, 2, size=2 * n - 1).astype(float)
    if plant is not None:
        base[rng.integers(base.size)] = plant
    s = base.itemsize
    K = np.lib.stride_tricks.as_strided(base[n - 1 :], (n, n), (-s, s))
    assert operator._is_circulant(K) == np.array_equal(K, linalg.circulant(K[:, 0]))


def test_fourier_vectors_are_bitwise_the_direct_evaluation():
    # every frequency of every n up to 300: 0, both members of each pair,
    # and the Nyquist column of even n
    for n in range(1, 301):
        _, freq, sine = operator._fourier_spectrum(np.zeros(n))
        phase = (2.0 * np.pi / n) * (np.outer(np.arange(n), freq) % n)
        direct = np.where(sine, np.sin(phase), np.cos(phase))
        direct /= np.sqrt(np.where((freq == 0) | (2 * freq == n), n, n / 2.0))
        V = operator._fourier_vectors(freq, sine, n)
        assert V.tobytes() == direct.tobytes(), n


@pytest.mark.parametrize("n, tile", [(23, 7), (40, 7), (9, operator.TILE)])
def test_blocked_maxima_see_every_entry(n, tile):
    # a spike at any one entry sets the asymmetry;
    # n = 23 with tile 7 reads K in blocks of two rows, the last one short
    base = linalg.circulant(np.r_[2.0, np.ones(n - 1)])
    for i, j in np.ndindex(n, n):
        K = base.copy()
        K[i, j] = 10.0
        assert operator._asymmetry(K, tile) == np.abs(K - K.T).max(), (i, j)


@pytest.mark.parametrize("side", [1.01, 0.99])
@pytest.mark.parametrize("boundary", ["truncated", "periodic"])
def test_asymmetry_in_last_partial_tile_flips_at_tolerance(boundary, side):
    n = 2 * operator.TILE + 44
    grid = Grid(-5.0, 5.0, n, boundary)
    K = build_operator_matrix(Gaussian(width=0.5), grid).copy()
    K[n - 1, n - 2] += side * 1e-12 * np.abs(K).max()
    if side > 1.0:
        with pytest.raises(ValidationError, match="not symmetric"):
            spectral_decompose(K, grid)
    else:
        spectral_decompose(K, grid)


@pytest.mark.parametrize("side", [pytest.param(0.0, id="ulp"), 0.99, 1.01])
def test_any_circulant_deviation_in_last_partial_tile_goes_to_eigh(side):
    # a symmetric change of one entry pair, by one ulp of it or by about
    # the 1e-12 * max|K| that the symmetry check allows: K stays symmetric
    # but is no longer circulant
    n = 2 * operator.TILE + 44
    grid = Grid(-5.0, 5.0, n, "periodic")
    K = build_operator_matrix(Gaussian(width=0.5), grid).copy()
    d = max(np.spacing(K[n - 1, n - 2]), side * 1e-12 * np.abs(K).max())
    K[n - 1, n - 2] += d
    K[n - 2, n - 1] += d
    eigh = operator.linalg.eigh
    with mock.patch.object(operator.linalg, "eigh", side_effect=eigh) as spy:
        spectral_decompose(K, grid)
    assert spy.call_count == 1


def test_wide_periodic_decomposition_has_no_dense_temporaries():
    # K is a 16 KB view; a single n x n temporary would be 33.6 MB
    grid = Grid(-10.0, 10.0, 2048, "periodic")
    K = build_operator_matrix(Gaussian(width=0.5), grid)
    tracemalloc.start()
    try:
        spectral_decompose(K, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("boundary", ["truncated", "periodic"])
def test_non_finite_operator_is_refused(boundary, bad):
    grid = Grid(-4.0, 4.0, 64, boundary)
    K = build_operator_matrix(Gaussian(width=0.3), grid).copy()
    K[17, 40] = bad  # off the first column, which the circulant check copies
    with pytest.raises(ValidationError, match="non-finite entries"):
        spectral_decompose(K, grid)


@pytest.mark.parametrize("boundary", ["truncated", "periodic"])
def test_overflowing_spectrum_is_refused(boundary):
    # every entry is finite, the eigenvalue n * 1e308 is not
    grid = Grid(0.0, 1.0, 16, boundary)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite"):
            spectral_decompose(np.full((16, 16), 1e308), grid)


# -- the even/odd split of a truncated K ------------------------------------------

# the mexican hat is sign-indefinite for s < sqrt(2) and s > 2 sqrt(2)
SPLIT_KERNELS = st.one_of(
    st.sampled_from(["gaussian", "exponential", "sinc"]).map(lambda f: FAMILIES[f]()),
    st.floats(1.05, 3.5).map(lambda s: MexicanHatGauss(s=s)),
)


def full_eigh_decompose(K, grid):
    """spectral_decompose on its one n x n eigh, whatever K is."""
    with mock.patch.object(operator, "_is_centrosymmetric", lambda K: False):
        return spectral_decompose(K, grid)


def decompose_or_refuse(decompose, K, grid):
    try:
        return decompose(K, grid)
    except NotNonnegativeError:
        return None


@settings(max_examples=80, deadline=None)
@given(
    kernel=SPLIT_KERNELS,
    n=st.integers(1, 160),
    a=st.floats(-50.0, 50.0),
    length=st.floats(0.5, 60.0),
)
def test_truncated_split_matches_eigh(kernel, n, a, length):
    grid = Grid(a, a + length, n)
    K = build_operator_matrix(kernel, grid)
    assert operator._is_centrosymmetric(K)
    ref = decompose_or_refuse(full_eigh_decompose, K, grid)
    dec = decompose_or_refuse(spectral_decompose, K, grid)
    assert (ref is None) == (dec is None)
    if ref is None:
        return
    assert dec.rank == ref.rank >= 1  # J(0) > 0, so the trace of K is positive
    lam_max = ref.lambdas[0]
    assert np.max(np.abs(dec.lambdas - ref.lambdas)) <= 1e-12 * lam_max
    assert abs(dec.threshold - ref.threshold) <= 1e-12 * lam_max
    assert abs(dec.discarded_max - ref.discarded_max) <= 1e-12 * lam_max
    E = dec.eigenfields
    assert np.max(np.abs(grid.h * (E.T @ E) - np.eye(dec.rank))) <= 1e-12
    floor = ref.discarded_max if ref.rank < n else -np.inf
    for idx in separated_eigenspaces(dec.lambdas, floor, 1e-4 * lam_max):
        P = grid.h * (E[:, idx] @ E[:, idx].T)
        Q = grid.h * (ref.eigenfields[:, idx] @ ref.eigenfields[:, idx].T)
        assert np.max(np.abs(P - Q)) <= 1e-8


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n=st.integers(1, 300),
    a=st.floats(-1e6, 1e6),
    length=st.floats(1e-3, 1e3),
)
def test_truncated_operator_is_exactly_centrosymmetric(family, n, a, length):
    grid = Grid(a, a + length, n)
    K = build_operator_matrix(FAMILIES[family](), grid)
    assert np.array_equal(K, K[::-1, ::-1])
    assert np.array_equal(K, K.T)
    assert np.array_equal(grid.offsets, -grid.offsets[::-1])


@pytest.mark.parametrize("n", [1, 2, 3, 127, 2 * operator.TILE + 1, 2 * operator.TILE + 2])
@pytest.mark.parametrize("family", ["gaussian", "exponential", "sinc", "mexican_hat_gauss"])
def test_truncated_operator_is_h_J_of_h_times_index_distance(family, n):
    kernel = FAMILIES[family]()
    grid = Grid(-3.0, 5.0, n)
    m = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    expected = operator._flush_subnormals(grid.h * kernel.evaluate(grid.h * m))
    assert build_operator_matrix(kernel, grid).tobytes() == expected.tobytes()


def test_truncated_operator_assembles_within_a_megabyte_of_K():
    # J is evaluated on one column, so K itself is the only n x n array
    grid = Grid(-10.0, 10.0, 2048)
    tracemalloc.start()
    try:
        K = build_operator_matrix(Gaussian(width=0.5), grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < K.nbytes + 1e6, peak


@pytest.mark.parametrize("n", [2, 3, 127, 128])
def test_truncated_split_calls_two_half_size_eighs(n):
    grid = Grid(-3.0, 5.0, n)
    K = build_operator_matrix(Gaussian(width=0.7), grid)
    eigh = operator.linalg.eigh
    with mock.patch.object(operator.linalg, "eigh", side_effect=eigh) as spy:
        spectral_decompose(K, grid)
        shapes = [c.args[0].shape for c in spy.call_args_list]
        assert shapes == [((n + 1) // 2,) * 2, (n // 2,) * 2]
        spy.reset_mock()
        # one ulp on the diagonal: still symmetric, no longer centrosymmetric
        bad = K.copy()
        bad[0, 0] = np.nextafter(bad[0, 0], np.inf)
        spectral_decompose(bad, grid)
        assert [c.args[0].shape for c in spy.call_args_list] == [(n, n)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_truncated_split_smallest_grids(n):
    kernel = Gaussian(width=1.0)
    grid = Grid(0.0, 3.0, n)
    K = build_operator_matrix(kernel, grid)
    dec = spectral_decompose(K, grid)
    ref = full_eigh_decompose(K, grid)
    assert dec.rank == ref.rank == n
    assert np.max(np.abs(dec.lambdas - ref.lambdas)) <= 1e-15 * ref.lambdas[0]
    E = dec.eigenfields
    # every eigenfield is even or odd about the centre
    for e in E.T:
        assert np.array_equal(e, e[::-1]) or np.array_equal(e, -e[::-1])
    assert np.max(np.abs(K @ E - E * dec.lambdas)) <= 1e-15 * dec.lambdas[0]
    h, j1, j2 = grid.h, kernel.evaluate(grid.h), kernel.evaluate(2.0 * grid.h)
    if n == 1:
        assert dec.lambdas.tolist() == [h * kernel.evaluate(0.0)]
        assert dec.eigenfields.tolist() == [[1.0 / np.sqrt(h)]]
    elif n == 2:  # the even mode h (J(0) + J(h)), then the odd one
        assert np.allclose(dec.lambdas, [h * (1.0 + j1), h * (1.0 - j1)], rtol=1e-15, atol=0)
        assert E[0, 0] == E[1, 0] > 0.0 and E[0, 1] == -E[1, 1] > 0.0
    else:  # the odd mode [1, 0, -1] / sqrt(2) has eigenvalue h (J(0) - J(2h))
        odd = [i for i, e in enumerate(E.T) if e[1] == 0.0]
        assert len(odd) == 1
        assert abs(dec.lambdas[odd[0]] - h * (1.0 - j2)) <= 1e-15 * dec.lambdas[0]


def assembled_eigenfields(X, Y, cols, h):
    """The split's eigenfields as first assembled at full height, column
    major, then passed through the generic sign pass, the division by
    sqrt(h) and a C-contiguous copy."""
    p, m = X.shape[0], Y.shape[0]
    even = cols < p
    V = np.empty((p + m, cols.size), order="F")
    V[:m, even] = np.sqrt(0.5) * X[:m, cols[even]]
    V[:m, ~even] = np.sqrt(0.5) * Y[:, cols[~even] - p]
    V[p:] = V[:m][::-1]
    V[p:, ~even] *= -1.0
    if p > m:
        V[m] = 0.0
        V[m, even] = X[m, cols[even]]
    if V.size:
        piv = np.argmax(np.abs(V), axis=0)
        signs = np.sign(V[piv, np.arange(V.shape[1])])
        signs[signs == 0.0] = 1.0
        V *= signs
    V /= np.sqrt(h)
    return np.ascontiguousarray(V)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(0, 12),
    odd=st.booleans(),
    h=st.floats(1e-3, 10.0),
    data=st.data(),
)
def test_mirrored_eigenfields_are_the_assembled_ones_bit_for_bit(m, odd, h, data):
    # entries from a few values, zeros and signed ties included, so the
    # sign rule's first largest |entry| is often a tie
    p = m + odd
    values = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.25, -0.75, 0.75, 1.0 / 3.0])
    X = data.draw(arrays(np.float64, (p, p), elements=values))
    Y = data.draw(arrays(np.float64, (m, m), elements=values))
    cols = np.array(data.draw(st.permutations(range(p + m))), dtype=np.intp)
    cols = cols[: data.draw(st.integers(0, p + m))]
    got = operator._mirrored_eigenfields(X, Y, cols, h)
    assert got.flags.c_contiguous
    assert got.tobytes() == assembled_eigenfields(X, Y, cols, h).tobytes()


@pytest.mark.parametrize("n", [1, 2, 127, 128, 400])
def test_split_eigenfields_are_the_assembled_ones_bit_for_bit(n):
    grid = Grid(0.0, 7.0, n)
    K = build_operator_matrix(Gaussian(width=0.3), grid)
    w, order, X, Y = operator._centrosymmetric_eigh(K)
    dec = spectral_decompose(K, grid)
    cols = order[: dec.rank]
    assert dec.eigenfields.tobytes() == assembled_eigenfields(X, Y, cols, grid.h).tobytes()
    assert dec.lambdas.tobytes() == w[: dec.rank].tobytes()


# lambda of the probabilistic rounding bound below, and the smallest n at
# which lambda sqrt(2 n + 5) <= n
ORTHO_LAMBDA = 6.0
ORTHO_MIN_N = 75


@settings(max_examples=60, deadline=None)
@example(kernel=Gaussian(width=0.05, scale=7.978845608028654), n=400, a=-20.0, length=40.0)
@given(
    kernel=SPLIT_KERNELS,
    n=st.integers(ORTHO_MIN_N, 400),
    a=st.floats(-50.0, 50.0),
    length=st.floats(0.5, 60.0),
)
def test_split_eigenfields_are_h_orthonormal_to_n_unit_roundoffs(kernel, n, a, length):
    """max|h E^T E - I| <= n u, u = 2^-53, for the split's eigenfields E.

    An entry of h E^T E - I gathers two kinds of rounding.
    - The solver's: dsyevd returns the eigenvectors X of S and Y of D
      orthonormal to working precision, each entry of X^T X - I the
      rounding of the O(p) transformations that built the two columns
      (Householder back-transformation and the divide-and-conquer merges'
      products), at most p <= n roundings.
    - The product's: sum_k E_ki E_kj has n terms, each term carrying the
      scalings by sqrt(1/2) and 1/sqrt(h) of both factors and the sum's own
      rounding; the product with h adds one more.  Its n + 5 roundings
      give the deterministic gamma_(n+5) ~ (n + 5) u (Higham, *Accuracy
      and Stability of Numerical Algorithms*, 2nd ed., eq. 3.5).
    Mirroring is exact: [x; Jx] / sqrt(2) has the inner products of x.
    The worst case, (2 n + 5) u, is reached only if every rounding has the
    same sign.  Roundings are independent with mean zero, so m of them
    add like a random walk: with probability at least
    1 - 2 exp(-lambda^2 / 2) their sum is at most lambda sqrt(m) u
    (Higham & Mary, *SIAM J. Sci. Comput.* 41, 2019).  With
    m = 2 n + 5 and lambda = 6, an entry fails with probability below
    about 3e-8, and lambda sqrt(2 n + 5) <= n once n >= 75, the grids
    drawn here.
    Below that the fixed roundings dominate: n = 1 already shows 3 u.
    MRRR's eigenvectors (`evr`) were 8.5e-14 from orthonormal on the fig1
    geometry, above its n u = 4.4e-14."""
    grid = Grid(a, a + length, n)
    dec = decompose_or_refuse(spectral_decompose, build_operator_matrix(kernel, grid), grid)
    assume(dec is not None)
    E = dec.eigenfields
    assert np.max(np.abs(grid.h * (E.T @ E) - np.eye(dec.rank))) <= n * UNIT_ROUNDOFF


def test_grid_refuses_a_non_finite_or_zero_cell():
    with pytest.raises(InvalidDomainError, match="length b - a"):
        Grid(-1e308, 1e308, 4)
    with pytest.raises(InvalidDomainError, match="cell width h"):
        Grid(0.0, 5e-324, 4)
    # the centre 0.5 a + 0.5 b of a far interval does not overflow
    g = Grid(1.0e308, 1.7e308, 4)
    assert np.all(np.isfinite(g.nodes)) and g.a < g.nodes[0] < g.nodes[-1] < g.b


def test_symmetric_grid_nodes_are_the_offsets():
    for n in (1, 2, 7, 400):
        g = Grid(-20.0, 20.0, n)
        assert g.nodes.tobytes() == g.offsets.tobytes()


UNIT_ROUNDOFF = 2.0**-53


@settings(max_examples=150, deadline=None)
@given(
    width=st.floats(1e-3, 1.0),
    n=st.integers(1, 600),
    a=st.floats(-50.0, 50.0),
    length=st.floats(10.0, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_product_is_the_dense_product_to_rounding(width, n, a, length, seed):
    """The band product y_b = fl(K_b v), where K_b keeps the diagonals
    |i - j| <= w of K, against the dense y_d = fl(K v), entry by entry.

    With u = 2^-53 and gamma_n = n u / (1 - n u), a computed sum of n
    products is within gamma_n (|K| |v|)_i of the exact one in any order
    of summation (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., eq. 3.11):
        |y_d - K v|     <= gamma_n (|K| |v|)_i,
        |y_b - K_b v|   <= gamma_(2w+1) (|K_b| |v|)_i <= gamma_n (|K| |v|)_i.
    The entries K_b leaves out are each at most u max|K|, and a row holds
    fewer than n of them:
        |K v - K_b v|_i <= n u max|K| max|v|.
    So |y_b - y_d|_i <= n u max|K| max|v| + 2 gamma_n (|K| |v|)_i.  The
    computed |K| |v| has nonnegative terms and is at least (1 - gamma_n)
    times the exact one, hence the division below."""
    grid = Grid(a, a + length, n)
    K = build_operator_matrix(Gaussian(width=width), grid)
    v = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    gamma = n * UNIT_ROUNDOFF / (1.0 - n * UNIT_ROUNDOFF)
    bound = n * UNIT_ROUNDOFF * np.abs(K).max() * np.abs(v).max() + (
        2.0 * gamma * (np.abs(K) @ np.abs(v)) / (1.0 - gamma)
    )
    assert np.all(np.abs(operator._band_matvec(K)(v) - K @ v) <= bound)


def test_band_is_taken_for_narrow_symmetric_K_only():
    fig1, default = preset_fig1(), default_config()
    K = build_operator_matrix(build_kernel(fig1), build_grid(fig1))
    assert operator._band_matvec(K).args[0] == 19
    assert operator._band_matvec(K[:156, :156]).args[0] == 19  # 4 (2w + 1) = 156
    short = K[:155, :155]
    assert operator._band_matvec(short) == short.dot
    K_default = build_operator_matrix(build_kernel(default), build_grid(default))
    assert operator._band_matvec(K_default) == K_default.dot
    K_zero = build_operator_matrix(Zero(), build_grid(default))
    assert operator._band_matvec(K_zero).args[0] == 0
    K[3, 3] = np.nan
    assert operator._band_matvec(K) == K.dot


@pytest.mark.parametrize("plant", [
    {(5, 300): np.inf, (300, 5): np.inf},
    {(5, 6): -np.inf, (6, 5): -np.inf},
    {(7, 7): np.inf},
    {(3, 3): np.nan},
])
def test_band_rule_refuses_a_non_finite_K(plant):
    """An infinite cut keeps no entry, so a non-finite K must not reach
    the band rule: it would take w = 0 and drop every off-diagonal."""
    fig1 = preset_fig1()
    B = build_operator_matrix(build_kernel(fig1), build_grid(fig1))
    for ij, value in plant.items():
        B[ij] = value
    assert operator._band_matvec(B) == B.dot


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 80),
    band=st.integers(0, 12),
    far=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 79),
                           st.sampled_from([-1, 0, 1]), st.booleans()), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=80, band=2, far=[(0, 79, 1, True)], seed=0)  # the far corner
def test_band_width_is_the_farthest_entry_above_the_cut(n, band, far, seed):
    """w against its definition, the largest |i - j| over the entries with
    |K_ij| > 2^-53 max|K|, on symmetric K with random bands and far pairs
    one ulp below, at, or one ulp above the cut."""
    w = min(band, n - 1)
    A = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    i, j = np.indices((n, n))
    A[np.abs(i - j) > w] = 0.0
    K = A + A.T
    cut = UNIT_ROUNDOFF * np.abs(K).max()
    for p, q, ulps, negative in far:
        p, q = p % n, q % n
        if abs(p - q) > w:
            value = {-1: np.nextafter(cut, 0.0), 0: cut, 1: np.nextafter(cut, np.inf)}[ulps]
            K[p, q] = K[q, p] = -value if negative else value
    cut = UNIT_ROUNDOFF * np.abs(K).max()
    rows, cols = np.nonzero(np.abs(K) > cut)
    w_ref = int(np.abs(rows - cols).max(initial=0))
    matvec = operator._band_matvec(K)
    if matvec == K.dot:
        assert operator.BAND_RATIO * (2 * w_ref + 1) > n
    else:
        assert matvec.args[0] == w_ref


def test_operator_refusals_on_another_grid_or_shape(gauss_setup):
    kernel, grid, dec = gauss_setup
    other = constant_field(Grid(-4.0, 4.0, grid.n + 1), 1.0)
    with pytest.raises(GridMismatchError):
        apply_operator(kernel, grid, other)
    with pytest.raises(GridMismatchError):
        dec.coeffs(other)
    with pytest.raises(DimensionMismatchError):
        dec.reconstruct(np.zeros((2, dec.rank)))
    with pytest.raises(GridMismatchError):
        spectral_decompose(np.eye(grid.n + 1), grid)


def test_field_scales_from_either_side():
    f = Field(Grid(0.0, 1.0, 4), np.array([1.0, -2.0, 0.5, 0.0]))
    for g in (f * 3, 3 * f):
        assert g.grid == f.grid
        assert np.array_equal(g.values, [3.0, -6.0, 1.5, 0.0])
