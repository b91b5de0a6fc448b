"""Midpoint discretization of the convolution operator and its spectrum.

The operator (K g)(x) = integral J(x - y) g(y) dy on a bounded interval is
discretized on the midpoint nodes of [a, b], h = (b - a)/n apart.  K is
fixed by one column: with m = |i - j|, K_ij = h * J(h * m) on a truncated
grid and h * J(h * min(m, n - m)) on a periodic one.  A truncated K is thus
symmetric Toeplitz, a periodic K a symmetric circulant: its eigenvalues are
the real DFT of its column, its eigenvectors cos/sin pairs, and K g is a
circular convolution.  Either K is centrosymmetric, K == K[::-1, ::-1]
exactly: its eigenvectors are even or odd about the centre and come from
two eigenproblems of half the size.  `spectral_decompose` chooses between
these from K alone.

The discrete H inner product is <f, g> = h * sum f_j g_j.  Eigenvectors of K
are rescaled by h^(-1/2) so the eigenfields are H-orthonormal; everything
downstream (mode coefficients, H_-1 and H_1 norms, Galerkin dynamics) is
expressed in that basis.  S denotes the span of the retained eigenfields,
i.e. the numerically resolved range of K.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy import linalg

from .errors import (
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
from .kernels import Kernel

DEFAULT_REL_TOL = 1e-10
DEFAULT_NEG_TOL = 1e-8
# g is in S when ||g - Pi_S g||_H <= MEMBERSHIP_TOL * ||g||_H.
MEMBERSHIP_TOL = 1e-6

BOUNDARIES = ("truncated", "periodic")


@dataclass(frozen=True)
class Grid:
    """Uniform midpoint grid on [a, b] with n cells of width h = (b - a)/n.

    InvalidDomainError unless a < b are finite, n >= 1 is an integer, and
    both b - a and h are positive finite doubles."""

    a: float
    b: float
    n: int
    boundary: str = "truncated"

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise InvalidDomainError(f"need a < b, got [{self.a!r}, {self.b!r}]")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise InvalidDomainError(f"need an integer n >= 1, got {self.n!r}")
        if self.boundary not in BOUNDARIES:
            raise InvalidDomainError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )
        for name, v in (("length b - a", self.length), ("cell width h", self.h)):
            if not (np.isfinite(v) and v > 0.0):
                raise InvalidDomainError(
                    f"{name} of [{self.a!r}, {self.b!r}] with n = {self.n} is {v!r}, "
                    "not a positive finite double"
                )

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def length(self) -> float:
        return self.b - self.a

    @cached_property
    def offsets(self) -> np.ndarray:
        """Node positions relative to the centre, (j - (n - 1)/2) h: exactly
        antisymmetric, offsets[n - 1 - j] == -offsets[j]."""
        return (np.arange(self.n) - 0.5 * (self.n - 1)) * self.h

    @cached_property
    def nodes(self) -> np.ndarray:
        # halves first, so the centre of a wide interval cannot overflow
        return (0.5 * self.a + 0.5 * self.b) + self.offsets


@dataclass(frozen=True, eq=False)
class Field:
    """Grid function carrying its grid; arithmetic checks grid identity."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid n = {self.grid.n}"
            )
        object.__setattr__(self, "values", v)

    @classmethod
    def constant(cls, grid: Grid, c: float) -> "Field":
        return cls(grid, np.full(grid.n, float(c)))

    def _check_same_grid(self, other: "Field"):
        if self.grid != other.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        self._check_same_grid(other)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "Field":
        return Field(self.grid, self.values * float(c))

    __rmul__ = __mul__


def inner_h(f: Field, g: Field) -> float:
    f._check_same_grid(g)
    return float(f.grid.h * np.dot(f.values, g.values))


def norm_h(f: Field) -> float:
    return float(np.sqrt(f.grid.h) * np.linalg.norm(f.values))


def _flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Set subnormal entries (far tails of fast-decaying kernels) to zero:
    their products underflow in any matvec anyway, but subnormal operands
    slow every BLAS product several-fold."""
    a[np.abs(a) < np.finfo(float).tiny] = 0.0
    return a


def _column(kernel: Kernel, grid: Grid) -> np.ndarray:
    """First column of K, h * J(h * m), with m = min(m, n - m) on a periodic
    grid (so entry m equals entry n - m by construction) and subnormal
    entries flushed to zero."""
    m = np.arange(grid.n)
    if grid.boundary == "periodic":
        m = np.minimum(m, grid.n - m)
    return _flush_subnormals(grid.h * kernel.evaluate(grid.h * m))


# the edge of `_asymmetry`'s tiles: 128 KB of float64, so a tile and its
# transposed partner sit in L2
TILE = 128

# `_band_matvec` takes the band when BAND_RATIO * (2w + 1) <= n.  Median of
# 15 interleaved timings, one BLAS thread, random symmetric K of
# half-bandwidth w on a 2-core x86-64 host; the rule's choice in brackets:
#
#   n, w       dense K.dot   dsbmv
#   128, 10        1.9 us      2.6 us   (band)
#   128, 19        2.4 us      2.4 us   (dense)
#   128, 31        1.8 us      3.1 us   (dense)
#   400, 19       22.0 us      6.2 us   (band)
#   400, 49       15.9 us      8.0 us   (band)
#   400, 50       16.0 us      8.6 us   (dense)
#   400, 100      15.5 us     11.7 us   (dense)
#   2048, 100    1237 us      69 us     (band)
#   2048, 255    1231 us     181 us     (band)
#   2048, 620    1237 us     418 us     (dense)
#
# A band entry costs up to about twice a dense entry in cache, and a call
# about 2 us: the factor 4 takes the band where it wins by a margin and
# loses at most 0.7 us where it does not.  It keeps the dense product for
# a wide band at large n, where dsbmv would still win; the truncated FFT
# (`_fft_matvec`) is faster than either there.
BAND_RATIO = 4


def build_operator_matrix(kernel: Kernel, grid: Grid) -> np.ndarray:
    """The n x n matrix K_ij = col[m] of the column col = `_column`, with
    m = |i - j|: h * J(h * m) truncated and h * J(h * min(m, n - m))
    periodic, exactly symmetric and centrosymmetric by construction, with
    subnormal entries flushed to zero.

    On a truncated grid K is a dense, writable array, the Toeplitz matrix
    of col.  On a periodic grid K is a read-only strided view of 2n - 1
    doubles, the circulant of col as `scipy.linalg.circulant` builds it
    before its final copy: bit for bit that circulant in O(n) memory.
    Writing into it raises ValueError (`K.copy()` gives a dense array), and
    `K @ v` runs numpy's slow non-BLAS loop; apply K with `apply_operator`."""
    c = _column(kernel, grid)
    if grid.boundary == "truncated":
        return linalg.toeplitz(c)
    ext = np.concatenate((c[::-1], c[:0:-1]))
    s = ext.itemsize
    return np.lib.stride_tricks.as_strided(
        ext[grid.n - 1 :], (grid.n, grid.n), (-s, s), writeable=False
    )


def _fft_matvec(kernel: Kernel, grid: Grid):
    """The map v -> K v by FFT, O(n log n), with the DFT of K's first column
    taken once here.  On a periodic grid K is circulant and K v a circular
    convolution of size n; on a truncated grid the symmetric Toeplitz K is
    the leading n x n block of the circulant of size 2n with first column
    [col, 0, col[:0:-1]], so K v is the first n entries of that product."""
    col = _column(kernel, grid)
    if grid.boundary == "truncated":
        col = np.concatenate((col, [0.0], col[:0:-1]))
    size, n = col.size, grid.n
    khat = np.fft.rfft(col)
    return lambda v: np.fft.irfft(khat * np.fft.rfft(v, size), size)[:n]


def _band_matvec(K: np.ndarray):
    """The map v -> K v for a dense K: `K.dot`, or one BLAS `dsbmv` on K's
    lower band when K is narrow.  The half-bandwidth w is the largest
    |i - j| with |K_ij| > 2^-53 * max|K|, read one diagonal at a time from
    the far corner inward; the band holds K's diagonals 0..w, and each
    entry left out is at most that cut, so a product moves by at most
    n * 2^-53 * max|K| * max|v|, the size of the dense product's own
    rounding.  The band is taken only when K is finite, `_asymmetry(K)` is
    0 (`dsbmv` reads the lower band alone, so an unsymmetric K must keep
    every entry) and BAND_RATIO * (2w + 1) <= n; a NaN or infinite entry
    keeps `K.dot`."""
    n = K.shape[0]
    scale = max(K.max(), -K.min())
    if not (np.isfinite(scale) and _asymmetry(K) == 0.0):
        return K.dot
    cut = 2.0**-53 * scale
    w = next((d for d in range(n - 1, 0, -1) if np.abs(np.diagonal(K, -d)).max() > cut), 0)
    if BAND_RATIO * (2 * w + 1) > n:
        return K.dot
    band = np.zeros((w + 1, n), order="F")
    for d in range(w + 1):
        band[d, : n - d] = np.diagonal(K, -d)
    return partial(linalg.blas.dsbmv, w, 1.0, band, lower=1)


def apply_operator(kernel: Kernel, grid: Grid, g: Field) -> Field:
    """K g by FFT (`_fft_matvec`) on either boundary; matches the dense
    product to rounding."""
    if g.grid != grid:
        raise GridMismatchError("field grid does not match operator grid")
    return Field(grid, _fft_matvec(kernel, grid)(g.values))


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Retained eigenpairs of the discretized operator.

    lambdas are strictly positive and descending; eigenfields columns are
    H-orthonormal (Euclidean eigenvectors scaled by h^(-1/2)).  threshold is
    the retention cutoff tau, discarded_max the largest eigenvalue left out
    (0.0 when nothing was discarded): it bounds the leakage of applying K
    through the retained modes only.
    """

    grid: Grid
    lambdas: np.ndarray
    eigenfields: np.ndarray
    threshold: float
    discarded_max: float

    @property
    def rank(self) -> int:
        return int(self.lambdas.size)

    def coeffs(self, g: Field) -> np.ndarray:
        """H-inner products <g, e_i> for all retained modes."""
        if g.grid != self.grid:
            raise GridMismatchError("field grid does not match decomposition grid")
        return self.grid.h * (self.eigenfields.T @ g.values)

    def truncate(self, n_modes: int) -> "SpectralDecomposition":
        """The leading n_modes eigenpairs as views of these arrays, not
        copies; discarded_max becomes lambda_(n_modes+1) when modes are cut.
        n_modes == rank returns self, a rank-0 decomposition at 0 included;
        otherwise RangeError unless 1 <= n_modes, RankExceededError unless
        n_modes <= rank."""
        if n_modes == self.rank:
            return self
        if n_modes < 1:
            raise RangeError(f"need n_modes >= 1, got {n_modes}")
        if n_modes > self.rank:
            raise RankExceededError(f"{n_modes} modes requested, {self.rank} retained")
        return SpectralDecomposition(
            self.grid, self.lambdas[:n_modes], self.eigenfields[:, :n_modes],
            self.threshold, float(self.lambdas[n_modes]),
        )

    def hminus1_sq(self, c):
        """||g||_-1^2 = sum_i c_i^2 / lambda_i of the field in S with mode
        coefficients c (the last axis; one value per row of a 2-d c)."""
        return np.sum(c * c / self.lambdas, axis=-1)

    def reconstruct(self, c) -> Field:
        """The field with coefficients c on the leading c.size modes."""
        c = np.asarray(c, dtype=float)
        if c.ndim != 1:
            raise DimensionMismatchError(f"coefficients must be 1-d, got shape {c.shape}")
        return Field(self.grid, self.truncate(c.size).eigenfields @ c)


def _is_circulant(K: np.ndarray) -> bool:
    """Whether K is a circulant in the layout `build_operator_matrix` gives
    every periodic K.  Strides (-itemsize, itemsize) make K Toeplitz, each
    K_ij one base entry shifted by j - i, so it equals circulant(K[:, 0])
    bit for bit exactly when its first row equals its reversed column and
    the column holds no NaN.  An array in any other layout is not taken
    for a circulant."""
    if K.strides != (-K.itemsize, K.itemsize):
        return False
    col = K[:, 0]
    return bool(np.equal(K[0, 1:], col[:0:-1]).all() and not np.isnan(col).any())


def _asymmetry(K: np.ndarray, tile: int = TILE) -> float:
    """max|K - K^T|, pairing each tile (I, L), L >= I, with its transposed
    partner (L, I), so no temporary is larger than one tile.  Each entry's
    |difference| is the dense formula's and a max is exact, so the value
    equals the dense one bitwise."""
    n = K.shape[0]
    scratch = np.empty(tile * tile)
    peaks = []
    for i in range(0, n, tile):
        I = slice(i, min(i + tile, n))
        for l in range(i, n, tile):
            L = slice(l, min(l + tile, n))
            A = K[I, L]
            buf = scratch[: A.size].reshape(A.shape)
            np.subtract(A, K[L, I].T, out=buf)
            peaks.append(np.abs(buf, out=buf).max())
    return float(np.max(peaks))


def _fourier_spectrum(col: np.ndarray):
    """All n eigenvalues of the symmetric circulant with first column col,
    descending, with the frequency k of each and whether it is the sin
    member of its cos/sin pair.  lambda_k = Re rfft(col)_k serves both
    members of a pair (lambda_k = lambda_(n-k)), which the stable sort
    keeps adjacent, cos first."""
    n = col.size
    lam = np.fft.rfft(col).real
    k = np.arange(lam.size)
    freq = np.repeat(k, np.where((k == 0) | (2 * k == n), 1, 2))
    sine = np.r_[False, freq[1:] == freq[:-1]]
    order = np.argsort(-lam[freq], kind="stable")
    return lam[freq][order], freq[order], sine[order]


def _fourier_vectors(freq: np.ndarray, sine: np.ndarray, n: int) -> np.ndarray:
    """Unit Euclidean eigenvectors cos(2 pi k j / n) or sin(2 pi k j / n),
    gathered from one cos and one sin table of the n phases 2 pi m / n at
    m = (j k) % n: O(n + n r) instead of n r calls to cos or sin, and each
    entry the same double as the direct evaluation."""
    phase = (2.0 * np.pi / n) * np.arange(n)
    m = np.multiply.outer(np.arange(n), freq)
    m %= n
    V = np.cos(phase)[m]
    V[:, sine] = np.sin(phase)[m[:, sine]]
    V /= np.sqrt(np.where((freq == 0) | (2 * freq == n), n, n / 2.0))
    return V


def _is_centrosymmetric(K: np.ndarray) -> bool:
    """Whether K == K[::-1, ::-1] entry for entry (a NaN never compares
    equal), from its top ceil(n/2) rows against the bottom ones reversed."""
    p = K.shape[0] - K.shape[0] // 2
    return bool(np.equal(K[:p], K[::-1, ::-1][:p]).all())


def _centrosymmetric_eigh(K: np.ndarray):
    """Eigenvalues (descending) of a symmetric, centrosymmetric K, with the
    order that sorts them and the unit eigenvectors X of S and Y of D, by
    two half-size eighs (Cantoni & Butler 1976).  With m = n // 2,
    p = n - m, J the reversal and C J the columns of K's top rows taken from
    the right, K is orthogonally similar to diag(S, D): S = A + C J acts on
    the even vectors [x; Jx]/sqrt(2) and D = A - C J on the odd ones
    [y; -Jy]/sqrt(2).  For odd n the middle node is its own mirror image:
    S gains the middle row and column, scaled by sqrt(2) off the diagonal,
    and the even vectors carry its entry unscaled, the odd ones zero.  The
    spectra merge by a stable sort, so equal eigenvalues list the even mode
    first; order indexes the columns of [X, Y], each block descending.

    S and D hold half of K's rows each, so the work is a quarter of one
    n x n eigh.  Both are solved by divide and conquer (LAPACK dsyevd,
    Cuppen 1981; Gu & Eisenstat 1995), which computes every eigenvector by
    gemm-rich merges and deflates heavily on a decaying spectrum; its
    workspace adds about 2 p^2 doubles to the blocks.  NumericalError
    if S or D has a non-finite entry: K + K J can overflow where K is
    finite."""
    n = K.shape[0]
    m, p = n // 2, n - n // 2
    CJ = K[:p, ::-1][:, :p]  # CJ_ij = K_(i, n-1-j)
    S = K[:p, :p] + CJ
    if p > m:
        S[m, :m] = np.sqrt(2.0) * K[m, :m]
        S[:m, m] = np.sqrt(2.0) * K[:m, m]
        S[m, m] = K[m, m]
    D = K[:m, :m] - CJ[:m, :m]
    if not (np.isfinite(S).all() and np.isfinite(D).all()):
        raise NumericalError("operator spectrum has non-finite eigenvalues")
    ws, X = linalg.eigh(S, overwrite_a=True, check_finite=False, driver="evd")
    wd, Y = linalg.eigh(D, overwrite_a=True, check_finite=False, driver="evd")
    w = np.concatenate((ws[::-1], wd[::-1]))
    order = np.argsort(-w, kind="stable")
    return w[order], order, X[:, ::-1], Y[:, ::-1]


def _fix_signs(V: np.ndarray) -> None:
    """Make the first largest-magnitude entry of each column of V positive,
    in place: the deterministic sign of an eigenvector."""
    if V.size:
        piv = np.argmax(np.abs(V), axis=0)
        signs = np.sign(V[piv, np.arange(V.shape[1])])
        signs[signs == 0.0] = 1.0
        V *= signs


def _eigenfields(V: np.ndarray, h: float) -> np.ndarray:
    """H-orthonormal eigenfields, C-contiguous, from unit eigenvectors V
    (overwritten): signs fixed by `_fix_signs`, then divided by sqrt(h)."""
    _fix_signs(V)
    V /= np.sqrt(h)
    return np.ascontiguousarray(V)


def _mirrored_eigenfields(X: np.ndarray, Y: np.ndarray, cols: np.ndarray, h: float) -> np.ndarray:
    """`_eigenfields` of the split's columns cols of [X, Y] (the even
    vectors [x; Jx]/sqrt(2), the odd ones [y; -Jy]/sqrt(2)), built in place
    from the top p = X.shape[0] rows: every |entry| of a mirrored column
    appears in its top p rows, the middle one of odd n included, and first
    there, so the sign rule reads the same pivot.  Signs and the division
    by sqrt(h) act on the top rows, then the bottom ones are written as
    their mirror image, negated for odd modes.  A sign flip commutes with
    both exactly, so the result is `_eigenfields` of the assembled n x r
    vectors bit for bit, with |V| taken of the top rows only and no copy."""
    p, m = X.shape[0], Y.shape[0]
    even = cols < p
    V = np.empty((p + m, cols.size))
    top = V[:p]
    top[:m, even] = np.sqrt(0.5) * X[:m, cols[even]]
    top[:m, ~even] = np.sqrt(0.5) * Y[:, cols[~even] - p]
    if p > m:
        top[m] = 0.0
        top[m, even] = X[m, cols[even]]
    _fix_signs(top)
    top /= np.sqrt(h)
    np.multiply(top[:m][::-1], np.where(even, 1.0, -1.0), out=V[p:])
    return V


def spectral_decompose(
    K: np.ndarray,
    grid: Grid,
    rel_tol: float = DEFAULT_REL_TOL,
    neg_tol: float = DEFAULT_NEG_TOL,
) -> SpectralDecomposition:
    """Eigendecompose the discretized operator and retain lambda > tau.

    tau = rel_tol * lambda_max; rel_tol and neg_tol must be finite and
    >= 0 (RangeError).  Raises NotNonnegative if any eigenvalue
    falls below -neg_tol * max|lambda|: the kernel fails nonnegative
    definiteness at this grid's resolution.

    The eigensolver follows from K alone:
    - the circulant view `build_operator_matrix` makes of a periodic K
      (`_is_circulant`) gets the closed form, the eigenvalues the real DFT
      of its column and the retained cos/sin eigenvectors built from one
      table, in O(n log n + n r);
    - any K equal to K[::-1, ::-1] entry for entry, every truncated K
      included, is split into its even and odd blocks
      (`_centrosymmetric_eigh`): two eighs of order ceil(n/2) and floor(n/2);
    - any other K goes to one eigh.
    ValidationError if K has a non-finite entry, or if max|K - K^T| exceeds
    1e-12 * max|K|.  NumericalError if an eigenvalue, or an entry of the
    split's blocks, comes out non-finite (overflow of a finite K).
    """
    K = np.asarray(K, dtype=float)
    if K.shape != (grid.n, grid.n):
        raise GridMismatchError(f"operator shape {K.shape} does not match n = {grid.n}")
    if not all(np.isfinite(t) and t >= 0.0 for t in (rel_tol, neg_tol)):
        raise RangeError(f"need finite rel_tol, neg_tol >= 0, got {rel_tol!r}, {neg_tol!r}")
    closed_form = _is_circulant(K)
    col = K[:, 0]
    scale = np.abs(col).max() if closed_form else max(K.max(), -K.min())
    if not np.isfinite(scale):
        raise ValidationError("operator matrix has non-finite entries")
    if closed_form:  # each K_ij - K_ji is one of col[m] - col[-m % n]
        asymmetry = np.abs(col - col[-np.arange(grid.n) % grid.n]).max()
    else:
        asymmetry = _asymmetry(K)
    if scale > 0.0 and asymmetry > 1e-12 * scale:
        raise ValidationError("operator matrix is not symmetric")
    if closed_form:
        w, freq, sine = _fourier_spectrum(col)
        eigenfields = lambda keep: _eigenfields(
            _fourier_vectors(freq[keep], sine[keep], grid.n), grid.h
        )
    elif _is_centrosymmetric(K):
        w, order, X, Y = _centrosymmetric_eigh(K)
        eigenfields = lambda keep: _mirrored_eigenfields(X, Y, order[keep], grid.h)
    else:
        # the finite scale above already proves every entry finite
        w, V = linalg.eigh(K, check_finite=False, driver="evd")
        w, V = w[::-1], V[:, ::-1]
        eigenfields = lambda keep: _eigenfields(V[:, keep], grid.h)
    if not np.isfinite(w).all():
        raise NumericalError("operator spectrum has non-finite eigenvalues")
    lam_abs_max = float(np.abs(w).max())
    if float(w[-1]) < -neg_tol * lam_abs_max:
        raise NotNonnegativeError(
            f"eigenvalue {w[-1]:.6e} below -neg_tol * max|lambda| = "
            f"{-neg_tol * lam_abs_max:.6e}"
        )
    tau = rel_tol * max(float(w[0]), 0.0)
    keep = w > tau
    discarded = w[~keep]
    discarded_max = float(discarded.max()) if discarded.size else 0.0
    return SpectralDecomposition(
        grid=grid,
        lambdas=w[keep],
        eigenfields=eigenfields(keep),
        threshold=tau,
        discarded_max=discarded_max,
    )


def s_residual(dec: SpectralDecomposition, g: Field) -> tuple[np.ndarray, float]:
    """Mode coefficients of g and the H-relative norm of its part outside S,
    ||g - Pi_S g||_H / ||g||_H (0 for g = 0), from the explicit difference."""
    c = dec.coeffs(g)
    resid = np.linalg.norm(g.values - dec.eigenfields @ c)
    return c, float(resid / max(np.linalg.norm(g.values), np.finfo(float).tiny))


def project_S(dec: SpectralDecomposition, g: Field) -> tuple[Field, float]:
    """H-orthogonal projection onto S and the H-norm of the residual."""
    c, rel = s_residual(dec, g)
    return dec.reconstruct(c), rel * norm_h(g)


def _coeffs_in_S(dec, g: Field) -> np.ndarray:
    c, rel = s_residual(dec, g)
    if rel > MEMBERSHIP_TOL:
        raise NotInSError(
            f"field has H-relative residual {rel:.3e} outside S (tol {MEMBERSHIP_TOL:.1e})"
        )
    return c


def norm_hminus1(dec: SpectralDecomposition, g: Field) -> float:
    """Nonlocal norm ||K^(-1/2) g||_H; requires g in S (H-relative residual
    at most MEMBERSHIP_TOL)."""
    return float(np.sqrt(dec.hminus1_sq(_coeffs_in_S(dec, g))))


def inner_hminus1(dec: SpectralDecomposition, f: Field, g: Field) -> float:
    """Nonlocal inner product <K^(-1/2) f, K^(-1/2) g>_H; requires f and g
    in S."""
    cf = _coeffs_in_S(dec, f)
    cg = _coeffs_in_S(dec, g)
    return float(np.sum(cf * cg / dec.lambdas))


def norm_hplus1(dec: SpectralDecomposition, g: Field) -> float:
    """Smoothed norm ||K^(1/2) g||_H; the null component contributes zero,
    so no membership requirement."""
    c = dec.coeffs(g)
    return float(np.sqrt(np.sum(dec.lambdas * c * c)))


def check_assumption5(lambdas, b_coeffs):
    """Partial sums of b_i^2 / lambda_i over the first min(len) terms, the
    small-noise summability quantity, plus a monotone-growth flag
    (non-decaying terms mean the sum would diverge as modes are added).
    Advisory: in finite dimension every sum is finite, so nothing
    downstream refuses to run on this.
    """
    lam = np.asarray(lambdas, dtype=float).ravel()
    b = np.asarray(b_coeffs, dtype=float).ravel()
    k = min(lam.size, b.size)
    if k < 1:
        raise RangeError("need at least one eigenvalue and one coefficient")
    lam, b = lam[:k], b[:k]
    if np.any(lam <= 0.0):
        raise NonpositiveEigenvalueError(
            "summability terms b_i^2/lambda_i need strictly positive eigenvalues"
        )
    terms = b * b / lam
    monotone_growth = bool(np.all(np.diff(terms) >= -1e-12 * max(terms.max(), 1.0)))
    return np.cumsum(terms), monotone_growth


def write_csv(path, header, rows):
    """CSV with a header row.  Floats are written in shortest round-trip
    decimal form, repr(float(v)); ints and strings pass through."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(
            [repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows
        )


def write_spectrum_csv(dec: SpectralDecomposition, path):
    """CSV of retained eigenvalues, descending; index is the 1-based mode
    number."""
    write_csv(path, ["index", "lambda"], enumerate(dec.lambdas.tolist(), start=1))
