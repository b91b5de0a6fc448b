"""Finite-mode invariant measure and samplers for checking it.

In the eigenbasis, with diagonal noise b_i = sqrt(lambda_i), the truncated
dynamics are reversible for the unnormalized Gibbs density

    log pi(u) = -2 eps^(-2) Theta_N(u),
    Theta_N(u) = -Phi(U) + (alpha/2) sum_i u_i^2 / lambda_i,  U = sum u_i e_i,

which the detailed-balance identity pins pointwise:

    drift_i(u) = (eps^2 b_i^2 / 2) * d_i log pi(u)      (exact for b^2 = K).

For the zero gain the measure is the centered Gaussian with per-mode
variance gamma_cov(i) = eps^2 lambda_i / (2 alpha), which is the covariance
scaling used by the random-walk proposals.

Mode indices are 0-based throughout, matching the decomposition arrays;
file formats label modes 1-based like the CSV column names c_1..c_N.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr, ndtri

from .energy import GainSpec, ModeFlow
from .errors import DimensionMismatchError, InsufficientDataError, RangeError
from .operator import SpectralDecomposition, write_csv
from .rng import derive_rng


@dataclass(frozen=True, eq=False)
class GibbsTarget:
    """Unnormalized finite-mode Gibbs measure on the leading n_modes.
    flow is the gradient structure on those modes (dec.truncate(n_modes))."""

    dec: SpectralDecomposition
    gain: GainSpec
    alpha: float
    epsilon: float
    n_modes: int
    flow: ModeFlow = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise RangeError(f"epsilon must be positive, got {self.epsilon!r}")
        flow = ModeFlow(self.dec.truncate(self.n_modes), self.gain, self.alpha)
        object.__setattr__(self, "flow", flow)

    def _check_point(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_modes,):
            raise DimensionMismatchError(
                f"point shape {u.shape} does not match n_modes = {self.n_modes}"
            )
        return u


def gibbs_log_density(target: GibbsTarget, u) -> float:
    """log pi(u) = -2 eps^(-2) Theta_N(u), up to the normalizing constant."""
    u = target._check_point(u)
    flow = target.flow
    theta = flow.theta(u, flow.dec.eigenfields @ u)
    return -2.0 * theta / (target.epsilon * target.epsilon)


def gibbs_log_density_grad(target: GibbsTarget, u) -> np.ndarray:
    """Exact gradient: d_i log pi = -2 eps^(-2) (alpha u_i/lambda_i - <F(U), e_i>_H).

    Written out on its own, not through ModeFlow: it is the reference that
    detailed_balance_residual checks the shared drift against."""
    u = target._check_point(u)
    modes = target.flow.dec
    E, lam = modes.eigenfields, modes.lambdas
    fU = target.gain.f(E @ u)
    inner = modes.grid.h * (E.T @ fU)
    return -2.0 / (target.epsilon * target.epsilon) * (target.alpha * u / lam - inner)


def gamma_cov(target: GibbsTarget, i: int) -> float:
    """Per-mode stationary variance of the linearized (zero-gain) dynamics:
    eps^2 lambda_i / (2 alpha)."""
    i = int(i)
    if not 0 <= i < target.n_modes:
        raise IndexError(f"mode index {i} outside [0, {target.n_modes})")
    lam = float(target.dec.lambdas[i])
    return target.epsilon * target.epsilon * lam / (2.0 * target.alpha)


def detailed_balance_residual(target: GibbsTarget, b_coeffs, u) -> float:
    """max_i |drift_i(u) - (eps^2 b_i^2/2) d_i log pi(u)|.

    Zero (to rounding) exactly when b_i^2 = lambda_i; any other diagonal
    leaves a residual proportional to (1 - b_i^2/lambda_i) drift_i.
    """
    u = target._check_point(u)
    b = np.asarray(b_coeffs, dtype=float)
    if b.shape != (target.n_modes,):
        raise DimensionMismatchError(
            f"b shape {b.shape} does not match n_modes = {target.n_modes}"
        )
    flow = target.flow
    drift = flow.drift(u, flow.dec.eigenfields @ u)
    rhs = 0.5 * target.epsilon**2 * b * b * gibbs_log_density_grad(target, u)
    return float(np.abs(drift - rhs).max())


def _check_burn_in(burn_in: int):
    if burn_in < 0:
        raise RangeError(f"need burn_in >= 0, got {burn_in!r}")


def _batch_count(m: int, burn_in: int = 0) -> int:
    """floor(sqrt(m - burn_in)) batches, as `ergodic_moments` makes; at least 10."""
    _check_burn_in(burn_in)
    m = max(0, m - burn_in)
    n_batches = int(np.floor(np.sqrt(m)))
    if n_batches < 10:
        raise InsufficientDataError(
            f"{m} samples give {n_batches} batches; need at least 10"
        )
    return n_batches


def rw_metropolis(
    target: GibbsTarget,
    steps: int,
    step_scale: float = 1.0,
    seed: int = 0,
    burn_in: int = 0,
):
    """Random-walk Metropolis from the origin, with per-mode proposal std
    step_scale * sqrt(gamma_cov(i)).  Returns (samples, acceptance_rate);
    samples has shape (steps, n_modes), post burn-in."""
    if steps < 1:
        raise RangeError(f"need steps >= 1, got {steps!r}")
    _check_burn_in(burn_in)
    if not (np.isfinite(step_scale) and step_scale > 0.0):
        raise RangeError(f"need finite step_scale > 0, got {step_scale!r}")
    N = target.n_modes
    x = np.zeros(N)
    prop_std = step_scale * np.sqrt(
        [gamma_cov(target, i) for i in range(N)]
    )
    rng = derive_rng(seed, 1)
    logp = gibbs_log_density(target, x)
    samples = np.empty((steps, N))
    accepted = 0
    total = burn_in + steps
    for k in range(total):
        prop = x + prop_std * rng.standard_normal(N)
        lp = gibbs_log_density(target, prop)
        if np.log(rng.uniform()) < lp - logp:
            x = prop
            logp = lp
            accepted += 1
        if k >= burn_in:
            samples[k - burn_in] = x
    return samples, accepted / total


@dataclass(frozen=True, eq=False)
class MomentSummary:
    """Per-mode means and variances with batch-means standard errors."""

    means: np.ndarray
    variances: np.ndarray
    se_means: np.ndarray
    se_variances: np.ndarray
    n_samples: int
    n_batches: int


def ergodic_moments(data, burn_in: int = 0) -> MomentSummary:
    """Batch-means moment estimates from correlated samples.

    data: (m, N) array of mode samples, or a mode-kind TrajectoryRecord.
    burn_in rows are dropped first.  Uses floor(sqrt(m)) batches and
    requires at least 10 of them; the variance moment is batched on the
    centered squares so both moments carry comparable standard errors.
    """
    if hasattr(data, "states"):
        if data.kind != "modes":
            raise RangeError("moment extraction needs a mode-coefficient record")
        arr = np.asarray(data.states, dtype=float)
    else:
        arr = np.asarray(data, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    n_batches = _batch_count(arr.shape[0], burn_in)
    arr = arr[burn_in:]
    m = arr.shape[0]
    batch = m // n_batches
    used = arr[: n_batches * batch]
    means = used.mean(axis=0)
    bm = used.reshape(n_batches, batch, -1).mean(axis=1)
    se_means = bm.std(axis=0, ddof=1) / np.sqrt(n_batches)
    y = (used - means) ** 2
    variances = y.mean(axis=0)
    by = y.reshape(n_batches, batch, -1).mean(axis=1)
    se_variances = by.std(axis=0, ddof=1) / np.sqrt(n_batches)
    return MomentSummary(
        means=means,
        variances=variances,
        se_means=se_means,
        se_variances=se_variances,
        n_samples=m,
        n_batches=n_batches,
    )


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Standardized discrepancies between two moment summaries."""

    mean_z: np.ndarray
    var_z: np.ndarray
    max_abs_z: float
    passed: bool
    a: MomentSummary
    b: MomentSummary


def compare_measures(a: MomentSummary, b: MomentSummary) -> MomentReport:
    """Standardize per-mode mean and variance gaps of two `ergodic_moments`
    summaries by the combined SE.

    passed means every |z| <= 3, one 3-SE test per score;
    `familywise_verdict` judges all of them together.
    """
    if a.means.shape != b.means.shape:
        raise DimensionMismatchError(
            f"summaries compare {a.means.shape} vs {b.means.shape} modes"
        )
    mean_z = (a.means - b.means) / np.sqrt(a.se_means**2 + b.se_means**2)
    var_z = (a.variances - b.variances) / np.sqrt(a.se_variances**2 + b.se_variances**2)
    max_abs_z = float(max(np.abs(mean_z).max(), np.abs(var_z).max()))
    return MomentReport(
        mean_z=mean_z,
        var_z=var_z,
        max_abs_z=max_abs_z,
        passed=bool(max_abs_z <= 3.0),
        a=a,
        b=b,
    )


def sidak_threshold(n_tests: int) -> float:
    """|z| threshold for the largest of n_tests independent standard normal
    scores with the false-alarm rate of one 3-SE test (Sidak): 3.399 for 4."""
    per_test = -np.expm1(np.log1p(-2.0 * ndtr(-3.0)) / n_tests)
    return float(-ndtri(per_test / 2.0))


def familywise_verdict(report: MomentReport) -> dict:
    """The report's 2N comparisons, their Sidak threshold, and whether max
    |z| is within it: the verdict on all of them that `passed` (one 3-SE
    test per score) is not."""
    n = int(report.mean_z.size + report.var_z.size)
    limit = sidak_threshold(n)
    return {"n_comparisons": n, "familywise_threshold": limit,
            "familywise_passed": bool(report.max_abs_z <= limit)}


def write_samples_csv(samples: np.ndarray, path):
    """Rows `step, c_1..c_N`."""
    samples = np.asarray(samples, dtype=float)
    write_csv(
        path,
        ["step"] + [f"c_{i}" for i in range(1, samples.shape[1] + 1)],
        ([k, *row] for k, row in enumerate(samples.tolist())),
    )


def write_moment_report_jsonl(report: MomentReport, path):
    """One JSON record per mode, then a summary record: max |z|, passed,
    and the familywise_verdict."""
    with open(path, "w") as fh:
        for i in range(report.mean_z.size):
            rec = {
                "mode": i + 1,
                "mean_a": float(report.a.means[i]),
                "se_mean_a": float(report.a.se_means[i]),
                "mean_b": float(report.b.means[i]),
                "se_mean_b": float(report.b.se_means[i]),
                "z_mean": float(report.mean_z[i]),
                "var_a": float(report.a.variances[i]),
                "se_var_a": float(report.a.se_variances[i]),
                "var_b": float(report.b.variances[i]),
                "se_var_b": float(report.b.se_variances[i]),
                "z_var": float(report.var_z[i]),
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        summary = {"max_abs_z": report.max_abs_z, "passed": report.passed}
        fh.write(json.dumps(summary | familywise_verdict(report), sort_keys=True) + "\n")
