"""Correctness checks each workload runs on its outputs.

Every check is either a computation made apart from the program (the
operator assembled from the kernel formula, an Euler-Maruyama recursion,
the DFT of a circulant's first column, a quadrature of the Gibbs density)
or a property the method must have (H-orthonormal eigenfields, switching,
first-order pathwise convergence, coarsening that keeps the Brownian path).
Nothing is compared with stored output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize

from amariflow import sde

DECOMP_TOL = 1e-9  # residuals relative to lambda_max
ORTHO_TOL = 1e-10
SNAPSHOT_TOL = 1e-9  # relative, on the sup norm of the snapshot
SE_LIMIT = 3.0
ORDER_RANGE = (1.5, 3.0)
COARSEN_TOL = 1e-12


def gaussian_operator(scale: float, width: float, grid) -> np.ndarray:
    """K_ij = h * scale * exp(-d_ij^2 / (2 width)) on midpoint nodes, with
    d the plain difference (truncated) or the nearest image (periodic)."""
    x = grid.a + (np.arange(grid.n) + 0.5) * grid.h
    d = np.abs(x[:, None] - x[None, :])
    if grid.boundary == "periodic":
        d = np.minimum(d, grid.length - d)
    return grid.h * scale * np.exp(-(d * d) / (2.0 * width))


def operator_from_formula(setup) -> np.ndarray:
    k = setup.kernel
    if k.family != "gaussian":
        raise ValueError(f"no independent assembly for the {k.family} kernel")
    return gaussian_operator(k.scale, k.width, setup.grid)


def gain_f(family: str, s):
    if family == "sigmoid":
        return 1.0 / (1.0 + np.exp(-s))
    if family == "cubic":
        return (s + 1.0) * (1.0 - s) * (s - 0.1)
    raise ValueError(f"no independent formula for the {family} gain")


def gain_phi(family: str, s):
    """Antiderivative with phi(0) = 0."""
    if family == "sigmoid":
        return np.logaddexp(0.0, s) - math.log(2.0)
    if family == "cubic":
        return -0.25 * s**4 + (0.1 / 3.0) * s**3 + 0.5 * s**2 - 0.1 * s
    raise ValueError(f"no independent formula for the {family} gain")


def check_decomposition(K: np.ndarray, grid, lambdas, E) -> list:
    """K E = E diag(lambda), h E^T E = I, lambda > 0 and descending; on a
    periodic grid lambda is also the leading part of the DFT of K's first
    column.  All of these hold for any basis of a degenerate eigenspace."""
    fails = []
    lam_max = float(lambdas[0])
    if not np.all(lambdas > 0.0):
        fails.append("decomposition: an eigenvalue is not positive")
    if not np.all(np.diff(lambdas) <= 0.0):
        fails.append("decomposition: eigenvalues are not descending")
    resid = K @ E - E * lambdas
    rel = float(np.sqrt(grid.h * np.sum(resid * resid, axis=0)).max()) / lam_max
    if not rel <= DECOMP_TOL:
        fails.append(f"decomposition: |KE - E Lambda| / lambda_max = {rel:.3e}")
    gram = grid.h * (E.T @ E)
    ortho = float(np.abs(gram - np.eye(E.shape[1])).max())
    if not ortho <= ORTHO_TOL:
        fails.append(f"decomposition: |h E^T E - I| = {ortho:.3e}")
    if grid.boundary == "periodic":
        dft = np.sort(np.fft.fft(K[:, 0]).real)[::-1][: lambdas.size]
        gap = float(np.abs(dft - lambdas).max()) / lam_max
        if not gap <= DECOMP_TOL:
            fails.append(f"decomposition: |lambda - DFT(K[:, 0])| / lambda_max = {gap:.3e}")
    return fails


def em_first_snapshot(K, setup, sim, path_increments) -> np.ndarray:
    """Euler-Maruyama on the grid up to the first snapshot after t = 0."""
    b = np.sqrt(setup.dec.lambdas)  # rule b_sq_eq_k: B = K^(1/2)
    spread = setup.dec.eigenfields * b
    u = sim.u0.values.copy()
    for xi in path_increments:
        u = u + (
            sim.dt * (-sim.alpha * u + K @ gain_f(setup.gain.family, u))
            + sim.epsilon * (spread @ xi)
        )
    return u


def galerkin_first_snapshot(setup, sim, n_modes, path_increments) -> np.ndarray:
    """Euler-Maruyama on the leading mode coefficients, same span."""
    E = setup.dec.eigenfields[:, :n_modes]
    lam = setup.dec.lambdas[:n_modes]
    h = setup.grid.h
    c = h * (E.T @ sim.u0.values)
    for xi in path_increments:
        c = c + (
            sim.dt * (-sim.alpha * c + lam * (h * (E.T @ gain_f(setup.gain.family, E @ c))))
            + sim.epsilon * (np.sqrt(lam) * xi[:n_modes])
        )
    return c


def check_first_snapshot(mine: np.ndarray, traj) -> list:
    prog = traj.states[1]
    scale = max(1.0, float(np.abs(prog).max()))
    gap = float(np.abs(mine - prog).max()) / scale
    if not (np.all(np.isfinite(prog)) and gap <= SNAPSHOT_TOL):
        return [f"first snapshot: relative gap {gap:.3e} to the recomputed recursion"]
    return []


def first_snapshot_steps(traj) -> int:
    return int(round(traj.times[1] / traj.dt))


def program_path(setup, dt, steps, seed=None):
    """The first `steps` rows of the program's noise path for this run."""
    return sde.sample_noise_increments(setup.noise, setup.dec, dt, steps, seed=seed).increments


def check_switching(traj, events) -> list:
    fails = []
    if not any(direction == "down" for _, direction in events):
        fails.append(f"switching: no switch down by t = {traj.times[-1]:.6g}")
    if not (np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.mean_series))):
        fails.append("switching: non-finite state")
    return fails


def gibbs_quadrature(target, n_points: int = 301, width: float = 10.0):
    """Means and variances of the two modes under exp(-2 eps^-2 Theta_N),
    by the trapezoid rule on a box of +-`width` Laplace standard deviations
    around the mode."""
    if target.n_modes != 2:
        raise ValueError("the quadrature is two-dimensional")
    dec, eps, alpha = target.dec, target.epsilon, target.alpha
    E = dec.eigenfields[:, :2]
    lam = dec.lambdas[:2]
    h = dec.grid.h
    family = target.gain.family

    def theta(u):  # u: (..., 2)
        U = u @ E.T
        return -h * np.sum(gain_phi(family, U), axis=-1) + 0.5 * alpha * np.sum(
            u * u / lam, axis=-1
        )

    mode = minimize(theta, np.zeros(2), method="Nelder-Mead",
                    options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000}).x
    step = 1e-4
    hess = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            di = np.eye(2)[i] * step
            dj = np.eye(2)[j] * step
            hess[i, j] = (
                theta(mode + di + dj) - theta(mode + di - dj)
                - theta(mode - di + dj) + theta(mode - di - dj)
            ) / (4.0 * step * step)
    sd = np.sqrt(np.diag(np.linalg.inv(hess)) * eps * eps / 2.0)
    axes = [np.linspace(mode[i] - width * sd[i], mode[i] + width * sd[i], n_points)
            for i in range(2)]
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    logp = -2.0 / (eps * eps) * theta(X)
    w = np.exp(logp - logp.max())
    # The density is below e^-50 of its peak on the box edges, so the
    # trapezoid rule on this uniform grid is a plain weighted sum.
    w /= w.sum()
    means = np.array([np.sum(w * X[..., i]) for i in range(2)])
    variances = np.array([np.sum(w * (X[..., i] - means[i]) ** 2) for i in range(2)])
    return means, variances


def check_invariant_measure(target, m_mcmc, m_sde) -> list:
    """MCMC and SDE moments against the quadrature, and against each
    other, within SE_LIMIT combined standard errors."""
    q_mean, q_var = gibbs_quadrature(target)
    fails = []
    for label, m in (("MCMC", m_mcmc), ("SDE", m_sde)):
        z = np.r_[(m.means - q_mean) / m.se_means, (m.variances - q_var) / m.se_variances]
        if not np.all(np.abs(z) <= SE_LIMIT):
            fails.append(f"invariant measure: {label} vs quadrature |z| = {np.abs(z).max():.2f}")
    z = np.r_[
        (m_mcmc.means - m_sde.means) / np.hypot(m_mcmc.se_means, m_sde.se_means),
        (m_mcmc.variances - m_sde.variances) / np.hypot(m_mcmc.se_variances, m_sde.se_variances),
    ]
    if not np.all(np.abs(z) <= SE_LIMIT):
        fails.append(f"invariant measure: MCMC vs SDE |z| = {np.abs(z).max():.2f}")
    return fails


def check_pathwise(rows, fine, paths) -> list:
    """Each halving shrinks the EM/Doss-Sussmann gap by a factor in
    ORDER_RANGE, and every coarsened path equals the fine cumulative path
    at its own step edges."""
    fails = []
    for j in range(len(rows) - 1):
        ratio = rows[j][1] / rows[j + 1][1]
        if not ORDER_RANGE[0] <= ratio <= ORDER_RANGE[1]:
            fails.append(f"pathwise order: halving {j + 1} shrinks by {ratio:.3f}")
    W = fine.cumulative()
    scale = float(np.abs(W).max())
    for path in paths:
        factor = int(round(path.dt / fine.dt))
        gap = float(np.abs(path.cumulative() - W[::factor]).max())
        if not gap <= COARSEN_TOL * max(scale, 1.0):
            fails.append(f"coarsen: factor {factor} moves the cumulative path by {gap:.3e}")
    return fails


def run_checks(wl, setup, result) -> list:
    """Every check that applies to the workload's outputs."""
    fails = []
    K = operator_from_formula(setup)
    fails += check_decomposition(K, setup.grid, setup.dec.lambdas, setup.dec.eigenfields)
    if wl.command in ("fig1", "simulate"):
        traj, sim = result["traj"], result["sim"]
        k = first_snapshot_steps(traj)
        mine = em_first_snapshot(K, setup, sim, program_path(setup, sim.dt, k))
        fails += check_first_snapshot(mine, traj)
        if wl.command == "fig1":
            fails += check_switching(traj, result["events"])
    elif wl.command == "doss-sussmann-compare":
        sim0, ref0 = result["refs"][0]
        k = first_snapshot_steps(ref0)
        mine = em_first_snapshot(K, setup, sim0, result["paths"][0].increments[:k])
        fails += check_first_snapshot(mine, ref0)
        fails += check_pathwise(result["rows"], result["fine"], result["paths"])
    elif wl.command == "gibbs-compare":
        traj, sim, target = result["traj"], result["sim"], result["target"]
        k = first_snapshot_steps(traj)
        mine = galerkin_first_snapshot(setup, sim, target.n_modes,
                                       program_path(setup, sim.dt, k))
        fails += check_first_snapshot(mine, traj)
        fails += check_invariant_measure(target, result["m_mcmc"], result["m_sde"])
    return fails
