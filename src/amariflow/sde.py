"""Explicit integrators for the stochastic field dynamics.

    dU = (-alpha U + K F(U)) dt + eps B dW

Three discretizations of the same flow, each a start state and a step
function over one shared step loop (`_integrate`), which owns the
trust-region check, the mean series, the snapshots and the noise blocks:

* `em_simulate_full`: Euler-Maruyama on the grid, with K applied as a
  band (`dsbmv`) or a dense product on a truncated grid and by FFT on a
  periodic one.
* `galerkin_simulate`: Euler-Maruyama on the leading N mode coefficients;
  at N = rank it is the full dynamics in the eigenbasis.
* `doss_sussmann_simulate`: pathwise transform Y = V - eps*B*W, with Y
  advanced by the deterministic gradient flow evaluated on the shifted
  state.  The transformed drift reads the frozen noise path at the *right*
  edge of each Euler step: left-edge evaluation telescopes back to exactly
  the EM recursion, which would make step-halving comparisons vacuous,
  while right-edge evaluation is an equally consistent scheme with a
  genuine O(dt) pathwise gap.  At eps = 0 both coincide.

Every scheme streams its noise: it draws blocks of rows from the stream
of one whole-path draw, so it sees the same increments without holding
the path.  A NoisePath holds a whole run's increments; it is kept for
comparisons across step sizes, which block-sum one path to each coarser
step, and a run on it is identical to one without it.  A spectral block
reaches the grid with one matrix product.

White-on-grid noise scales node increments by sqrt(dt/h): then <dW, v>_H
has variance dt*||v||_H^2, the cylindrical normalization.  Spectral noise
streams one standard N(0, dt) increment per retained mode, scaled by
eps*b_i with b from the diagonal rule.

Every trajectory keeps a full-resolution spatial-mean series (one float per
step) next to the thinned state snapshots, so hysteresis switch detection
never misses a transition between snapshots.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .energy import GainSpec, ModeFlow, _check_alpha
from .errors import (
    BlowUpError,
    DimensionMismatchError,
    GridMismatchError,
    InsufficientDataError,
    NotInSError,
    RangeError,
)
from .kernels import Kernel
from .operator import (
    MEMBERSHIP_TOL,
    Field,
    Grid,
    SpectralDecomposition,
    _band_matvec,
    _fft_matvec,
    build_operator_matrix,
    norm_h,
    s_residual,
    write_csv,
)
from .rng import derive_rng

NOISE_MODES = ("white", "spectral")
NOISE_RULES = ("b_eq_k", "b_sq_eq_k", "custom")

DEFAULT_CLAMP = 1e3

# Per-snapshot diagnostics of a TrajectoryRecord, in column order.
DIAGNOSTICS = ("mean", "h_norm", "hminus1_norm", "theta")

# Noise rows that an integrator holds at once: about 1 MiB of grid rows.
NOISE_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class NoiseSpec:
    """Noise shape: white on the grid, or diagonal in the eigenbasis by one
    of NOISE_RULES; custom coefficients go with the "custom" rule only."""

    mode: str = "spectral"
    rule: str | None = "b_sq_eq_k"
    custom: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in NOISE_MODES:
            raise RangeError(f"noise mode must be one of {NOISE_MODES}, got {self.mode!r}")
        if self.mode == "white" and (self.rule is not None or self.custom is not None):
            raise RangeError("white noise takes no diagonal rule and no custom coefficients")
        if self.mode == "spectral" and self.rule not in NOISE_RULES:
            raise RangeError(
                f"spectral noise rule must be one of {NOISE_RULES}, got {self.rule!r}"
            )
        if self.rule == "custom":
            if self.custom is None or len(self.custom) == 0:
                raise RangeError("custom rule needs a coefficient list")
            vals = tuple(float(v) for v in self.custom)
            if any(not np.isfinite(v) or v < 0.0 for v in vals):
                raise RangeError("custom coefficients must be >= 0 and finite")
            object.__setattr__(self, "custom", vals)
        elif self.custom is not None:
            raise RangeError(f"rule {self.rule!r} takes no custom coefficients")

    def b_coeffs(self, dec: SpectralDecomposition) -> np.ndarray:
        """Diagonal coefficients b_i for the retained modes."""
        if self.mode != "spectral":
            raise RangeError("b_coeffs is defined for spectral noise only")
        if self.rule == "b_eq_k":
            return dec.lambdas.copy()
        if self.rule == "b_sq_eq_k":
            return np.sqrt(dec.lambdas)
        if len(self.custom) < dec.rank:
            raise DimensionMismatchError(
                f"custom rule has {len(self.custom)} coefficients, "
                f"decomposition retains {dec.rank} modes"
            )
        return np.asarray(self.custom[: dec.rank], dtype=float)


@dataclass(frozen=True)
class SimConfig:
    """Run parameters.  dt < 2/alpha keeps the linear part of the explicit
    step a contraction; enforced at construction."""

    alpha: float
    epsilon: float
    dt: float
    t_final: float
    u0: Field
    record_every: int = 1
    clamp: float = DEFAULT_CLAMP

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise RangeError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise RangeError(f"dt must be positive, got {self.dt!r}")
        if not (np.isfinite(self.t_final) and self.t_final > 0.0):
            raise RangeError(f"t_final must be positive, got {self.t_final!r}")
        if self.dt >= 2.0 / self.alpha:
            raise RangeError(
                f"dt = {self.dt!r} violates the stability bound dt < 2/alpha = "
                f"{2.0 / self.alpha!r}"
            )
        if not isinstance(self.record_every, numbers.Integral) or self.record_every < 1:
            raise RangeError(
                f"record_every must be an integer >= 1, got {self.record_every!r}"
            )
        if not (np.isfinite(self.clamp) and self.clamp > 0.0):
            raise RangeError(f"clamp must be positive, got {self.clamp!r}")
        if self.t_final / self.dt >= np.iinfo(np.intp).max:
            raise RangeError(
                f"t_final / dt = {self.t_final / self.dt:.3g} steps is beyond "
                "numpy's index range"
            )
        if self.n_steps < 1:
            raise RangeError("t_final shorter than half a step")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def effective_t_final(self) -> float:
        """n_steps * dt; differs from t_final when it is not a multiple."""
        return self.n_steps * self.dt


@dataclass(frozen=True, eq=False)
class NoisePath:
    """Frozen standard increments: (steps, dim), each entry N(0, dt) for
    mode paths or N(0, dt/h) for grid paths.  Unscaled by eps or b."""

    kind: str  # "grid" | "modes"
    dt: float
    increments: np.ndarray
    seed: int

    @property
    def steps(self) -> int:
        return int(self.increments.shape[0])

    def cumulative(self) -> np.ndarray:
        """Path values at step edges, shape (steps + 1, dim), starting at 0."""
        out = np.zeros((self.steps + 1, self.increments.shape[1]))
        np.cumsum(self.increments, axis=0, out=out[1:])
        return out

    def coarsen(self, factor: int) -> "NoisePath":
        """Sum increments in blocks of `factor`: same Brownian path on a
        grid `factor` times coarser.  Factor 1 returns this path itself,
        not a copy."""
        factor = int(factor)
        if factor < 1 or self.steps % factor != 0:
            raise RangeError(
                f"coarsening factor {factor} must divide the {self.steps} steps"
            )
        if factor == 1:
            return self
        inc = self.increments.reshape(self.steps // factor, factor, -1).sum(axis=1)
        return NoisePath(self.kind, self.dt * factor, inc, self.seed)


def sample_noise_increments(
    noise: NoiseSpec,
    target,
    dt: float,
    steps: int,
    seed: int | np.random.Generator | None = None,
) -> NoisePath:
    """Draw a noise path for `target` (a Grid for white noise, a
    SpectralDecomposition for spectral noise) from one derived stream.

    `seed` defaults to noise.seed.  A Generator is used as it stands and
    continues its stream, as np.random.default_rng accepts one: calls on
    derive_rng(s, 0) for 300 and then 200 steps give the rows of one
    500-step draw with seed s.  Such a path records noise.seed.
    """
    if not (np.isfinite(dt) and dt > 0.0) or steps < 1:
        raise RangeError(f"need finite dt > 0 and steps >= 1, got {dt!r}, {steps!r}")
    if isinstance(seed, np.random.Generator):
        rng, seed = seed, noise.seed
    else:
        seed = noise.seed if seed is None else seed
        rng = derive_rng(seed, 0)
    if noise.mode == "white":
        grid = target.grid if isinstance(target, SpectralDecomposition) else target
        if not isinstance(grid, Grid):
            raise RangeError("white noise needs a Grid target")
        kind, std, dim = "grid", np.sqrt(dt / grid.h), grid.n
    elif not isinstance(target, SpectralDecomposition):
        raise RangeError("spectral noise needs a SpectralDecomposition target")
    else:
        kind, std, dim = "modes", np.sqrt(dt), target.rank
    # scaled in place: a scaled copy would hold the path twice
    inc = rng.standard_normal((steps, dim))
    inc *= std
    return NoisePath(kind, float(dt), inc, seed)


@dataclass(eq=False)
class TrajectoryRecord:
    """Thinned states plus per-snapshot diagnostics and the full-resolution
    spatial-mean series.  kind "grid": states rows are node values; kind
    "modes": rows are mode coefficients c_1..c_N."""

    kind: str
    times: np.ndarray
    states: np.ndarray
    dt: float
    seed: int
    integrator: str
    grid: Grid | None = None
    diagnostics: dict = field(default_factory=dict)
    mean_series: np.ndarray | None = None
    projection_residual: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or np.any(np.diff(t) <= 0.0):
            raise RangeError("snapshot times must be strictly increasing")
        if self.states.shape[0] != t.size:
            raise DimensionMismatchError("states and times lengths differ")
        for k, v in self.diagnostics.items():
            if np.asarray(v).shape[0] != t.size:
                raise DimensionMismatchError(f"diagnostic {k!r} length differs from times")


def _snapshot_indices(steps: int, record_every: int) -> np.ndarray:
    return np.unique(np.append(np.arange(0, steps + 1, record_every), steps))


def _mode_diagnostics(flow: ModeFlow, c, u, hn=None):
    """The DIAGNOSTICS but the mean (`_integrate` has it in its mean
    series) of a state in S with mode coefficients c on the flow's
    modes and grid values u; hn, its H norm, defaults to |c|."""
    hn = float(np.sqrt(np.sum(c * c))) if hn is None else hn
    hm1sq = float(flow.dec.hminus1_sq(c))
    return hn, float(np.sqrt(hm1sq)), flow.theta(c, u)


def _grid_diagnostics(flow: ModeFlow | None, grid, u):
    """The DIAGNOSTICS but the mean of grid values u, with NaN nonlocal
    norm and Lyapunov value without a flow or when u is not resolvable in
    S (grid noise has white components outside S: expected, not an error)."""
    hn = float(np.sqrt(grid.h) * np.linalg.norm(u))
    if flow is not None:
        c, rel = s_residual(flow.dec, Field(grid, u))
        if rel <= MEMBERSHIP_TOL:
            return _mode_diagnostics(flow, c, u, hn)
    return hn, np.nan, np.nan


def _check_gain(gain: GainSpec):
    if gain.lipschitz_constant is None and not gain.allow_non_lipschitz:
        raise RangeError(
            "gain has no global Lipschitz constant; construct it with "
            "allow_non_lipschitz=True to accept trust-region integration"
        )


def _check_path(path: NoisePath, kind: str, dt: float, steps: int, dim: int):
    if path.kind != kind:
        raise RangeError(f"noise path kind {path.kind!r} does not fit {kind!r} run")
    if abs(path.dt - dt) > 1e-9 * dt:
        raise RangeError(f"noise path dt {path.dt!r} does not match run dt {dt!r}")
    if path.steps != steps:
        raise DimensionMismatchError(
            f"noise path has {path.steps} steps, run needs {steps}"
        )
    if path.increments.shape[1] < dim:
        raise DimensionMismatchError(
            f"noise path has {path.increments.shape[1]} components, run needs {dim}"
        )


def _integrate(cfg, noise, path, target, dim, kicks, start, step, diagnose, **record):
    """The step loop of every integrator.

    start is (x, u): the recorded state at t = 0 and its grid values.
    The loop runs in blocks of NOISE_BLOCK_BYTES // (8 n) steps, with or
    without noise, and their grid values fill the rows of one (m, n)
    buffer.  step(u, w, row) advances the current grid values u by one
    step, writes the next grid values into row and returns the next
    recorded state x; w is the step's row of kicks(xi, B), or None when
    cfg.epsilon is 0.  kicks maps a block of standard increments for
    `target`, cut to dim components, to one row per step, and may write
    them into B, the block's rows of the buffer: the grid step reads its
    kick from the row it then overwrites.  The increments are drawn from
    derive_rng(noise.seed, 0) or sliced from path.increments, which give
    the same rows.

    The trust-region check, the mean series and the snapshot diagnostics
    run once per block, after its last step: a blown-up state steps on to
    the end of its block, and the first row that left |u| <= cfg.clamp
    raises BlowUp with its exact step and time, the start included.
    diagnose(x, u) gives the DIAGNOSTICS but the mean, for snapshots of
    a block that passed; a snapshot's mean is its entry of the mean
    series.  record holds the scheme's own TrajectoryRecord fields.
    """
    steps, dt, n = cfg.n_steps, cfg.dt, record["grid"].n
    block = max(1, NOISE_BLOCK_BYTES // (8 * n))
    stochastic = cfg.epsilon > 0.0
    if stochastic:
        if path is None:
            rng = derive_rng(noise.seed, 0)

            def rows(k, m):
                return sample_noise_increments(noise, target, dt, m, seed=rng).increments[:, :dim]

        else:
            kind = "modes" if isinstance(target, SpectralDecomposition) else "grid"
            _check_path(path, kind, dt, steps, dim)

            def rows(k, m):
                return path.increments[k : k + m, :dim]

    snaps = _snapshot_indices(steps, cfg.record_every)
    x, u = start
    states = np.empty((snaps.size, x.size))
    diag = np.empty((snaps.size, 4))
    mean_series = np.empty(steps + 1)
    # snapshot steps as ints, with a sentinel past the last step
    snap_steps = [*snaps.tolist(), steps + 1]
    done = 0  # snapshots with diagnostics

    def settle(U, k1, si):
        """Check the grid values U of steps k1, k1 + 1, ..., then record
        their means and the diagnostics of snapshots done .. si - 1."""
        nonlocal done
        inside = np.maximum(U.max(axis=1), -U.min(axis=1)) <= cfg.clamp  # NaN fails too
        if not inside.all():
            k = k1 + int(inside.argmin())
            raise BlowUpError(
                f"state left trust region |u| <= {cfg.clamp} at step {k}",
                step=k,
                time=k * dt,
            )
        mean_series[k1 : k1 + len(U)] = np.add.reduce(U, axis=1) / n  # u.mean(), bitwise
        for i in range(done, si):
            k = snap_steps[i]
            diag[i] = (mean_series[k], *diagnose(states[i], U[k - k1]))
        done = si

    states[0] = x
    settle(u[None], 0, 1)
    si, nxt = 1, snap_steps[1]
    buf = np.empty((min(block, steps), n))
    carry = np.empty(n)
    for k1 in range(1, steps + 1, block):
        B = buf[: min(block, steps + 1 - k1)]
        if stochastic:
            W = None  # release the last block before the next is drawn
            W = kicks(rows(k1 - 1, len(B)), B)
        # a blown-up state steps on to the end of its block
        with np.errstate(over="ignore", invalid="ignore"):
            for k, row, w in zip(range(k1, k1 + len(B)), B, W if stochastic else repeat(None)):
                x = step(u, w, row)
                u = row
                if k == nxt:
                    states[si] = x
                    si += 1
                    nxt = snap_steps[si]
        settle(B, k1, si)
        # the next block's kicks overwrite this block's last state
        np.copyto(carry, u)
        u = carry

    return TrajectoryRecord(
        times=snaps * dt,
        states=states,
        dt=dt,
        seed=path.seed if stochastic and path is not None else noise.seed,
        diagnostics=dict(zip(DIAGNOSTICS, diag.T)),
        mean_series=mean_series,
        **record,
    )


def em_simulate_full(
    kernel: Kernel,
    grid: Grid,
    gain: GainSpec,
    noise: NoiseSpec,
    cfg: SimConfig,
    dec: SpectralDecomposition | None = None,
    path: NoisePath | None = None,
) -> TrajectoryRecord:
    """Euler-Maruyama on the full grid.

    On a truncated grid K = `build_operator_matrix(kernel, grid)` is
    assembled here for the run and applied by `_band_matvec`: one `dsbmv`
    on its diagonals when K is symmetric and narrow, leaving out only
    entries of at most 2^-53 max|K|, otherwise the dense product `K.dot`.
    On a periodic grid K F(u) is `apply_operator`'s FFT application of
    the circulant K, so no dense matrix is assembled.
    dec is optional plumbing for diagnostics (and required to map
    spectral noise onto the grid).  A spectral noise block reaches the
    grid as one product xi_block @ (E b)^T, written into the block's rows
    of the step loop's buffer; each step reads its kick from its row and
    writes the next state over it, in place.

    Raises BlowUp when the state leaves the trust region |u| <= cfg.clamp.
    The check runs once per block of steps, and names the exact step at
    which the state first left.
    """
    _check_gain(gain)
    if cfg.u0.grid != grid:
        raise GridMismatchError("initial condition grid does not match run grid")
    if grid.boundary == "periodic":
        matvec = _fft_matvec(kernel, grid)
    else:
        matvec = _band_matvec(build_operator_matrix(kernel, grid))
    target, dim = grid, grid.n
    if noise.mode == "spectral" and cfg.epsilon > 0.0:
        if dec is None:
            raise RangeError("spectral noise needs the decomposition to reach the grid")
        target, dim = dec, dec.rank
        spread_t = (dec.eigenfields * noise.b_coeffs(dec)).T  # (r, n)

    def kicks(xi, B):
        if target is grid:
            return np.multiply(cfg.epsilon, xi, out=B)
        np.matmul(xi, spread_t, out=B)
        B *= cfg.epsilon
        return B

    scratch = np.empty(grid.n)

    def step(u, w, row):
        # u + (dt * (-alpha u + K f(u)) + w), operation for operation; w
        # is the kick in row, read before row is overwritten
        fu = gain.f(u)
        du = np.multiply(-cfg.alpha, u, out=scratch)
        du += matvec(fu)
        du *= cfg.dt
        if w is not None:
            du += w
        return np.add(u, du, out=row)

    u0 = cfg.u0.values
    flow = None if dec is None else ModeFlow(dec, gain, cfg.alpha)
    return _integrate(
        cfg, noise, path, target, dim, kicks, (u0, u0), step,
        lambda x, u: _grid_diagnostics(flow, grid, u),
        kind="grid", integrator="em_full", grid=grid,
    )


def galerkin_simulate(
    dec: SpectralDecomposition,
    gain: GainSpec,
    noise: NoiseSpec,
    cfg: SimConfig,
    n_modes: int | None = None,
    path: NoisePath | None = None,
) -> TrajectoryRecord:
    """Euler-Maruyama on the leading n_modes eigencoefficients.

    The nonlinear term is lambda_i <F(U^N), e_i>_H with U^N the
    reconstruction from the evolving coefficients.  Noise must be spectral;
    a wider shared path, or the full-rank stream, is truncated to the
    leading modes.
    """
    _check_gain(gain)
    if noise.mode != "spectral":
        raise RangeError("mode-truncated runs need spectral noise")
    modes = dec.truncate(dec.rank if n_modes is None else int(n_modes))
    N = modes.rank
    if cfg.epsilon > 0.0:
        b = noise.b_coeffs(dec)[:N]

    flow = ModeFlow(modes, gain, cfg.alpha)
    drift, E = flow.drift, modes.eigenfields
    c = dec.coeffs(cfg.u0)[:N]
    u = E @ c
    resid = norm_h(Field(dec.grid, cfg.u0.values - u))

    def step(u, w, row):
        nonlocal c
        dc = cfg.dt * drift(c, u)
        if w is not None:
            dc += w
        c = c + dc
        np.matmul(E, c, out=row)
        return c

    return _integrate(
        cfg, noise, path, dec, N, lambda xi, B: cfg.epsilon * (b * xi), (c, u), step,
        lambda x, u: _mode_diagnostics(flow, x, u),
        kind="modes", integrator="galerkin", grid=dec.grid, projection_residual=resid,
    )


def doss_sussmann_simulate(
    dec: SpectralDecomposition,
    gain: GainSpec,
    noise: NoiseSpec,
    cfg: SimConfig,
    path: NoisePath | None = None,
) -> TrajectoryRecord:
    """Pathwise integration of Y = V - eps*B*W at full retained rank.

    Y follows dY/dt = -grad Theta(Y + eps*B*W_t) with the path read at the
    right edge of each step (see module docstring); the recorded states are
    V_k = Y_k + eps*B*W_(t_k), as mode coefficients.  The step keeps W
    itself, adding each row of standard increments as it arrives.
    """
    _check_gain(gain)
    if noise.mode != "spectral":
        raise RangeError("the pathwise transform needs spectral noise")
    if cfg.epsilon > 0.0:
        eb = cfg.epsilon * noise.b_coeffs(dec)

    flow = ModeFlow(dec, gain, cfg.alpha)
    drift, E = flow.drift, dec.eigenfields
    y = dec.coeffs(cfg.u0)
    resid = norm_h(Field(dec.grid, cfg.u0.values - E @ y))
    zero = np.zeros(dec.rank)
    W = zero  # the path at the right edge of the last step

    def step(u, xi, row):
        # the mode drift -Lambda grad Theta_N at the shifted state; W adds
        # the rows in order, as NoisePath.cumulative()'s np.cumsum does
        nonlocal y, W
        w = zero
        if xi is not None:
            W = W + xi
            w = eb * W
        z = y + w
        y = y + cfg.dt * drift(z, E @ z)
        v = y + w
        np.matmul(E, v, out=row)
        return v

    v = y + zero
    return _integrate(
        cfg, noise, path, dec, dec.rank, lambda xi, B: xi, (v, E @ v), step,
        lambda x, u: _mode_diagnostics(flow, x, u),
        kind="modes", integrator="doss_sussmann", grid=dec.grid,
        projection_residual=resid,
    )


def convergence_table(
    kernel: Kernel,
    grid: Grid,
    dec: SpectralDecomposition,
    gain: GainSpec,
    noise: NoiseSpec,
    cfg: SimConfig,
    n_list,
) -> list:
    """Sup-over-snapshots H-distance between mode-truncated runs and the
    full-grid reference, all driven by one spectral path, which each run
    streams from noise.seed.  Every N is checked against dec, with the
    errors of `SpectralDecomposition.truncate`, before the reference runs.
    Returns [(N, sup_error)] in the order given."""
    if noise.mode != "spectral":
        raise RangeError("the truncation study needs spectral noise")
    _check_gain(gain)
    # truncate raises for an N that dec cannot give; a valid cut has rank N
    n_list = [dec.truncate(int(N)).rank for N in n_list]
    if not n_list:
        raise RangeError("the truncation study needs at least one mode count")
    ref = em_simulate_full(kernel, grid, gain, noise, cfg, dec=dec)
    rows = []
    for N in n_list:
        tr = galerkin_simulate(dec, gain, noise, cfg, n_modes=N)
        rows.append((N, sup_h_distance(dec, ref, tr)))
    return rows


def sup_h_distance(dec: SpectralDecomposition, grid_run, mode_run) -> float:
    """Largest H-distance over the snapshots of a grid run and a mode run
    recorded at the same times."""
    E = dec.truncate(mode_run.states.shape[1]).eigenfields
    diff = grid_run.states - mode_run.states @ E.T
    return float(np.sqrt(dec.grid.h * np.sum(diff * diff, axis=1)).max())


def invariance_monitor(traj: TrajectoryRecord):
    """Squared nonlocal norm ||u||_-1^2 at every snapshot and its sup, read
    from the run's own "hminus1_norm" diagnostics.

    Raises NotInS naming the first snapshot with no recorded norm: its
    state is outside S, or the run was made without a decomposition.  A
    record without that diagnostic raises InsufficientData.
    """
    if "hminus1_norm" not in traj.diagnostics:
        raise InsufficientDataError("trajectory record has no 'hminus1_norm' diagnostic")
    series = np.asarray(traj.diagnostics["hminus1_norm"], dtype=float) ** 2
    missing = np.flatnonzero(np.isnan(series))
    if missing.size:
        i = missing[0]
        raise NotInSError(
            f"snapshot {i} (t = {traj.times[i]:.6g}) has no H_-1 norm: its state is "
            "outside S, or the run was made without a decomposition"
        )
    return float(series.max()), series


def detect_switches(traj: TrajectoryRecord, lower: float, upper: float) -> list:
    """Hysteresis regime tracking on the spatial mean.

    The regime becomes "up" when the mean reaches `upper`, "down" when it
    reaches `lower`; a completed regime change is one switching event.
    Returns [(time, direction)] with direction "up" or "down", read from
    the full-resolution mean series that every integrator records; a
    record without one raises InsufficientData.
    """
    if not lower < upper:
        raise RangeError(f"need lower < upper, got {lower!r}, {upper!r}")
    if traj.mean_series is None:
        raise InsufficientDataError("trajectory record has no mean series")
    means = np.asarray(traj.mean_series, dtype=float)
    # the steps that reach a threshold and the side each reaches; a regime
    # change is a step whose side differs from the previous such step's,
    # and the first of them only sets the regime
    hits = np.flatnonzero((means >= upper) | (means <= lower))
    up = means[hits] >= upper
    changes = np.flatnonzero(up[1:] != up[:-1]) + 1
    times = hits[changes] * traj.dt  # np.arange(n) * dt at those steps
    return [(float(t), "up" if u else "down") for t, u in zip(times, up[changes])]


def write_trajectory_csv(traj: TrajectoryRecord, path):
    """One row per snapshot: t, diagnostics, then state columns (u_j for
    grid runs, c_i for mode runs)."""
    dim = traj.states.shape[1]
    if traj.kind == "grid":
        state_cols = [f"u_{j}" for j in range(dim)]
    else:
        state_cols = [f"c_{i}" for i in range(1, dim + 1)]
    table = np.column_stack(
        (traj.times, *(traj.diagnostics[k] for k in DIAGNOSTICS), traj.states)
    )
    # write_csv's format, one row at a time: a float's repr needs no quoting
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t", *DIAGNOSTICS, *state_cols]) + "\r\n")
        for row in table:
            fh.write(",".join(map(repr, row.tolist())) + "\r\n")


def write_events_csv(events, path):
    write_csv(path, ["t", "direction"], events)
