"""The benchmark's workloads: each operation replays one `amariflow` CLI
command through the library's public calls, in the order the command
makes them, and opens a span around each call.

An operation writes the same files as the command (`tests/` holds the
check that they are byte-identical).  The spans give the end-to-end
metrics: an operation's wall time is its "op" span, its set-up time the
"setup" span (config, builders, assembly, decomposition), and its
integration rate the steps of the integrator and sampler spans over their
time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from amariflow import config as cfgmod
from amariflow import ergodic, operator, sde

# Integrator and sampler spans: their steps over their time is steps_per_s.
STEP_SPANS = ("sde.em_simulate", "sde.galerkin", "sde.doss_sussmann", "ergodic.mcmc")

# Calls that integrators make inside themselves; the traced run wraps them
# so that an integrator's self time excludes them.
INNER_CALLS = (
    (sde, "build_operator_matrix", "operator.assemble"),
    (sde, "sample_noise_increments", "sde.noise_sample"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: tuple
    follows_seed: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig1-switching",
            "fig1",
            ("sim.t_final=250",),
            True,
            "fig1 preset (n=400, rank 388, cubic gain, B=K^(1/2), eps=0.3) to "
            "t=250: metastable switching, the library's main use; 78 MB noise path",
        ),
        Workload(
            "gibbs-invariant",
            "gibbs-compare",
            (),
            False,
            "gibbs-compare at its defaults (n=128, N=2, Metropolis + Galerkin to "
            "t=500): invariant measure, cost is Python overhead per step",
        ),
        Workload(
            "wide-periodic",
            "simulate",
            (
                "kernel.family=gaussian",
                "kernel.width=0.5",
                "grid.a=-10.0",
                "grid.b=10.0",
                "grid.n=2048",
                "grid.boundary=periodic",
                "sim.t_final=10.0",
                "sim.record_every=50",
            ),
            True,
            "simulate on a 2048-node periodic grid: O(n^3) eigh set-up and a 32 MB "
            "dense matvec per step, where an FFT or circulant path would show",
        ),
        Workload(
            "pathwise-order",
            "doss-sussmann-compare",
            ("sim.epsilon=0.3", "sim.t_final=10.0"),
            True,
            "doss-sussmann-compare, 3 halvings, record_every=1: the only Doss-Sussmann "
            "and NoisePath.coarsen user, with diagnostics on every step",
        ),
    )
}


def cli_argv(wl: Workload, out: Path, seed: int, extra=()) -> list:
    """The `amariflow` command line that an operation replays."""
    argv = [wl.command, "--out", str(out)]
    for spec in (*wl.overrides, *extra):
        argv += ["--override", spec]
    if wl.follows_seed:
        argv += ["--seed", str(seed)]
    return argv


@dataclass
class Setup:
    cfg: cfgmod.ExperimentConfig
    kernel: object
    grid: operator.Grid
    K: np.ndarray
    dec: operator.SpectralDecomposition
    gain: object
    noise: sde.NoiseSpec


def prepare(rec, wl: Workload, seed: int, extra=()) -> Setup:
    """Config, builders, assembly and decomposition: the calls every
    command makes before its first sampling, integrator or sampler call."""
    with rec.span("setup"):
        with rec.span("config.build"):
            cfg = cfgmod.preset_fig1() if wl.command == "fig1" else cfgmod.default_config()
            for spec in (*wl.overrides, *extra):
                cfgmod.apply_override(cfg, spec)
            if wl.follows_seed:
                cfg.values["noise"]["seed"] = int(seed)
            kernel = cfgmod.build_kernel(cfg)
            grid = cfgmod.build_grid(cfg)
        with rec.span("operator.assemble"):
            K = operator.build_operator_matrix(kernel, grid)
        with rec.span("operator.decompose"):
            dec = operator.spectral_decompose(
                K,
                grid,
                rel_tol=float(cfg.get("galerkin", "rel_tol")),
                neg_tol=float(cfg.get("galerkin", "neg_tol")),
            )
        with rec.span("config.build"):
            gain = cfgmod.build_gain(cfg)
            noise = cfgmod.build_noise(cfg)
    return Setup(cfg, kernel, grid, K, dec, gain, noise)


def _sim(rec, s: Setup):
    with rec.span("config.build"):
        u0 = cfgmod.build_u0(s.cfg, s.grid, s.dec)
        sim = cfgmod.build_sim(s.cfg, u0)
    return sim


def run_simulate(rec, s: Setup, out: Path) -> dict:
    """`amariflow simulate` (and `fig1`, which runs the same code)."""
    sim = _sim(rec, s)
    with rec.span("sde.em_simulate", steps=sim.n_steps) as span:
        traj = sde.em_simulate_full(s.kernel, s.grid, s.gain, s.noise, sim, dec=s.dec)
        span.counts["snapshots"] = traj.times.size
    with rec.span("sde.write"):
        sde.write_trajectory_csv(traj, out / "trajectory.csv")
    with rec.span("sde.switch_detect"):
        events = sde.detect_switches(
            traj,
            float(s.cfg.get("output", "switch_lower")),
            float(s.cfg.get("output", "switch_upper")),
        )
    with rec.span("sde.write"):
        sde.write_events_csv(events, out / "events.csv")
    return {"sim": sim, "traj": traj, "events": events}


def run_ds_compare(rec, s: Setup, out: Path) -> dict:
    """`amariflow doss-sussmann-compare`."""
    sim = _sim(rec, s)
    halvings = int(s.cfg.get("sim", "ds_halvings"))
    steps = sim.n_steps
    with rec.span("sde.noise_sample"):
        fine = sde.sample_noise_increments(
            s.noise, s.dec, sim.dt / 2**halvings, steps * 2**halvings
        )
    rows, paths, refs = [], [], []
    for j in range(halvings + 1):
        dt_j = sim.dt / 2**j
        with rec.span("sde.coarsen"):
            path = fine.coarsen(2 ** (halvings - j))
        sim_j = type(sim)(
            alpha=sim.alpha,
            epsilon=sim.epsilon,
            dt=dt_j,
            t_final=sim.t_final,
            u0=sim.u0,
            record_every=sim.record_every * 2**j,
            clamp=sim.clamp,
        )
        with rec.span("sde.em_simulate", steps=sim_j.n_steps) as span:
            ref = sde.em_simulate_full(
                s.kernel, s.grid, s.gain, s.noise, sim_j, dec=s.dec, path=path
            )
            span.counts["snapshots"] = ref.times.size
        with rec.span("sde.doss_sussmann", steps=sim_j.n_steps) as span:
            ds = sde.doss_sussmann_simulate(s.dec, s.gain, s.noise, sim_j, path=path)
            span.counts["snapshots"] = ds.times.size
        diff = ref.states - ds.states @ s.dec.eigenfields.T
        rows.append((dt_j, float(np.sqrt(s.grid.h * np.sum(diff * diff, axis=1)).max())))
        paths.append(path)
        refs.append((sim_j, ref))
    with rec.span("cli.write"):
        with open(out / "ds_compare.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["dt", "sup_discrepancy", "ratio_vs_next_finer"])
            for j, (dt_j, sup) in enumerate(rows):
                ratio = (
                    rows[j][1] / rows[j + 1][1]
                    if j + 1 < len(rows) and rows[j + 1][1] > 0
                    else ""
                )
                w.writerow([repr(dt_j), repr(sup), repr(ratio) if ratio != "" else ""])
    return {"sim": sim, "fine": fine, "paths": paths, "refs": refs, "rows": rows}


def run_gibbs_compare(rec, s: Setup, out: Path) -> dict:
    """`amariflow gibbs-compare`."""
    cfg = s.cfg
    N = int(cfg.get("gibbs", "n_modes"))
    alpha = float(cfg.get("sim", "alpha"))
    eps = float(cfg.get("sim", "epsilon"))
    target = ergodic.GibbsTarget(dec=s.dec, gain=s.gain, alpha=alpha, epsilon=eps, n_modes=N)
    proposals = int(cfg.get("gibbs", "mcmc_steps")) + int(cfg.get("gibbs", "burn_in"))
    with rec.span("ergodic.mcmc", steps=proposals) as span:
        samples, acc = ergodic.rw_metropolis(
            target,
            steps=int(cfg.get("gibbs", "mcmc_steps")),
            step_scale=float(cfg.get("gibbs", "step_scale")),
            seed=s.noise.seed,
            burn_in=int(cfg.get("gibbs", "burn_in")),
        )
        span.counts["accepted"] = round(acc * proposals)
    with rec.span("ergodic.write"):
        ergodic.write_samples_csv(samples, out / "samples.csv")
    sim = _sim(rec, s)
    sim = type(sim)(
        alpha=alpha,
        epsilon=eps,
        dt=sim.dt,
        t_final=float(cfg.get("gibbs", "sde_t")),
        u0=sim.u0,
        record_every=int(cfg.get("gibbs", "sde_record_every")),
        clamp=sim.clamp,
    )
    with rec.span("sde.galerkin", steps=sim.n_steps) as span:
        traj = sde.galerkin_simulate(s.dec, s.gain, s.noise, sim, n_modes=N)
        span.counts["snapshots"] = traj.times.size
    with rec.span("ergodic.moments"):
        m_mcmc = ergodic.ergodic_moments(samples)
        m_sde = ergodic.ergodic_moments(traj, burn_in=int(cfg.get("gibbs", "sde_burn_in")))
        report = ergodic.compare_measures(m_mcmc, m_sde)
    with rec.span("ergodic.write"):
        ergodic.write_moment_report_jsonl(report, out / "moment_report.jsonl")
    return {
        "sim": sim,
        "target": target,
        "traj": traj,
        "m_mcmc": m_mcmc,
        "m_sde": m_sde,
    }


RUNNERS = {
    "fig1": run_simulate,
    "simulate": run_simulate,
    "doss-sussmann-compare": run_ds_compare,
    "gibbs-compare": run_gibbs_compare,
}


def run_op(rec, wl: Workload, seed: int, out: Path, extra=()):
    """One operation: the whole command, from config to the last file."""
    with rec.span("op"):
        s = prepare(rec, wl, seed, extra)
        result = RUNNERS[wl.command](rec, s, out)
    return s, result
