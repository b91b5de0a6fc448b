"""Per-layer metrics of the traced run.

Two sources, both at the workload's own geometry:

* spans of the workload's operations: per-call or per-operation times of
  assembly, decomposition, noise sampling, coarsening, switch detection,
  file writing and moment estimation, and the per-step self time of each
  integrator and of the Metropolis sampler;
* probes: timed calls made after the operations, for the pieces of one
  step that no span can isolate (a dense K.v, the FFT application of K,
  the gain, the noise spread, one log density) and for the snapshot cost.

A layer is reported only on the workloads whose operations call it: the
Metropolis, Galerkin, Doss-Sussmann, coarsening and moment metrics come
from traced runs of `gibbs-invariant` and `pathwise-order`.  README.md
lists which metrics each workload reports.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from amariflow import cli, ergodic, operator, sde
from spans import Recorder
from workloads import STEP_SPANS, cli_argv

PER_LAYER = (
    ("operator.assemble_s", "s"),
    ("operator.decompose_s", "s"),
    ("operator.matvec_us", "us"),
    ("operator.matvec_mb", "MB"),
    ("operator.fft_apply_us", "us"),
    ("operator.rank", "count"),
    ("energy.gain_f_us", "us"),
    ("energy.gain_phi_us", "us"),
    ("sde.noise_sample_s", "s"),
    ("sde.noise_path_mb", "MB"),
    ("sde.spread_us", "us"),
    ("sde.em_step_us", "us"),
    ("sde.em_step_overhead_us", "us"),
    ("sde.galerkin_step_us", "us"),
    ("sde.ds_step_us", "us"),
    ("sde.coarsen_s", "s"),
    ("sde.snapshot_us", "us"),
    ("sde.snapshots", "count"),
    ("sde.switch_detect_s", "s"),
    ("sde.write_s", "s"),
    ("ergodic.mcmc_step_us", "us"),
    ("ergodic.logdensity_us", "us"),
    ("ergodic.accept_rate", "ratio"),
    ("ergodic.moments_s", "s"),
    ("ergodic.write_s", "s"),
    ("config.build_s", "s"),
    ("cli.import_s", "s"),
    ("cli.command_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# metric -> (span name, how one operation's spans become one value)
SPAN_METRICS = {
    "operator.assemble_s": ("operator.assemble", "per_call"),
    "operator.decompose_s": ("operator.decompose", "per_call"),
    "sde.noise_sample_s": ("sde.noise_sample", "per_call"),
    "sde.coarsen_s": ("sde.coarsen", "per_op"),
    "sde.switch_detect_s": ("sde.switch_detect", "per_op"),
    "sde.write_s": ("sde.write", "per_op"),
    "ergodic.moments_s": ("ergodic.moments", "per_op"),
    "ergodic.write_s": ("ergodic.write", "per_op"),
    "config.build_s": ("config.build", "per_op"),
    "sde.em_step_us": ("sde.em_simulate", "per_step"),
    "sde.galerkin_step_us": ("sde.galerkin", "per_step"),
    "sde.ds_step_us": ("sde.doss_sussmann", "per_step"),
    "ergodic.mcmc_step_us": ("ergodic.mcmc", "per_step"),
}


def span_metric(rec: Recorder, span_name: str, how: str, ops) -> float | None:
    """Median over `ops` of one operation's value; None if no op called it."""
    values = []
    for op in ops:
        idx = rec.of_op(op, span_name)
        if not idx:
            continue
        if how == "per_call":
            values += [rec.spans[i].duration for i in idx]
        elif how == "per_op":
            values.append(sum(rec.spans[i].duration for i in idx))
        else:  # self time per step, in microseconds
            steps = sum(rec.spans[i].counts["steps"] for i in idx)
            values.append(1e6 * sum(rec.self_time(i) for i in idx) / steps)
    return statistics.median(values) if values else None


def per_call_us(fn, *args, repeats: int = 7, min_time: float = 0.02) -> float:
    """Median time of one call, from `repeats` timed loops of >= min_time."""
    loops = 1
    while True:
        t = perf_counter()
        for _ in range(loops):
            fn(*args)
        elapsed = perf_counter() - t
        if elapsed >= min_time:
            break
        loops *= 2
    times = [elapsed / loops]
    for _ in range(repeats - 1):
        t = perf_counter()
        for _ in range(loops):
            fn(*args)
        times.append((perf_counter() - t) / loops)
    return 1e6 * statistics.median(times)


def short_sim(sim, steps: int, record_every: int):
    return type(sim)(
        alpha=sim.alpha,
        epsilon=sim.epsilon,
        dt=sim.dt,
        t_final=steps * sim.dt,
        u0=sim.u0,
        record_every=record_every,
        clamp=sim.clamp,
    )


def snapshot_us(s, sim, command: str) -> float:
    """Cost of one snapshot: the same path integrated with a snapshot on
    every step and with none between the ends, best of three each."""
    P = 100 if s.grid.n > 1024 else 500
    path = sde.sample_noise_increments(s.noise, s.dec, sim.dt, P)
    best = {}
    for every in (1, P) * 3:
        psim = short_sim(sim, P, every)
        t = perf_counter()
        if command == "gibbs-compare":
            n_modes = int(s.cfg.get("gibbs", "n_modes"))
            sde.galerkin_simulate(s.dec, s.gain, s.noise, psim, n_modes=n_modes, path=path)
        else:
            sde.em_simulate_full(s.kernel, s.grid, s.gain, s.noise, psim, dec=s.dec, path=path)
        best[every] = min(best.get(every, np.inf), perf_counter() - t)
    return 1e6 * (best[1] - best[P]) / (P - 1)


def noise_path_mb(command: str, s, result) -> float:
    """Computed size of the largest noise path the operation holds."""
    if command == "doss-sussmann-compare":
        return result["fine"].increments.nbytes / 1e6
    return result["sim"].n_steps * s.dec.rank * 8 / 1e6


def cli_import_s(root: Path, repeats: int = 3) -> float:
    """Import time of amariflow.cli in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import amariflow.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=root, capture_output=True,
            text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def cli_command_s(wl, seed: int, out: Path) -> float:
    """The operation run through amariflow.cli.main in this process."""
    sink = io.StringIO()
    t = perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli.main(cli_argv(wl, out, seed))
    elapsed = perf_counter() - t
    if code != 0:
        raise RuntimeError(f"amariflow {wl.command} exited with {code}")
    return elapsed


def per_layer(ctx) -> dict:
    """The per-layer metrics of the traced run described by `ctx`: every
    metric of a layer that the workload's operations call."""
    s, result, wl = ctx.setup, ctx.result, ctx.workload
    rec, traced_ops, plain_ops = ctx.rec, ctx.traced_ops, ctx.plain_ops
    sim = result["sim"]
    m = {}
    for name, (span_name, how) in SPAN_METRICS.items():
        # self times need the inner spans, which only traced ops record
        ops = traced_ops if how == "per_step" else traced_ops + plain_ops
        value = span_metric(rec, span_name, how, ops)
        if value is not None:
            m[name] = value
    mcmc_spans = [rec.spans[i] for op in plain_ops + traced_ops
                  for i in rec.of_op(op, "ergodic.mcmc")]
    if mcmc_spans:
        m["ergodic.accept_rate"] = statistics.median(
            sp.counts["accepted"] / sp.counts["steps"] for sp in mcmc_spans
        )

    rng = np.random.default_rng(0)
    n, rank = s.grid.n, s.dec.rank
    v = rng.standard_normal(n)
    field = operator.Field(s.grid, v)
    spread = s.dec.eigenfields * s.noise.b_coeffs(s.dec)
    xi = rng.standard_normal(rank)
    m["operator.matvec_us"] = per_call_us(s.K.dot, v)
    m["operator.matvec_mb"] = s.K.nbytes / 1e6
    m["operator.fft_apply_us"] = per_call_us(operator.apply_operator, s.kernel, s.grid, field)
    m["operator.rank"] = rank
    m["energy.gain_f_us"] = per_call_us(s.gain.f, v)
    m["energy.gain_phi_us"] = per_call_us(s.gain.phi, v)
    m["sde.spread_us"] = per_call_us(spread.dot, xi)
    if "target" in result:
        target = result["target"]
        x = rng.standard_normal(target.n_modes) * 0.1
        m["ergodic.logdensity_us"] = per_call_us(ergodic.gibbs_log_density, target, x)
    if "sde.em_step_us" in m:
        m["sde.em_step_overhead_us"] = m["sde.em_step_us"] - (
            m["operator.matvec_us"] + m["sde.spread_us"] + m["energy.gain_f_us"]
        )
    m["sde.noise_path_mb"] = noise_path_mb(wl.command, s, result)
    m["sde.snapshot_us"] = snapshot_us(s, sim, wl.command)
    m["sde.snapshots"] = statistics.median(
        sum(rec.spans[i].counts["snapshots"] for name in STEP_SPANS for i in rec.of_op(op, name)
            if "snapshots" in rec.spans[i].counts)
        for op in plain_ops + traced_ops
    )
    m["cli.import_s"] = cli_import_s(ctx.root)
    cli_dir = ctx.out.parent / "cli"
    cli_dir.mkdir(exist_ok=True)
    m["cli.command_s"] = cli_command_s(wl, ctx.seed, cli_dir)
    if traced_ops and plain_ops:
        walls = [
            statistics.median(rec.spans[rec.of_op(op, "op")[0]].duration for op in ops)
            for ops in (traced_ops, plain_ops)
        ]
        m["trace.overhead_ratio"] = walls[0] / walls[1]
    return m
