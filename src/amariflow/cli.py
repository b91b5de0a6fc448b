"""Command-line front end.

    amariflow <subcommand> --config <path> --out <dir> [--seed N]
              [--override section.key=value ...]

Every subcommand reads one config (defaults apply when --config is
omitted), writes its outputs under --out, and prints a short summary.
Exit codes: 0 success, 1 validation failure (bad config or arguments,
or a run too large for memory), 2 numerical failure (operator not
nonnegative, trajectory blow-up); the failure reason is one line on
stderr either way.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .errors import EmptyPointSetError, NumericalError, ParseError, RangeError, ValidationError
from .ergodic import (
    GibbsTarget,
    compare_measures,
    ergodic_moments,
    familywise_verdict,
    rw_metropolis,
    write_moment_report_jsonl,
    write_samples_csv,
)
from .kernels import bochner_numeric_check, gram_min_eigenvalue
from .operator import (
    build_operator_matrix,
    spectral_decompose,
    write_csv,
    write_spectrum_csv,
)
from .rng import derive_rng
from .sde import (
    convergence_table,
    detect_switches,
    doss_sussmann_simulate,
    em_simulate_full,
    galerkin_simulate,
    sample_noise_increments,
    sup_h_distance,
    write_events_csv,
    write_trajectory_csv,
)

# Largest per-step Theta increase that energy-trace still reads as
# rounding: the allowance of acceptance criterion 2.
THETA_INCREASE_ALLOWANCE = 1e-12


def _load_config(args) -> cfgmod.ExperimentConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ParseError(
                f"{args.config}: not UTF-8 text ({e.reason} at byte {e.start})"
            ) from None
        cfg = cfgmod.parse_config(text)
    elif args.command == "fig1":
        cfg = cfgmod.preset_fig1()
    else:
        cfg = cfgmod.default_config()
    for spec in args.override:
        cfgmod.apply_override(cfg, spec)
    if args.seed is not None:
        cfg.values["noise"]["seed"] = int(args.seed)
    return cfg


def _decompose(cfg):
    kernel = cfgmod.build_kernel(cfg)
    grid = cfgmod.build_grid(cfg)
    dec = spectral_decompose(
        build_operator_matrix(kernel, grid), grid,
        rel_tol=float(cfg.get("galerkin", "rel_tol")),
        neg_tol=float(cfg.get("galerkin", "neg_tol")),
    )
    return kernel, grid, dec


def _setup(cfg):
    """Everything a run needs: kernel, grid, dec, gain, noise and sim."""
    kernel, grid, dec = _decompose(cfg)
    gain = cfgmod.build_gain(cfg)
    noise = cfgmod.build_noise(cfg)
    sim = cfgmod.build_sim(cfg, cfgmod.build_u0(cfg, grid, dec))
    return kernel, grid, dec, gain, noise, sim


def _cmd_check_kernel(cfg, out: Path) -> int:
    kernel = cfgmod.build_kernel(cfg)
    grid = cfgmod.build_grid(cfg)
    analytic = kernel.classify()
    report = {
        "family": kernel.family,
        "analytic_verdict": analytic.verdict.value,
        "analytic_witness": analytic.witness,
        "analytic_reason": analytic.reason,
        "thresholds": kernel.thresholds(),
    }
    if kernel.has_density():
        numeric = bochner_numeric_check(
            kernel,
            xi_max=float(cfg.get("kernel", "xi_max")),
            n_xi=int(cfg.get("kernel", "n_xi")),
            tol=float(cfg.get("kernel", "tol")),
        )
        report["numeric_verdict"] = numeric.verdict.value
        report["numeric_witness"] = numeric.witness
        report["numeric_reason"] = numeric.reason
    else:
        report["numeric_verdict"] = None
        report["numeric_reason"] = "atomic spectrum: no density sweep"
    n_points = int(cfg.get("kernel", "gram_points"))
    if n_points < 1:
        raise EmptyPointSetError("Gram check needs at least one point")
    rng = derive_rng(int(cfg.get("noise", "seed")), 2)
    pts = rng.uniform(grid.a, grid.b, size=n_points)
    report["gram_min_eigenvalue"] = gram_min_eigenvalue(kernel, pts)
    with open(out / "kernel_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"{kernel.family}: analytic {report['analytic_verdict']}, "
        f"numeric {report['numeric_verdict']}, "
        f"gram min eigenvalue {report['gram_min_eigenvalue']:.3e}"
    )
    return 0


def _cmd_spectrum(cfg, out: Path) -> int:
    _, _, dec = _decompose(cfg)
    write_spectrum_csv(dec, out / "spectrum.csv")
    lead = f", lambda_1 = {float(dec.lambdas[0])!r}" if dec.rank else ""
    print(f"retained rank {dec.rank}{lead}, threshold {float(dec.threshold)!r}")
    return 0


def _cmd_simulate(cfg, out: Path) -> int:
    kernel, grid, dec, gain, noise, sim = _setup(cfg)
    traj = em_simulate_full(kernel, grid, gain, noise, sim, dec=dec)
    write_trajectory_csv(traj, out / "trajectory.csv")
    events = detect_switches(
        traj,
        float(cfg.get("output", "switch_lower")),
        float(cfg.get("output", "switch_upper")),
    )
    write_events_csv(events, out / "events.csv")
    print(
        f"{sim.n_steps} steps to t = {sim.effective_t_final!r}; "
        f"final mean {traj.mean_series[-1]:.6g}; {len(events)} switch events"
    )
    return 0


def _cmd_galerkin_compare(cfg, out: Path) -> int:
    kernel, grid, dec, gain, noise, sim = _setup(cfg)
    n_list = cfg.get("galerkin", "n_list")
    rows = convergence_table(kernel, grid, dec, gain, noise, sim, n_list)
    write_csv(out / "galerkin_convergence.csv", ["n_modes", "sup_error"], rows)
    for n, err in rows:
        print(f"N = {n:4d}: sup error {err:.6e}")
    return 0


def _cmd_energy_trace(cfg, out: Path) -> int:
    kernel, grid, dec, gain, noise, sim = _setup(cfg)
    # Deterministic trace: force eps = 0, project the start into S so the
    # Lyapunov value is defined, record every step.
    u0p = dec.reconstruct(dec.coeffs(sim.u0))
    sim = dataclasses.replace(sim, u0=u0p, epsilon=0.0, record_every=1)
    traj = em_simulate_full(kernel, grid, gain, noise, sim, dec=dec)
    theta = traj.diagnostics["theta"]
    write_csv(out / "energy.csv", ["t", "theta"], zip(traj.times, theta))
    increases = np.diff(theta)
    max_inc = float(increases.max()) if increases.size else 0.0
    print(
        f"theta start {float(theta[0])!r}, end {float(theta[-1])!r}, "
        f"max step increase {max_inc:.3e} against an allowance of "
        f"{THETA_INCREASE_ALLOWANCE:.0e} "
        f"({'monotone' if max_inc <= THETA_INCREASE_ALLOWANCE else 'not monotone'})"
    )
    return 0


def _cmd_ds_compare(cfg, out: Path) -> int:
    kernel, grid, dec, gain, noise, sim = _setup(cfg)
    halvings = int(cfg.get("sim", "ds_halvings"))
    if halvings < 1:
        raise ValidationError(f"need ds_halvings >= 1, got {halvings}")
    # every level is validated (its step count too) before the path is drawn;
    # each runs to the coarse level's end, so level j has n_steps * 2**j steps
    levels = [
        dataclasses.replace(
            sim, dt=sim.dt / 2**j, t_final=sim.effective_t_final,
            record_every=sim.record_every * 2**j,
        )
        for j in range(halvings + 1)
    ]
    if noise.mode != "spectral":
        raise RangeError("the pathwise transform needs spectral noise")
    fine = sample_noise_increments(noise, dec, levels[-1].dt, sim.n_steps * 2**halvings)
    rows = []
    for j, sim_j in enumerate(levels):
        path = fine.coarsen(2 ** (halvings - j))
        ref = em_simulate_full(kernel, grid, gain, noise, sim_j, dec=dec, path=path)
        ds = doss_sussmann_simulate(dec, gain, noise, sim_j, path=path)
        rows.append([sim_j.dt, sup_h_distance(dec, ref, ds)])
    for j, (dt_j, sup) in enumerate(rows):
        ratio = sup / rows[j + 1][1] if j + 1 < len(rows) and rows[j + 1][1] > 0 else ""
        rows[j].append(ratio)
        print(
            f"dt = {dt_j:.6g}: sup discrepancy {sup:.6e}"
            + (f", shrink ratio {ratio:.3f}" if ratio != "" else "")
        )
    write_csv(out / "ds_compare.csv", ["dt", "sup_discrepancy", "ratio_vs_next_finer"], rows)
    return 0


def _cmd_gibbs_compare(cfg, out: Path) -> int:
    _, _, dec, gain, noise, sim = _setup(cfg)
    if noise.mode != "spectral" or noise.rule != "b_sq_eq_k":
        raise ValidationError(
            "the invariant-measure comparison is defined for the reversible "
            "noise rule b_sq_eq_k"
        )
    N = int(cfg.get("gibbs", "n_modes"))
    target = GibbsTarget(dec=dec, gain=gain, alpha=sim.alpha, epsilon=sim.epsilon, n_modes=N)
    # the SDE leg is checked before the chain runs
    sim = dataclasses.replace(
        sim,
        t_final=float(cfg.get("gibbs", "sde_t")),
        record_every=int(cfg.get("gibbs", "sde_record_every")),
    )
    sde_burn_in = int(cfg.get("gibbs", "sde_burn_in"))
    if sde_burn_in < 0:
        raise RangeError(f"need burn_in >= 0, got {sde_burn_in!r}")
    samples, acc = rw_metropolis(
        target,
        steps=int(cfg.get("gibbs", "mcmc_steps")),
        step_scale=float(cfg.get("gibbs", "step_scale")),
        seed=noise.seed,
        burn_in=int(cfg.get("gibbs", "burn_in")),
    )
    write_samples_csv(samples, out / "samples.csv")
    traj = galerkin_simulate(dec, gain, noise, sim, n_modes=N)
    m_mcmc = ergodic_moments(samples)
    m_sde = ergodic_moments(traj, burn_in=sde_burn_in)
    report = compare_measures(m_mcmc, m_sde)
    write_moment_report_jsonl(report, out / "moment_report.jsonl")
    verdict = familywise_verdict(report)
    print(
        f"MCMC acceptance {acc:.3f}; max |z| = {report.max_abs_z:.3f} over "
        f"{verdict['n_comparisons']} comparisons "
        f"({'agree' if verdict['familywise_passed'] else 'DISAGREE'} at the Sidak "
        f"threshold {verdict['familywise_threshold']:.3f}, 3 SE for one)"
    )
    return 0


_DISPATCH = {
    "check-kernel": _cmd_check_kernel,
    "spectrum": _cmd_spectrum,
    "simulate": _cmd_simulate,
    "galerkin-compare": _cmd_galerkin_compare,
    "energy-trace": _cmd_energy_trace,
    "doss-sussmann-compare": _cmd_ds_compare,
    "gibbs-compare": _cmd_gibbs_compare,
    "fig1": _cmd_simulate,
}
COMMANDS = tuple(_DISPATCH)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="amariflow",
        description="Stochastic neural field dynamics as a nonlocal gradient flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="config file path")
        p.add_argument("--out", type=str, default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override noise seed")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # an overflow is reported by the one-line error it leads to, so
        # numpy's floating-point warnings would only add lines to stderr
        with np.errstate(all="ignore"):
            return _DISPATCH[args.command](cfg, out)
    except (ValidationError, NumericalError, OSError, MemoryError) as e:
        # numpy's MemoryError is a private subclass: report the public name
        name = "MemoryError" if isinstance(e, MemoryError) else type(e).__name__
        print(f"error: {name}: {' '.join(str(e).split())}", file=sys.stderr)
        return 2 if isinstance(e, NumericalError) else 1


if __name__ == "__main__":
    sys.exit(main())
