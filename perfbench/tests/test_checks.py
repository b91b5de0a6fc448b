"""The benchmark's checks pass on the program's outputs and fail on
planted faults; the replayed operations write what the CLI writes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import layers
import run as bench
from amariflow import cli, ergodic, operator, sde
from spans import Recorder
from workloads import WORKLOADS, cli_argv, prepare, run_op

ROOT = Path(__file__).resolve().parents[2]


def replay(tmp_path, name, seed, extra=()):
    out = tmp_path / f"{name}-{seed}"
    out.mkdir()
    return run_op(Recorder(), WORKLOADS[name], seed, out, extra)


# -- decomposition -----------------------------------------------------------

@pytest.fixture(scope="module")
def periodic():
    s = prepare(Recorder(), WORKLOADS["wide-periodic"], 1, ("grid.n=256",))
    return s, checks.operator_from_formula(s)


@pytest.fixture(scope="module")
def truncated():
    s = prepare(Recorder(), WORKLOADS["pathwise-order"], 1)
    return s, checks.operator_from_formula(s)


@pytest.mark.parametrize("case", ["periodic", "truncated"])
def test_decomposition_holds(case, request):
    s, K = request.getfixturevalue(case)
    assert checks.check_decomposition(K, s.grid, s.dec.lambdas, s.dec.eigenfields) == []


@pytest.mark.parametrize("case", ["periodic", "truncated"])
def test_decomposition_detects_perturbed_K_entry(case, request):
    s, K = request.getfixturevalue(case)
    bad = s.K.copy()
    bad[5, 5] *= 1.0 + 1e-5
    dec = operator.spectral_decompose(bad, s.grid)
    fails = checks.check_decomposition(K, s.grid, dec.lambdas, dec.eigenfields)
    assert any("|KE - E Lambda|" in f for f in fails)


@pytest.mark.parametrize("case", ["periodic", "truncated"])
def test_decomposition_detects_eigenvalue_off_1e6(case, request):
    s, K = request.getfixturevalue(case)
    lam = s.dec.lambdas.copy()
    lam[0] *= 1.0 + 1e-6
    fails = checks.check_decomposition(K, s.grid, lam, s.dec.eigenfields)
    assert any("|KE - E Lambda|" in f for f in fails)
    if case == "periodic":
        assert any("DFT" in f for f in fails)


def test_decomposition_accepts_rotated_degenerate_pair(periodic):
    s, K = periodic
    lam, E = s.dec.lambdas, s.dec.eigenfields.copy()
    assert abs(lam[1] - lam[2]) <= 1e-12 * lam[0]  # cos/sin pair of a circulant
    c, r = np.cos(0.7), np.sin(0.7)
    E[:, 1], E[:, 2] = c * E[:, 1] + r * E[:, 2], -r * E[:, 1] + c * E[:, 2]
    assert checks.check_decomposition(K, s.grid, lam, E) == []


# -- first snapshot ------------------------------------------------------------

def fig1_first_snapshot(s, r, seed=None):
    traj, sim = r["traj"], r["sim"]
    k = checks.first_snapshot_steps(traj)
    path = checks.program_path(s, sim.dt, k, seed=seed)
    mine = checks.em_first_snapshot(checks.operator_from_formula(s), s, sim, path)
    return checks.check_first_snapshot(mine, traj)


def test_first_snapshot_holds(tmp_path):
    s, r = replay(tmp_path, "fig1-switching", 3, ("sim.t_final=2.5",))
    assert fig1_first_snapshot(s, r) == []


def test_first_snapshot_detects_path_from_another_seed(tmp_path):
    s, r = replay(tmp_path, "fig1-switching", 3, ("sim.t_final=2.5",))
    assert fig1_first_snapshot(s, r, seed=4) != []


def test_first_snapshot_detects_perturbed_K_entry(tmp_path, monkeypatch):
    build = sde.build_operator_matrix

    def perturbed(kernel, grid):
        K = build(kernel, grid)
        K[5, 5] *= 1.0 + 1e-5
        return K

    monkeypatch.setattr(sde, "build_operator_matrix", perturbed)
    s, r = replay(tmp_path, "fig1-switching", 3, ("sim.t_final=2.5",))
    assert fig1_first_snapshot(s, r) != []


def test_galerkin_first_snapshot_detects_path_from_another_seed(tmp_path):
    extra = ("gibbs.mcmc_steps=1000", "gibbs.burn_in=100", "gibbs.sde_t=20")
    s, r = replay(tmp_path, "gibbs-invariant", 1, extra)
    traj, sim, n = r["traj"], r["sim"], r["target"].n_modes
    k = checks.first_snapshot_steps(traj)
    ok = checks.galerkin_first_snapshot(s, sim, n, checks.program_path(s, sim.dt, k))
    other = checks.galerkin_first_snapshot(s, sim, n, checks.program_path(s, sim.dt, k, seed=2))
    assert checks.check_first_snapshot(ok, traj) == []
    assert checks.check_first_snapshot(other, traj) != []


# -- switching -------------------------------------------------------------------

def test_switching_holds_and_detects_faults(tmp_path):
    s, r = replay(tmp_path, "fig1-switching", 1, ("sim.t_final=20",))
    assert checks.check_switching(r["traj"], r["events"]) == []
    r["traj"].states[3, 7] = np.nan
    assert any("non-finite" in f for f in checks.check_switching(r["traj"], r["events"]))
    s, r = replay(tmp_path, "fig1-switching", 2, ("sim.t_final=2",))
    assert any("no switch" in f for f in checks.check_switching(r["traj"], r["events"]))


# -- invariant measure -------------------------------------------------------------

def test_invariant_measure_holds_and_detects_eigenvalue_off(tmp_path):
    s, r = replay(tmp_path, "gibbs-invariant", 1)
    target = r["target"]
    assert checks.check_invariant_measure(target, r["m_mcmc"], r["m_sde"]) == []
    lam = s.dec.lambdas.copy()
    lam[0] *= 1.01
    wrong = ergodic.GibbsTarget(
        dec=operator.SpectralDecomposition(s.grid, lam, s.dec.eigenfields,
                                           s.dec.threshold, s.dec.discarded_max),
        gain=s.gain, alpha=target.alpha, epsilon=target.epsilon, n_modes=2,
    )
    samples, _ = ergodic.rw_metropolis(wrong, steps=20000, seed=1, burn_in=2000)
    fails = checks.check_invariant_measure(target, ergodic.ergodic_moments(samples), r["m_sde"])
    assert any("MCMC vs quadrature" in f for f in fails)


# -- pathwise order and coarsening -----------------------------------------------------

def test_pathwise_order_holds_and_detects_path_from_another_seed(tmp_path):
    s, r = replay(tmp_path, "pathwise-order", 5, ("sim.t_final=2.0",))
    assert checks.check_pathwise(r["rows"], r["fine"], r["paths"]) == []
    other = sde.sample_noise_increments(s.noise, s.dec, r["fine"].dt, r["fine"].steps, seed=6)
    rows = []
    for path, (sim_j, ref) in zip(r["paths"], r["refs"]):
        coarse = other.coarsen(r["fine"].steps // path.steps)
        ds = sde.doss_sussmann_simulate(s.dec, s.gain, s.noise, sim_j, path=coarse)
        diff = ref.states - ds.states @ s.dec.eigenfields.T
        rows.append((sim_j.dt, float(np.sqrt(s.grid.h * np.sum(diff * diff, axis=1)).max())))
    assert any("pathwise order" in f for f in checks.check_pathwise(rows, r["fine"], r["paths"]))
    coarse = [other.coarsen(2)]
    assert any("coarsen" in f for f in checks.check_pathwise(r["rows"], r["fine"], coarse))


# -- the replay writes what the CLI writes -----------------------------------------------

SHORT = {
    "fig1-switching": ("sim.t_final=3.0",),
    "gibbs-invariant": ("gibbs.mcmc_steps=3000", "gibbs.burn_in=300", "gibbs.sde_t=30"),
    "wide-periodic": ("sim.t_final=0.5",),
    "pathwise-order": ("sim.t_final=1.0",),
}


@pytest.mark.parametrize("name", sorted(SHORT))
def test_replay_writes_the_cli_bytes(tmp_path, name):
    wl, extra = WORKLOADS[name], SHORT[name]
    lib = tmp_path / "library"
    lib.mkdir()
    run_op(Recorder(), wl, 7, lib, extra)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(cli_argv(wl, tmp_path / "cli", 7, extra)) == 0
    files = sorted(p.name for p in lib.iterdir())
    assert files == sorted(p.name for p in (tmp_path / "cli").iterdir())
    for f in files:
        assert (lib / f).read_bytes() == (tmp_path / "cli" / f).read_bytes(), f


# -- the benchmark program ------------------------------------------------------------------

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_run_prints():
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    units = dict(layers.PER_LAYER)
    assert all(units[m["name"]] == m["unit"] for m in SPEC["per_layer"])


def test_run_all_runs_the_named_workloads(monkeypatch, capsys):
    ran = []

    def fake_run(cmd, **kwargs):
        ran.append(cmd[cmd.index("--workload") + 1])
        assert cmd[cmd.index("--seconds") + 1] == str(float(SPEC["run_seconds"]))
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(cmd, 0, line + "\n", "")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # main() sets them; restored afterwards
    assert bench.main([]) == 0
    assert ran == [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_the_named_per_layer_metrics(name):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "3", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert res["correct"] and res["failed"] == 0, done.stderr
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]


def test_run_prints_one_result_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pathwise-order",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == bench.MIN_OPS
    assert [(k, m["unit"]) for k, m in res["metrics"].items()] == list(bench.END_TO_END)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pathwise-order",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
