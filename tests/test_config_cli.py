import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amariflow
from amariflow import Gaussian, MexicanHatGauss, cli, sde
from amariflow.cli import main
from amariflow.config import (
    SCHEMA,
    apply_override,
    build_gain,
    build_grid,
    build_kernel,
    build_noise,
    build_sim,
    build_u0,
    default_config,
    parse_config,
    preset_fig1,
    serialize_config,
)
from amariflow.ergodic import sidak_threshold
from amariflow.errors import ParseError, RangeError, UnknownKeyError


def test_empty_text_gives_defaults():
    assert parse_config("").values == default_config().values


def test_serialize_roundtrip_defaults():
    cfg = default_config()
    assert parse_config(serialize_config(cfg)).values == cfg.values


# bounded so that the rounded spellings stay finite
FINITE = st.floats(-1e300, 1e300)
FLOAT_TEXT = st.sampled_from(("{!r}", "{:.17g}", "{:.3e}", "{:f}"))
# config text for each value kind, in several spellings
VALUE_TEXT = {
    "float": st.tuples(FLOAT_TEXT, FINITE).map(lambda p: p[0].format(p[1])),
    "int": st.integers(-(10**12), 10**12).map(str),
    "bool": st.sampled_from(("true", "false", "True", "FALSE")),
    "str": st.text("abcdefghijklmnopqrstuvwxyz0123456789_.-", min_size=1, max_size=12),
    "floats": st.lists(FINITE, max_size=4).map(lambda v: ",".join(map(repr, v))),
    "ints": st.lists(st.integers(-(10**6), 10**6), max_size=4).map(
        lambda v: " , ".join(map(str, v))
    ),
}


@st.composite
def config_texts(draw):
    lines = []
    for section, keys in SCHEMA.items():
        chosen = draw(st.lists(st.sampled_from(sorted(keys)), unique=True, max_size=4))
        if chosen:
            lines.append(f"[{section}]  # {section}")
        for key in chosen:
            value = draw(VALUE_TEXT[keys[key][0]])
            lines.append(f"{key}={value}" if draw(st.booleans()) else f"  {key} = {value}  # c")
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(config_texts())
def test_serialize_roundtrip_generated(text):
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)).values == cfg.values


def test_serialize_roundtrip_awkward_floats():
    cfg = default_config()
    apply_override(cfg, "sim.dt=0.1")
    apply_override(cfg, f"sim.alpha={1.0 / 3.0!r}")
    apply_override(cfg, "kernel.scale=1e-7")
    apply_override(cfg, "kernel.weights=0.30000000000000004, 6.02e23")
    again = parse_config(serialize_config(cfg))
    assert again.values == cfg.values
    assert again.get("sim", "alpha") == 1.0 / 3.0
    assert again.get("kernel", "weights") == (0.30000000000000004, 6.02e23)


def test_parse_types_and_comments():
    text = """
    # leading comment
    [sim]
    alpha = 2.5        # trailing comment
    record_every = 4
    [gain]
    family = tanh
    allow_non_lipschitz = TRUE
    [noise]
    custom = 1.0, 0.5, 0.25
    """
    cfg = parse_config(text)
    assert cfg.get("sim", "alpha") == 2.5
    assert cfg.get("sim", "record_every") == 4
    assert cfg.get("gain", "family") == "tanh"
    assert cfg.get("gain", "allow_non_lipschitz") is True
    assert cfg.get("noise", "custom") == (1.0, 0.5, 0.25)
    # untouched keys keep defaults
    assert cfg.get("sim", "dt") == default_config().get("sim", "dt")


def test_duplicate_key_cites_both_lines():
    text = "[sim]\nalpha = 1.0\ndt = 0.01\nalpha = 2.0\n"
    with pytest.raises(ParseError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "sim.alpha" in msg and "2" in msg and "4" in msg


def test_unknown_section_and_key():
    with pytest.raises(UnknownKeyError) as err:
        parse_config("[solver]\ntol = 1.0\n")
    assert "line 1" in str(err.value)
    with pytest.raises(UnknownKeyError) as err:
        parse_config("[sim]\nalfa = 1.0\n")
    assert "alfa" in str(err.value)


def test_parse_structural_errors():
    with pytest.raises(ParseError):
        parse_config("alpha = 1.0\n")  # key before any section
    with pytest.raises(ParseError):
        parse_config("[sim\nalpha = 1.0\n")
    with pytest.raises(ParseError):
        parse_config("[sim]\nalpha 1.0\n")
    with pytest.raises(ParseError):
        parse_config("[gain]\nfamily =\n")


def test_parse_value_errors_cite_position():
    with pytest.raises(ParseError) as err:
        parse_config("[sim]\nalpha = fast\n")
    assert "line 2" in str(err.value) and "column 9" in str(err.value)
    with pytest.raises(ParseError):
        parse_config("[sim]\nalpha = inf\n")
    with pytest.raises(ParseError):
        parse_config("[sim]\nrecord_every = 2.5\n")
    with pytest.raises(ParseError):
        parse_config("[gain]\nallow_non_lipschitz = yes\n")
    with pytest.raises(ParseError):
        parse_config("[noise]\ncustom = 1.0, soup\n")


def test_apply_override_validation():
    cfg = default_config()
    apply_override(cfg, "galerkin.n_list=1, 2, 16")
    assert cfg.get("galerkin", "n_list") == (1, 2, 16)
    with pytest.raises(ParseError):
        apply_override(cfg, "sim.alpha")
    with pytest.raises(ParseError):
        apply_override(cfg, "alpha=1.0")
    with pytest.raises(UnknownKeyError):
        apply_override(cfg, "solver.tol=1.0")
    with pytest.raises(UnknownKeyError):
        apply_override(cfg, "sim.alfa=1.0")
    with pytest.raises(ParseError, match="override 'sim.alpha=fast': 'fast' is not a float"):
        apply_override(cfg, "sim.alpha=fast")


def test_build_kernel_variants():
    cfg = default_config()
    k = build_kernel(cfg)
    assert isinstance(k, Gaussian) and k.width == 1.0 and k.scale == 1.0
    apply_override(cfg, "kernel.family=mexican_hat_gauss")
    apply_override(cfg, "kernel.amp=0.5")
    apply_override(cfg, "kernel.s=3.0")
    k = build_kernel(cfg)
    assert isinstance(k, MexicanHatGauss) and k.amp == 0.5 and k.s == 3.0
    apply_override(cfg, "kernel.family=blob")
    with pytest.raises(RangeError):
        build_kernel(cfg)


def test_build_objects_from_defaults():
    cfg = default_config()
    grid = build_grid(cfg)
    assert (grid.a, grid.b, grid.n, grid.boundary) == (-5.0, 5.0, 128, "truncated")
    gain = build_gain(cfg)
    assert gain.family == "sigmoid"
    noise = build_noise(cfg)
    assert noise.mode == "spectral" and noise.rule == "b_sq_eq_k" and noise.seed == 1
    u0 = build_u0(cfg, grid, None)
    assert np.all(u0.values == 0.0)
    sim = build_sim(cfg, u0)
    assert sim.n_steps == 100


def test_build_white_and_custom_noise():
    cfg = default_config()
    apply_override(cfg, "noise.mode=white")
    noise = build_noise(cfg)
    assert noise.mode == "white" and noise.rule is None
    cfg = default_config()
    apply_override(cfg, "noise.rule=custom")
    apply_override(cfg, "noise.custom=0.5, 0.25")
    noise = build_noise(cfg)
    assert noise.custom == (0.5, 0.25)


def test_build_u0_from_modes(gauss_setup):
    _, grid, dec = gauss_setup
    cfg = default_config()
    apply_override(cfg, "grid.a=-4.0")
    apply_override(cfg, "grid.b=4.0")
    apply_override(cfg, "grid.n=64")
    apply_override(cfg, "sim.u0_modes=1.0, 0.5")
    u0 = build_u0(cfg, grid, dec)
    expect = dec.eigenfields[:, 0] + 0.5 * dec.eigenfields[:, 1]
    assert np.max(np.abs(u0.values - expect)) < 1e-12
    with pytest.raises(RangeError):
        build_u0(cfg, grid, None)


def test_preset_fig1_values():
    cfg = preset_fig1()
    assert cfg.get("kernel", "family") == "gaussian"
    assert cfg.get("kernel", "width") == 0.05
    assert abs(cfg.get("kernel", "scale") - 1.0 / (0.05 * math.sqrt(2 * math.pi))) < 1e-15
    assert (cfg.get("grid", "a"), cfg.get("grid", "b")) == (-20.0, 20.0)
    assert cfg.get("grid", "n") == 400
    assert cfg.get("gain", "family") == "cubic"
    assert cfg.get("gain", "allow_non_lipschitz") is True
    assert cfg.get("noise", "mode") == "spectral"
    assert cfg.get("noise", "rule") == "b_sq_eq_k"
    assert cfg.get("sim", "alpha") == 0.1
    assert cfg.get("sim", "epsilon") == 0.3
    assert cfg.get("sim", "dt") == 0.01
    assert cfg.get("sim", "t_final") == 2500.0
    assert cfg.get("sim", "u0") == 0.8
    # the deterministic interior fixed point sits inside (0.9, 1): the
    # discrete row mass is 1/sqrt(width) for this amplitude convention
    mass = 1.0 / math.sqrt(0.05)
    gain = build_gain(cfg)
    from scipy.optimize import brentq
    root = brentq(lambda s: 0.1 * s - mass * gain.f(s), 0.5, 1.0)
    assert 0.9 < root < 1.0


# -- command-line entry -------------------------------------------------------


def test_cli_check_kernel_report(tmp_path, capsys):
    assert main(["check-kernel", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "kernel_report.json").read_text())
    assert report["family"] == "gaussian"
    assert report["analytic_verdict"] == "nonnegative_definite"
    assert report["numeric_verdict"] == "nonnegative_definite"
    assert report["gram_min_eigenvalue"] > -1e-6
    out = capsys.readouterr().out
    assert "gaussian" in out and "gram min eigenvalue" in out


def test_cli_check_kernel_thresholds(tmp_path):
    code = main([
        "check-kernel", "--out", str(tmp_path),
        "--override", "kernel.family=mexican_hat_gauss",
        "--override", "kernel.amp=0.5",
        "--override", "kernel.s=3.0",
    ])
    assert code == 0
    report = json.loads((tmp_path / "kernel_report.json").read_text())
    assert report["analytic_verdict"] == "indefinite"
    assert abs(report["thresholds"]["s_min"] - math.sqrt(2.0)) < 1e-15
    assert abs(report["thresholds"]["s_max"] - 2.0 * math.sqrt(2.0)) < 1e-15
    assert report["analytic_witness"] is not None


def test_cli_spectrum(tmp_path, capsys):
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert lines[0] == "index,lambda"
    assert len(lines) > 8
    assert "retained rank" in capsys.readouterr().out


def test_cli_spectrum_rank_zero(tmp_path, capsys):
    # J identically 0: nothing is retained, which is a result, not a failure
    code = main(["spectrum", "--out", str(tmp_path),
                 "--override", "kernel.family=cosine_sum", "--override", "kernel.weights=0.0"])
    assert code == 0
    assert (tmp_path / "spectrum.csv").read_text() == "index,lambda\n"
    out, err = capsys.readouterr()
    assert out == "retained rank 0, threshold 0.0\n"
    assert err == ""


@pytest.mark.parametrize("command, output", [
    ("energy-trace", "energy.csv"),
    ("doss-sussmann-compare", "ds_compare.csv"),
])
def test_cli_rank_zero_runs(tmp_path, capsys, command, output):
    # J identically 0: S is {0}, so the run stays at the projected start 0
    code = main([command, "--out", str(tmp_path), "--override", "kernel.family=zero",
                 "--override", "sim.epsilon=0.3", "--override", "sim.t_final=0.5"])
    assert code == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(tmp_path / output, delimiter=",", skiprows=1, usecols=(0, 1))
    assert rows.shape[0] > 1 and np.isfinite(rows).all()


@pytest.mark.parametrize("overrides, code, message", [
    # the operator matrix overflows to inf
    (("kernel.scale=1e308", "grid.a=-1e300", "grid.b=1e300"),
     1, "error: ValidationError: operator matrix has non-finite entries\n"),
    # every entry of K is finite, its largest eigenvalue is not
    (("kernel.family=exponential", "kernel.scale=1e308", "kernel.rate=1e-3"),
     2, "error: NumericalError: operator spectrum has non-finite eigenvalues\n"),
])
def test_cli_spectrum_non_finite_is_one_line(tmp_path, capsys, overrides, code, message):
    argv = ["spectrum", "--out", str(tmp_path)]
    for spec in overrides:
        argv += ["--override", spec]
    with np.errstate(over="ignore"):
        assert main(argv) == code
    assert capsys.readouterr().err == message
    assert not (tmp_path / "spectrum.csv").exists()


def cli_subprocess(out, *args):
    """The CLI in a child process: pytest captures numpy's warnings
    in-process, a child shows the stderr a user sees."""
    env = dict(os.environ, PYTHONPATH=str(Path(amariflow.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "amariflow.cli", *args, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("command", ["spectrum", "simulate"])
def test_cli_overflow_is_one_line_in_a_subprocess(tmp_path, command):
    proc = cli_subprocess(
        tmp_path, command, "--override", "kernel.scale=1e308",
        "--override", "grid.a=-1e300", "--override", "grid.b=1e300",
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: ValidationError: operator matrix has non-finite entries\n"


@pytest.mark.parametrize("a, b, what", [
    ("-1e308", "1e308", "length b - a"),  # b - a overflows to inf
    ("0", "5e-324", "cell width h"),  # h underflows to 0
])
def test_cli_degenerate_domain_is_one_line_in_a_subprocess(tmp_path, a, b, what):
    proc = cli_subprocess(
        tmp_path, "spectrum", "--override", f"grid.a={a}", "--override", f"grid.b={b}"
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: InvalidDomainError: {what} of ")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "spectrum.csv").exists()


def test_cli_non_utf8_config_is_one_line_in_a_subprocess(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe\x00bad")
    proc = cli_subprocess(tmp_path / "out", "spectrum", "--config", str(bad))
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: ParseError: {bad}: not UTF-8 text (invalid start byte at byte 0)\n"
    )


# every size is 1e14 elements or more, beyond a 47-bit address space, so
# each allocation fails at once
@pytest.mark.parametrize("command, override, error", [
    ("simulate", "sim.t_final=1e300", "RangeError: t_final / dt = 1e+302 steps"),
    ("doss-sussmann-compare", "sim.ds_halvings=200", "RangeError: t_final / dt = "),
    ("gibbs-compare", "gibbs.mcmc_steps=100000000000000000", "MemoryError: "),
    ("check-kernel", "kernel.n_xi=100000000000000000", "MemoryError: "),
    ("check-kernel", "kernel.gram_points=100000000000000", "MemoryError: "),
])
def test_cli_oversized_run_is_one_line_in_a_subprocess(tmp_path, command, override, error):
    proc = cli_subprocess(tmp_path, command, "--override", override)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {error}")
    assert proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.parametrize("args, error", [
    (("simulate", "--seed", "-1"), "RangeError: need a seed >= 0, got -1"),
    (("simulate", "--override", "noise.seed=-3"), "RangeError: need a seed >= 0, got -3"),
    (("check-kernel", "--override", "kernel.gram_points=-5"),
     "EmptyPointSetError: Gram check needs at least one point"),
])
def test_cli_negative_seed_or_gram_points_is_one_line_in_a_subprocess(tmp_path, args, error):
    proc = cli_subprocess(tmp_path, *args)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {error}\n"


@pytest.mark.parametrize("args, error", [
    (("doss-sussmann-compare", "--override", "sim.ds_halvings=0"),
     "ValidationError: need ds_halvings >= 1, got 0"),
    (("simulate", "--override", "sim.clamp=0"), "RangeError: clamp must be positive, got 0.0"),
])
def test_cli_zero_halvings_or_clamp_is_one_line_in_a_subprocess(tmp_path, args, error):
    proc = cli_subprocess(tmp_path, *args)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {error}\n"


def test_cli_simulate_outputs(tmp_path, capsys):
    code = main([
        "simulate", "--out", str(tmp_path),
        "--override", "sim.t_final=0.1",
    ])
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "events.csv").exists()
    assert "10 steps" in capsys.readouterr().out


def output_bytes(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


# the commands whose outputs depend on the noise seed; spectrum and the
# eps = 0 energy trace do not
SEEDED = ("check-kernel", "simulate", "galerkin-compare", "doss-sussmann-compare",
          "gibbs-compare", "fig1")


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_cli_simulate_deterministic(tmp_path, command):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    args = [command, "--override", "sim.t_final=0.2",
            "--override", "sim.epsilon=0.3",
            "--override", "gibbs.mcmc_steps=2000",
            "--override", "gibbs.burn_in=200",
            "--override", "gibbs.sde_t=50.0"]
    assert main(args + ["--out", str(a), "--seed", "5"]) == 0
    assert main(args + ["--out", str(b), "--seed", "5"]) == 0
    assert main(args + ["--out", str(c), "--seed", "6"]) == 0
    ta = output_bytes(a)
    assert ta and ta == output_bytes(b)
    assert (ta != output_bytes(c)) == (command in SEEDED)
    # --seed is shorthand for overriding the noise seed
    d = tmp_path / "d"
    assert main(args + ["--out", str(d), "--override", "noise.seed=5"]) == 0
    assert ta == output_bytes(d)


def test_cli_energy_trace(tmp_path, capsys):
    code = main([
        "energy-trace", "--out", str(tmp_path),
        "--override", "sim.t_final=0.5",
        "--override", "sim.u0=0.5",
    ])
    assert code == 0
    assert "(monotone)" in capsys.readouterr().out
    lines = (tmp_path / "energy.csv").read_text().strip().splitlines()
    assert lines[0] == "t,theta"
    assert len(lines) == 51 + 1
    theta = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(np.diff(theta) <= 1e-12)


def test_cli_galerkin_compare(tmp_path, capsys):
    code = main([
        "galerkin-compare", "--out", str(tmp_path),
        "--override", "sim.t_final=0.5",
        "--override", "sim.epsilon=0.2",
    ])
    assert code == 0
    lines = (tmp_path / "galerkin_convergence.csv").read_text().strip().splitlines()
    assert lines[0] == "n_modes,sup_error"
    errs = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(errs) == 4
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_cli_energy_trace_rounding_is_monotone(tmp_path, capsys, monkeypatch):
    # The default trace's own rounding rises are an accident of the
    # eigensolver (none at all under divide and conquer), so a rise of
    # 16 ulps of Theta, rounding level, is planted in its last step.
    real = cli.em_simulate_full

    def planted(*args, **kwargs):
        traj = real(*args, **kwargs)
        theta = traj.diagnostics["theta"]
        theta[-1] = theta[-2] + 16.0 * np.spacing(abs(theta[-2]))
        return traj

    monkeypatch.setattr(cli, "em_simulate_full", planted)
    code = main([
        "energy-trace", "--out", str(tmp_path),
        "--override", "sim.t_final=20",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "against an allowance of 1e-12 (monotone)" in out
    theta = np.loadtxt(tmp_path / "energy.csv", delimiter=",", skiprows=1)[:, 1]
    assert 0.0 < np.diff(theta).max() <= 1e-12


# one assembly for the decomposition, and one in each grid EM run: the
# doss-sussmann comparison makes ds_halvings + 1 = 4 of them
@pytest.mark.parametrize("command, assemblies", [
    ("spectrum", 1),
    ("simulate", 2),
    ("energy-trace", 2),
    ("galerkin-compare", 2),
    ("doss-sussmann-compare", 5),
    ("gibbs-compare", 1),
])
def test_cli_assembles_the_operator_once_per_decomposition_and_em_run(
    tmp_path, monkeypatch, command, assemblies
):
    calls = []
    real = cli.build_operator_matrix

    def counted(kernel, grid):
        calls.append(grid.n)
        return real(kernel, grid)

    monkeypatch.setattr(cli, "build_operator_matrix", counted)
    monkeypatch.setattr(sde, "build_operator_matrix", counted)
    code = main([
        command, "--out", str(tmp_path),
        "--override", "sim.t_final=0.2",
        "--override", "sim.epsilon=0.3",
        "--override", "gibbs.mcmc_steps=200",
        "--override", "gibbs.burn_in=20",
        "--override", "gibbs.sde_t=20.0",
        "--override", "gibbs.sde_burn_in=10",
    ])
    assert code == 0
    assert len(calls) == assemblies


def test_cli_ds_compare_refuses_grid_noise_before_the_draw(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kw):
        raise AssertionError("noise path drawn")

    monkeypatch.setattr(cli, "sample_noise_increments", refuse)
    code = main(["doss-sussmann-compare", "--out", str(tmp_path),
                 "--override", "noise.mode=white"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: RangeError: the pathwise transform needs spectral noise\n"
    )


@pytest.mark.parametrize("n_list, error", [
    ("1000", "RankExceededError: 1000 modes requested, "),
    ("2,0", "RangeError: need n_modes >= 1, got 0"),
    ("", "RangeError: the truncation study needs at least one mode count"),
])
def test_cli_galerkin_compare_checks_n_list_before_the_reference(
    tmp_path, monkeypatch, capsys, n_list, error
):
    def refuse(*args, **kw):
        raise AssertionError("reference run started")

    monkeypatch.setattr(sde, "em_simulate_full", refuse)
    code = main(["galerkin-compare", "--out", str(tmp_path),
                 "--override", f"galerkin.n_list={n_list}"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}")
    assert err.count("\n") == 1
    assert not (tmp_path / "galerkin_convergence.csv").exists()


def test_cli_ds_compare(tmp_path, capsys):
    code = main([
        "doss-sussmann-compare", "--out", str(tmp_path),
        "--override", "sim.t_final=0.5",
        "--override", "sim.epsilon=0.3",
    ])
    assert code == 0
    lines = (tmp_path / "ds_compare.csv").read_text().strip().splitlines()
    assert lines[0] == "dt,sup_discrepancy,ratio_vs_next_finer"
    assert len(lines) == 1 + 3 + 1  # halvings + 1 rows
    first = lines[1].split(",")
    assert 1.5 <= float(first[2]) <= 3.0


def test_cli_ds_compare_dt_not_dividing_t_final(tmp_path, capsys):
    # t_final = 1 is 33.3 steps of 0.03: every level runs to 33 * 0.03
    code = main([
        "doss-sussmann-compare", "--out", str(tmp_path), "--override", "sim.dt=0.03",
    ])
    assert code == 0
    rows = np.loadtxt(tmp_path / "ds_compare.csv", delimiter=",", skiprows=1, usecols=(0, 1))
    assert rows.shape == (4, 2)
    assert np.isfinite(rows[:, 1]).all()


def test_cli_import_leaves_out_scipy_integrate():
    # only kernels.invert_density needs it, and it is slow to load
    env = dict(os.environ, PYTHONPATH=str(Path(amariflow.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, amariflow.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_gibbs_compare(tmp_path, capsys):
    code = main([
        "gibbs-compare", "--out", str(tmp_path),
        "--override", "gibbs.mcmc_steps=2000",
        "--override", "gibbs.burn_in=200",
        "--override", "gibbs.sde_t=50.0",
    ])
    assert code == 0
    assert (tmp_path / "samples.csv").exists()
    assert (tmp_path / "moment_report.jsonl").exists()
    assert "max |z|" in capsys.readouterr().out


def test_cli_gibbs_compare_verdict_counts_comparisons(tmp_path, capsys):
    # seed 20 at the defaults: the largest of 2N = 4 z-scores exceeds 3,
    # within the family-wise threshold 3.399 for correct code
    assert main(["gibbs-compare", "--out", str(tmp_path), "--seed", "20"]) == 0
    out = capsys.readouterr().out
    z = float(out.split("max |z| = ")[1].split()[0])
    assert 3.0 < z <= 3.399
    assert "over 4 comparisons (agree at the Sidak threshold 3.399" in out
    # the report's last line carries the same verdict next to the 3-SE one
    summary = json.loads((tmp_path / "moment_report.jsonl").read_text().splitlines()[-1])
    assert summary["max_abs_z"] == pytest.approx(z, abs=5e-4)
    assert summary["passed"] is False
    assert summary["n_comparisons"] == 4
    assert round(summary["familywise_threshold"], 3) == 3.399
    assert summary["familywise_passed"] is True


def test_sidak_threshold_keeps_one_test_rate():
    from statistics import NormalDist

    assert abs(sidak_threshold(1) - 3.0) < 1e-12
    assert round(sidak_threshold(4), 3) == 3.399
    # the largest of m independent |z| stays below it with the probability
    # that one |z| stays below 3
    cdf = NormalDist().cdf
    one = 1.0 - 2.0 * cdf(-3.0)
    for m in (2, 4, 10):
        inside = (1.0 - 2.0 * cdf(-sidak_threshold(m))) ** m
        assert abs(inside - one) < 1e-12


def test_cli_gibbs_compare_needs_reversible_rule(tmp_path, capsys):
    code = main([
        "gibbs-compare", "--out", str(tmp_path),
        "--override", "noise.rule=b_eq_k",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValidationError:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("override, error", [
    ("gibbs.sde_t=-1", "RangeError: t_final must be positive, got -1.0"),
    ("gibbs.sde_record_every=0", "RangeError: record_every must be an integer >= 1, got 0"),
    ("gibbs.sde_burn_in=-1", "RangeError: need burn_in >= 0, got -1"),
])
def test_cli_gibbs_compare_checks_its_sde_leg_before_the_chain(tmp_path, capsys, override, error):
    assert main(["gibbs-compare", "--out", str(tmp_path), "--override", override]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "samples.csv").exists()


def test_cli_fig1_smoke(tmp_path, capsys):
    code = main([
        "fig1", "--out", str(tmp_path),
        "--override", "sim.t_final=0.5",
    ])
    assert code == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_cli_numerical_failure_exit_2(tmp_path, capsys):
    # a sign-indefinite operator is a numerical failure, not a usage error;
    # the wide grid is needed for the discrete operator to resolve the
    # negative near-zero frequency band
    code = main([
        "simulate", "--out", str(tmp_path),
        "--override", "kernel.family=mexican_hat_gauss",
        "--override", "kernel.amp=0.5",
        "--override", "kernel.s=3.0",
        "--override", "grid.a=-10.0",
        "--override", "grid.b=10.0",
        "--override", "grid.n=200",
        "--override", "sim.t_final=0.1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: NotNonnegativeError:")
    assert err.count("\n") == 1


def test_cli_blowup_exit_2(tmp_path, capsys):
    # grid white noise at eps = 0.5 drives explicit EM on the fig1 preset
    # out of the trust region (seed 1: step 857)
    code = main([
        "fig1", "--out", str(tmp_path),
        "--override", "sim.t_final=20.0",
        "--override", "noise.mode=white",
        "--override", "sim.epsilon=0.5",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BlowUpError:")
    assert "trust region" in err
    assert err.count("\n") == 1


def test_cli_bad_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sim]\nalfa = 1.0\n")
    code = main(["simulate", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: UnknownKeyError:")
    code = main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: FileNotFound")


def test_cli_os_error_exit_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["spectrum", "--out", str(taken)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: FileExistsError:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", ["output.record_states=true", "galerkin.n_modes=0"])
def test_cli_removed_keys_are_unknown(tmp_path, capsys, spec):
    code = main(["simulate", "--out", str(tmp_path), "--override", spec])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: UnknownKeyError:")


def test_cli_bad_override_names_it(tmp_path, capsys):
    code = main(["simulate", "--out", str(tmp_path), "--override", "sim.epsilon=abc"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: ParseError: override 'sim.epsilon=abc': 'abc' is not a float\n"


def test_cli_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[sim]\nt_final = 0.05\ndt = 0.01\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    assert "5 steps" in capsys.readouterr().out
