"""Check that two checkouts of amariflow give byte-identical CLI results.

    python3 tools/cli_identity.py --a <checkout> --b <checkout>

Runs every case below in both checkouts (the package from <checkout>/src)
at seeds 1 and 3 with OPENBLAS_NUM_THREADS=1, the README's condition for
byte-identical outputs.  Compares every output file byte for byte, plus
stdout, stderr and the exit code.  Prints one line per case and seed,
and exits 1 if anything differs, 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 3)

# the wide-periodic benchmark workload's geometry, and its kernel and
# nodes on the default truncated boundary
WIDE = (
    "kernel.family=gaussian",
    "kernel.width=0.5",
    "grid.a=-10.0",
    "grid.b=10.0",
    "grid.n=2048",
)
WIDE_PERIODIC = (*WIDE, "grid.boundary=periodic", "sim.record_every=50")

CASES = (
    ("check-kernel", ()),
    # indefinite: the analytic verdict searches the density for a witness
    ("check-kernel", ("kernel.family=mexican_hat_gauss", "kernel.s=1.2")),
    # s > sqrt(2)/amp: the witness is searched on [0, 10]
    ("check-kernel", ("kernel.family=mexican_hat_gauss", "kernel.s=3.0")),
    ("check-kernel", ("kernel.family=mexican_hat_exp", "kernel.ratio=0.8")),
    # atomic spectrum: no density to sweep
    ("check-kernel", ("kernel.family=cosine_sum",)),
    ("spectrum", ()),
    # indefinite on a periodic grid: the closed form's sign test, exit code 2
    ("spectrum", ("grid.boundary=periodic", "kernel.family=mexican_hat_gauss", "kernel.s=1.2")),
    ("simulate", ()),
    ("energy-trace", ()),
    ("galerkin-compare", ()),
    ("gibbs-compare", ()),
    ("doss-sussmann-compare", ("sim.epsilon=0.3",)),
    # the fig1 geometry: the Doss-Sussmann step at rank 388 and the band EM
    # step on shared paths
    ("doss-sussmann-compare", (
        "kernel.width=0.05", "kernel.scale=7.978845608028654",
        "grid.a=-20.0", "grid.b=20.0", "grid.n=400",
        "gain.family=cubic", "gain.allow_non_lipschitz=true",
        "sim.alpha=0.1", "sim.epsilon=0.3", "sim.u0=0.8", "sim.t_final=2",
    )),
    ("fig1", ("sim.t_final=20",)),
    # the settled deterministic state, whose subnormal products slow the
    # dense product; the fig1 K is applied as a band of half-width 19
    ("fig1", ("sim.epsilon=0", "sim.t_final=20")),
    # grid white noise leaves the trust region before t = 20: exit code 2
    ("fig1", ("sim.t_final=20", "noise.mode=white", "sim.epsilon=0.5")),
    # the fig1 geometry's spectrum: the even/odd split at rank 388 of 400
    ("spectrum", (
        "kernel.family=gaussian", "kernel.width=0.05", "kernel.scale=7.978845608028654",
        "grid.a=-20.0", "grid.b=20.0", "grid.n=400",
    )),
    ("simulate", (*WIDE_PERIODIC, "sim.t_final=1")),
    # the closed-form spectrum of the n = 2048 circulant
    ("spectrum", WIDE_PERIODIC),
    # periodic grids on the closed-form spectrum and the FFT drift
    ("galerkin-compare", ("grid.boundary=periodic", "kernel.width=0.3")),
    ("energy-trace", ("grid.boundary=periodic", "kernel.width=0.3")),
    # full rank on an odd and an even periodic grid: the odd-n basis, and
    # the Nyquist column retained
    *(
        ("galerkin-compare", ("kernel.family=exponential", "grid.boundary=periodic", f"grid.n={n}"))
        for n in (127, 128)
    ),
    # an odd truncated grid off the origin, whose h is not a power of two:
    # the even/odd split with a middle node, and the dense EM step
    *(
        (command, ("grid.a=0.0", "grid.b=7.0", "grid.n=127"))
        for command in ("spectrum", "galerkin-compare")
    ),
    ("simulate", ("grid.a=0.0", "grid.b=7.0", "grid.n=127", "sim.t_final=1")),
    # the wide geometry truncated: the Toeplitz assembly and the even/odd
    # split at n = 2048
    ("spectrum", WIDE),
    # J identically 0: rank 0, so S is {0}; the EM step's band has w = 0
    ("energy-trace", ("kernel.family=zero",)),
    ("simulate", ("kernel.family=zero",)),
    ("doss-sussmann-compare", ("kernel.family=zero", "sim.epsilon=0.3")),
    # a dt that does not divide t_final = 1
    ("doss-sussmann-compare", ("sim.epsilon=0.3", "sim.dt=0.03")),
    # refusals: grid noise for the pathwise transform, and more modes than
    # the decomposition retains (exit code 1)
    ("doss-sussmann-compare", ("noise.mode=white",)),
    ("galerkin-compare", ("galerkin.n_list=1000",)),
)


def run(checkout: Path, command: str, overrides, seed: int) -> dict:
    """Exit code, stdout, stderr and output files of one CLI run."""
    argv = [sys.executable, "-m", "amariflow.cli", command,
            "--out", "out", "--seed", str(seed)]
    for spec in overrides:
        argv += ["--override", spec]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=tmp)
        out = Path(tmp, "out")
        files = sorted(out.iterdir()) if out.is_dir() else []
        result = {f"file {f.name}": f.read_bytes() for f in files}
    result.update(exit_code=proc.returncode, stdout=proc.stdout, stderr=proc.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", required=True, type=Path, help="first checkout")
    parser.add_argument("--b", required=True, type=Path, help="second checkout")
    args = parser.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()
    differ = 0
    for command, overrides in CASES:
        for seed in SEEDS:
            ra, rb = run(a, command, overrides, seed), run(b, command, overrides, seed)
            diff = sorted(k for k in ra.keys() | rb.keys() if ra.get(k) != rb.get(k))
            differ += bool(diff)
            label = " ".join([command, *(f"--override {s}" for s in overrides)])
            verdict = "DIFFERENT " + ", ".join(diff) if diff else f"same ({len(ra) - 3} files)"
            print(f"seed {seed}, exit {ra['exit_code']}: {label}: {verdict}", flush=True)
    print(f"{differ} of {len(CASES) * len(SEEDS)} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
