"""amariflow benchmark.

    python3 perfbench/run.py                      # BENCHMARK.json's workloads, one fresh process each
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the library is imported from
`src/`, nothing needs installing.  One run replays its workload's CLI
command again and again for about S seconds (at least MIN_OPS times;
S defaults to BENCHMARK.json's `run_seconds`), checks the outputs, and
prints as its last line one JSON object: `correct`, `attempted` and
`failed` operations, and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones, with `--trace 1` the per-layer ones of the layers
the workload calls (see README.md).

BLAS runs on one thread: multithreaded OpenBLAS made the 2048-node
set-up vary by almost 2x between runs, and changed results in the last
digits.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MIN_OPS = 3
SETUP_SHARE = 0.1  # share of the run spent on extra set-up-only trials
MAX_SETUP_TRIALS = 20

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Run:
    """What one benchmark run measured, for the metric functions."""

    workload: object
    seed: int
    root: Path
    out: Path
    rec: object
    traced_ops: list
    plain_ops: list
    setup: object
    result: object
    attempted: int
    failed: int
    peak_rss_mb: float


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.iterdir() if p.is_file()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure(wl, seed: int, seconds: float, traced: bool, out: Path) -> tuple:
    """Set-up trials, then whole operations until the time is used."""
    from spans import Recorder
    from workloads import INNER_CALLS, prepare, run_op

    rec = Recorder()
    t0 = perf_counter()
    rec.op = None
    trial_time, trials = 0.0, 0
    while trial_time < SETUP_SHARE * seconds and trials < MAX_SETUP_TRIALS:
        t = perf_counter()
        prepare(rec, wl, seed)
        trial_time += perf_counter() - t
        trials += 1
    traced_ops, plain_ops, digests = [], [], set()
    failed = 0
    last = None
    op = 0
    while True:
        rec.op = op
        instrumented = traced and op % 2 == 0
        try:
            with rec.instrument(INNER_CALLS) if instrumented else nullcontext():
                last = run_op(rec, wl, seed, out)
            (traced_ops if instrumented else plain_ops).append(op)
            digests.add(_digest(out))
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            failed += 1
        op += 1
        op_time = rec.spans[rec.of_op(op - 1, "op")[0]].duration
        if op >= MIN_OPS and perf_counter() - t0 + 0.5 * op_time > seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup, result = last if last else (None, None)
    run = Run(wl, seed, ROOT, out, rec, traced_ops, plain_ops, setup, result,
              op, failed, peak)
    return run, t0, digests


def end_to_end(run: Run) -> dict:
    rec = run.rec
    from workloads import STEP_SPANS

    ops = run.plain_ops + run.traced_ops
    walls, rates = [], []
    for op in ops:
        walls.append(rec.spans[rec.of_op(op, "op")[0]].duration)
        steps = busy = 0.0
        for name in STEP_SPANS:
            for i in rec.of_op(op, name):
                steps += rec.spans[i].counts["steps"]
                busy += rec.spans[i].duration
        rates.append(steps / busy)
    setups = [s.duration for s in rec.spans if s.name == "setup"]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "steps_per_s": statistics.median(rates),
        "peak_rss_mb": run.peak_rss_mb,
    }


def import_library() -> bool:
    """Put the checkout's `src/` first on the path; False if it is absent."""
    if not (ROOT / "src" / "amariflow" / "__init__.py").is_file():
        print(f"error: no amariflow sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


def run_one(args) -> int:
    if not import_library():
        return 2
    import checks
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; workloads are "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    base = OUT / wl.name
    shutil.rmtree(base, ignore_errors=True)
    out = base / "op"
    out.mkdir(parents=True)
    traced = args.trace == 1
    run, t0, digests = measure(wl, args.seed, args.seconds, traced, out)
    fails = []
    if run.setup is None:
        fails.append("no operation completed")
    else:
        if len(digests) > 1:
            fails.append(f"determinism: {len(digests)} different output sets from one seed")
        fails += checks.run_checks(wl, run.setup, run.result)
    if traced and run.setup is not None:
        metrics = layers.per_layer(run)
        if _digest(base / "cli") not in digests:
            fails.append("cli: amariflow.cli.main wrote other files than the replay")
        units = dict(layers.PER_LAYER)
    else:
        metrics = end_to_end(run) if run.setup is not None else {}
        units = dict(END_TO_END)
    run.rec.write(base / f"spans-trace{args.trace}.json", t0)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args) -> int:
    """BENCHMARK.json's workloads, each in a fresh process; a table of
    every metric.  The other workloads run only when named."""
    if not import_library():
        return 2
    status = 0
    for name in [w["name"] for w in load_spec()["workloads"]]:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: failed with exit code {done.returncode}")
            status = 1
            continue
        res = json.loads(lines[-1])
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"  {key:28s} {m['value']:.6g} {m['unit']}")
        if not res["correct"] or res["failed"]:
            sys.stderr.write(done.stderr)
            status = 1
    return status


def main(argv=None) -> int:
    # before numpy loads; child processes inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
