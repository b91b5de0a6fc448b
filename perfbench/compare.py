"""Two sets of benchmark runs, interleaved, and their agreement.

    python3 perfbench/compare.py --a DIR [--b DIR] [--workloads W1,W2]
                                 [--seeds 1-10]

DIR is the root of a source checkout; --b defaults to --a, which measures
the benchmark's own steadiness.  For each seed and workload the two sides
run back to back, and which side goes first alternates from one seed to
the next, so that a slow spell of the host falls on both.  Printed per
workload and end-to-end metric: each side's median and quartile spread
(IQR / median, as `statistics.quantiles(n=4)` gives the quartiles), the
relative change of B's median against A's, and how often B beat A.  The
raw results go to perfbench/out/compare.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def seeds_arg(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--a", type=Path, required=True)
    p.add_argument("--b", type=Path, default=None)
    p.add_argument("--workloads", default=None)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = p.parse_args(argv)
    a = args.a.resolve()
    b = (args.b or args.a).resolve()
    spec = json.loads((a / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    results = {side: {w: [] for w in names} for side in "AB"}
    bad = 0
    for i, seed in enumerate(args.seeds):
        order = (("A", a), ("B", b)) if i % 2 == 0 else (("B", b), ("A", a))
        for w in names:
            for side, root in order:
                r = run(root, w, seed, seconds)
                results[side][w].append(r)
                bad += (not r["correct"]) or r["failed"] > 0
                print(f"{side} {w} seed {seed}: "
                      + " ".join(f"{k}={m['value']:.5g}" for k, m in r["metrics"].items()),
                      flush=True)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "compare.json").write_text(json.dumps(results, indent=1) + "\n")
    print(f"\n{'workload':16s} {'metric':12s} {'median A':>11s} {'spread A':>8s} "
          f"{'median B':>11s} {'spread B':>8s} {'B vs A':>7s} {'B wins':>6s}")
    for w in names:
        for k in better:
            va = [r["metrics"][k]["value"] for r in results["A"][w]]
            vb = [r["metrics"][k]["value"] for r in results["B"][w]]
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if better[k] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(va, vb))
            print(f"{w:16s} {k:12s} {ma:11.5g} {spread(va):8.3f} {mb:11.5g} "
                  f"{spread(vb):8.3f} {(mb - ma) / ma:+7.3f} {wins:3d}/{len(va)}")
    if bad:
        print(f"{bad} runs were not correct or had failed operations")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
