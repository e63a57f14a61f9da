"""Steadiness check: two sets of runs of the same code, interleaved.

    python3 perfbench/steady.py --runs 5

For each workload of BENCHMARK.json in turn it makes `--runs` rounds
of runs as long as its ``run_seconds``; a round runs the workload once
for set A and once for set B, the set that goes first alternating from
round to round, each run with its own seed.  For every workload and
end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over median) and the gap between the two
medians, both as a share of the metric's bound in BENCHMARK.json; then
the share of failed solves and the timed samples per run of each set,
and the tracing overhead: the median traced solve time of two traced
runs against the untraced ``solve_s`` median, and whether the two
traced runs report the same counts.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect "
                           f"output:\n{proc.stderr}")
    return result, wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def report(name, sets, bounds):
    print(f"\n== {name}")
    for metric, bound in bounds.items():
        meds = []
        for label, runs in sets.items():
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            meds.append(statistics.median(vals))
            spread = (q3 - q1) / med
            print(f"  {metric:12s} set {label}: median {med:.4f}  "
                  f"q1 {q1:.4f}  q3 {q3:.4f}  spread {spread:6.2%} "
                  f"= {spread / bound:5.2f} x bound {bound}")
        gap = (meds[1] - meds[0]) / meds[0]
        print(f"  {metric:12s} gap B vs A {gap:+7.2%} = "
              f"{abs(gap) / bound:5.2f} x bound")
        every = [r["metrics"][metric]["value"] for runs in sets.values() for r in runs]
        q1, med, q3 = quartiles(every)
        print(f"  {metric:12s} all {len(every)} runs: spread {(q3 - q1) / med:6.2%} "
              f"= {(q3 - q1) / med / bound:5.2f} x bound")
    for label, runs in sets.items():
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        counts = sorted({r["attempted"] for r in runs})
        print(f"  set {label}: {fail}/{att} solves failed; per-run shares "
              f"{shares}; timed samples per run {counts}")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = {w: {"A": [], "B": []} for w in workloads}
    walls = {w: [] for w in workloads}
    for w in workloads:
        for r in range(args.runs):
            order = ("A", "B") if r % 2 == 0 else ("B", "A")
            for label in order:
                seed = (1 if label == "A" else 1001) + r
                result, wall = run_once(w, seed, seconds, 0)
                sets[w][label].append(result)
                walls[w].append(wall)
                print(f"round {r} {w} set {label} seed {seed}: " + "  ".join(
                    f"{k} {v['value']:.4f}" for k, v in result["metrics"].items())
                    + f"  ({wall:.1f} s wall)", flush=True)

    for w in workloads:
        report(w, sets[w], bounds)
        print(f"  run wall time: median {statistics.median(walls[w]):.1f} s, "
              f"max {max(walls[w]):.1f} s")

    print("\n== traced runs: overhead against the untraced solve_s median, "
          "and counts of two traced runs")
    for w in workloads:
        untraced = statistics.median(x["metrics"]["solve_s"]["value"]
                                     for runs in sets[w].values() for x in runs)
        counts = []
        for seed in (0, 1):
            result, _ = run_once(w, seed, seconds, 1)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if not k.endswith("_s")})
            trace = json.loads((BENCH_DIR / "out" / f"trace-{w}-seed{seed}.json")
                               .read_text())
            traced = statistics.median(trace["traced_solve_s"])
            print(f"  {w:14s} seed {seed}: traced {traced:.3f} s, untraced "
                  f"{untraced:.3f} s, overhead {traced / untraced - 1:+.1%}")
        same = counts[0] == counts[1]
        print(f"  {w:14s} counts repeat exactly: {same}"
              + ("" if same else f" {counts}"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
