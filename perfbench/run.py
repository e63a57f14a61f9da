"""trifem benchmark: one workload, one closed-loop client, one result line.

    python3 perfbench/run.py --workload poisson-p1-r7 --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; trifem is imported from its
``src`` directory, never from an installed copy.  One process solves
one workload at a time through the public API (``default_spec`` +
``run_problem``, the code path of ``fem run``), with BLAS and OpenMP
pinned to one thread.  After a discarded warm-up solve it takes at
least three timed samples, and more while the timed solves should
still fit within ``--seconds``; each sample builds its spec afresh and
collects garbage outside the timed region, and every result is checked
against an independent reference (see workloads.py).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
seven fresh interpreters, started after the solve samples, of imports
plus building the spec), ``solve_s`` (median sample wall time) and
``peak_rss_mb`` (``ru_maxrss`` of this process).  ``--trace 1`` wraps
the layers from outside (spans.py) and reports per-layer self times and
counts of the sample with the median traced time; its spans and the
workload's exact counts go to ``perfbench/out/``.  The last stdout line is the JSON
result.
"""

import os

# Before numpy loads: OpenBLAS would start one thread per vCPU, and a
# second thread on a 2-vCPU machine turns solve times into a measure of
# what else the machine runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
MIN_SAMPLES = 3
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

# One fresh interpreter: imports of trifem (numpy, scipy) plus the spec.
# It prints the system-wide monotonic clock when set-up is done, so the
# parent's wait for the child to exit is not part of the figure.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from trifem.problems import default_spec
default_spec(sys.argv[2], **{k: int(v) for k, v in (a.split("=") for a in sys.argv[3:])})
import time
print(time.perf_counter())
"""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def import_trifem():
    if not (SRC / "trifem" / "__init__.py").is_file():
        raise SystemExit(f"error: no trifem sources under {SRC}; run from the "
                         "root of a trifem checkout")
    sys.path.insert(0, str(SRC))
    import trifem.problems
    if Path(trifem.__file__).resolve().parent != (SRC / "trifem").resolve():
        raise SystemExit(f"error: imported trifem from {trifem.__file__}, "
                         f"not from {SRC}")
    return trifem


def setup_once(workload):
    """Seconds from spawning a fresh interpreter to its spec being built."""
    args = [f"{k}={v}" for k, v in workload.overrides.items()]
    t0 = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC),
                            workload.problem] + args, check=True,
                           capture_output=True, text=True,
                           timeout=SETUP_TIMEOUT_S)
    return float(child.stdout.split()[-1]) - t0


def sample_loop(seconds, one_sample):
    """Call one_sample(), which returns the seconds it timed, at least
    MIN_SAMPLES times, and again while the timed seconds so far plus their
    median stay within `seconds`.  Returns the number of samples.

    Only the timed solves count against the budget; checks, garbage
    collection and set-up samples do not.  Stopping before the budget,
    not after it, keeps a run of a workload with long samples close to
    `seconds`; the minimum keeps a median of three on one whose samples
    are longer than a third of it.
    """
    lengths = []
    while (len(lengths) < MIN_SAMPLES
           or sum(lengths) + statistics.median(lengths) <= seconds):
        gc.collect()
        lengths.append(one_sample())
    return len(lengths)


def attempt(solve, spec):
    """(result, None), or (None, exception) for a solve that raised."""
    try:
        return solve(spec), None
    except Exception as exc:  # a raising solve is a failed solve, not a crash
        return None, exc


def run(args):
    t_process = time.perf_counter()
    trifem = import_trifem()
    from workloads import WORKLOADS, Outcome, make_up, prepare

    workload = WORKLOADS[args.workload]

    def make_spec():
        return trifem.problems.default_spec(workload.problem, **workload.overrides)

    spec = make_spec()
    log(f"workload {workload.name} seed {args.seed} (inputs do not depend on "
        f"the seed); in-process set-up {time.perf_counter() - t_process:.3f} s")
    outcome = Outcome()
    context = prepare(workload, trifem, make_spec)

    t0 = time.perf_counter()
    result, error = attempt(trifem.problems.run_problem, spec)
    log(f"warm-up solve {time.perf_counter() - t0:.3f} s (discarded)"
        + (f", raised {error!r}" if error else ""))

    if args.trace:
        metrics = traced_run(args, trifem, workload, make_spec, context,
                             outcome, make_up(workload, trifem, spec))
    else:
        metrics = untraced_run(args, trifem, workload, make_spec, context,
                               outcome)
    for note in outcome.notes:
        log(f"check: {note}")
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def untraced_run(args, trifem, workload, make_spec, context, outcome):
    times = []

    def one_sample():
        spec = make_spec()
        t0 = time.perf_counter()
        result, error = attempt(trifem.problems.run_problem, spec)
        times.append(time.perf_counter() - t0)
        outcome.record(workload, spec, result, context, error)
        return times[-1]

    sample_loop(args.seconds, one_sample)
    setups = [setup_once(workload) for _ in range(SETUP_SAMPLES)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log(f"solve samples (s): {' '.join(f'{t:.3f}' for t in times)}")
    log(f"set-up samples (s): {' '.join(f'{t:.3f}' for t in setups)}")
    return {"setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MiB"}}


def traced_run(args, trifem, workload, make_spec, context, outcome, makeup):
    import spans
    tracer = spans.Tracer()
    samples = []

    def one_sample():
        spec = make_spec()
        tracer.reset()
        result, error = attempt(
            lambda s: tracer.span("problems.driver", trifem.problems.run_problem, s),
            spec)
        metrics, total, bookkeeping = spans.sample_metrics(tracer)
        metrics["problems.newton_iters"] = getattr(result, "iterations", 0)
        samples.append({
            "metrics": metrics, "total": total, "bookkeeping": bookkeeping,
            "free_unknowns": tracer.tally["system.free_max"],
            "spans": (list(tracer.names), list(tracer.start),
                      list(tracer.end), list(tracer.parent))})
        outcome.record(workload, spec, result, context, error)
        return total

    uninstall = spans.install(tracer)
    try:
        sample_loop(args.seconds, one_sample)
    finally:
        uninstall()

    order = sorted(range(len(samples)), key=lambda i: samples[i]["total"])
    median = samples[order[(len(order) - 1) // 2]]
    counts = {k: [s["metrics"][k] for s in samples] for k in spans.COUNTS}
    repeat = all(len(set(v)) == 1 for v in counts.values())
    layer_sum = sum(median["metrics"][f"{n}_s"] for n in spans.LAYERS)
    if abs(layer_sum - median["total"]) > 1e-9 * max(1.0, median["total"]):
        raise RuntimeError(f"layer self times add up to {layer_sum}, "
                           f"not the traced solve time {median['total']}")
    if workload.problem == "heat":
        # one back-solve per backward Euler step
        makeup["time_steps"] = median["metrics"]["system.backsolves"]
    makeup.update(free_unknowns=median["free_unknowns"],
                  newton_iters=median["metrics"]["problems.newton_iters"],
                  assembly_calls=median["metrics"]["assembly.calls"],
                  lu_fill=median["metrics"]["system.lu_fill"])
    totals = " ".join(f"{s['total']:.3f}" for s in samples)
    log(f"traced solve samples (s): {totals}; median "
        f"{median['total']:.4f} s = sum of layer self times; counts repeat "
        f"exactly across samples: {repeat}")
    log(f"make-up: {json.dumps(makeup)}")
    write_trace(args, workload, samples, median, makeup, repeat)
    return {name: {"value": median["metrics"][name],
                   "unit": unit(name)}
            for name in [f"{n}_s" for n in spans.LAYERS] + list(spans.COUNTS)}


def unit(name):
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "assembly.nnz_per_triple" else "count"


def write_trace(args, workload, samples, median, makeup, repeat):
    names, start, end, parent = median["spans"]
    table = sorted(set(names))
    t0 = start[0]
    doc = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "machine": {"python": platform.python_version(),
                    "numpy": sys.modules["numpy"].__version__,
                    "scipy": sys.modules["scipy"].__version__,
                    "cpus": os.cpu_count()},
        "make_up": makeup, "counts_repeat": repeat,
        "traced_solve_s": [s["total"] for s in samples],
        "bookkeeping_s": [s["bookkeeping"] for s in samples],
        "median_sample": {"traced_solve_s": median["total"],
                          "metrics": median["metrics"]},
        "spans": {"names": table,
                  "name": [table.index(n) for n in names],
                  "start": [round(s - t0, 9) for s in start],
                  "end": [round(e - t0, 9) for e in end],
                  "parent": parent},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))
    log(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
