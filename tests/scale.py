"""Wall time and peak memory of P1 Poisson at one large refinement.

Run from the repository root, with trifem on the path:

    PYTHONPATH=src python tests/scale.py [--refine 9] [--calls 3] [--runs 2]

Each run starts two fresh interpreters, with BLAS and OpenMP on one
thread.  The first builds the level's mesh, assembles the P1 Poisson
stiffness matrix once to fill the level's caches, then times ``--calls``
more ``assemble_system`` calls.  The second builds the mesh one
refinement short, then times one whole level as ``fem run`` solves it:
the last ``uniform_refine``, ``fe_mesh``, ``solve_poisson`` and both
error norms.  Each prints its times and ``ru_maxrss``, the peak resident
memory of its process.  Refinement k of the default square has
8 * 4**k triangles (refine 9: 2,097,152).  pytest does not collect this
file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402


def _mesh(spec, refinements):
    from trifem import square_mesh, uniform_refine
    mesh = square_mesh(spec.bbox, spec.h0)
    for _ in range(refinements):
        mesh = uniform_refine(mesh)
    return mesh


def assembly(refine, calls):
    """Seconds of each timed stiffness assembly, after one untimed."""
    from trifem import assemble_system, fe_mesh, var_form
    from trifem.problems import default_spec
    spec = default_spec("poisson", degree=1, refinements=refine)
    th = fe_mesh(_mesh(spec, refine), spec.selectors)
    form = var_form([spec.data.a, spec.data.c], ["v.grad", "v.val"],
                    ["u.grad", "u.val"])
    assemble_system(th, form, [spec.space], spec.order)
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        assemble_system(th, form, [spec.space], spec.order)
        times.append(time.perf_counter() - start)
    return times


def level(refine, calls):
    """Seconds of one Poisson level, from its refinement to its errors."""
    from trifem import error_H1_semi, error_L2, fe_mesh, uniform_refine
    from trifem.problems import default_spec, solve_poisson
    spec = default_spec("poisson", degree=1, refinements=refine)
    coarse = _mesh(spec, refine - 1)
    start = time.perf_counter()
    th = fe_mesh(uniform_refine(coarse), spec.selectors)
    uh = solve_poisson(th, spec)
    error_L2(th, spec.space, spec.order, spec.data.exact, uh)
    error_H1_semi(th, spec.space, spec.order, spec.data.exact_grad, uh)
    return [time.perf_counter() - start]


def _child(what, refine, calls):
    times = {"assembly": assembly, "level": level}[what](refine, calls)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{what:8s} refine {refine}  "
          + " ".join(f"{t:.3f}" for t in times) + f" s  {peak:,.0f} MiB",
          flush=True)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--refine", type=int, default=9)
    parser.add_argument("--calls", type=int, default=3,
                        help="timed assemblies per process")
    parser.add_argument("--runs", type=int, default=1,
                        help="processes per measurement")
    parser.add_argument("--child", choices=("assembly", "level"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.refine < 1 or args.calls < 1 or args.runs < 1:
        parser.error("--refine, --calls and --runs must be at least 1")
    if args.child:
        _child(args.child, args.refine, args.calls)
        return 0
    for _ in range(args.runs):
        for what in ("assembly", "level"):
            subprocess.run([sys.executable, __file__, "--child", what,
                            "--refine", str(args.refine),
                            "--calls", str(args.calls)], check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
