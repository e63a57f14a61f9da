"""Command-line front end: convergence drivers, mesh tools, conversion.

Subcommands:
    fem run     --problem poisson --degree 3 --refine 5 [--bdstr "x==0"] ...
    fem mesh    --square 0,1,0,1 --h 0.5 [--refine 2] [--info] [--out m.msh]
    fem convert --mesh in.msh --out nodes.csv | --square ... --out out.msh

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

import argparse
import sys

from .io import format_real, read_freefem_msh, write_freefem_msh, write_results
from .mesh import build_topology, square_mesh, uniform_refine
from .problems import PROBLEM_IDS, default_spec, run_problem
from .system import RateReport

__all__ = ["main", "build_parser", "validate", "emit_table"]


class UsageError(ValueError):
    """Configuration contradiction or unsupported value."""


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fem",
        description="2D Lagrange finite element problem suite")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a problem driver over a refinement ladder")
    run.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    run.add_argument("--degree", type=int, default=None,
                     help="polynomial degree 1..3 (default 1; stokes/ns fix P2-P1)")
    run.add_argument("--quad-order", type=int, default=None,
                     help="quadrature exactness order (default: degree + 2)")
    run.add_argument("--refine", type=int, default=None,
                     help="number of refinement levels (default 5)")
    run.add_argument("--bdstr", action="append", default=None,
                     help="boundary selector, repeatable (default per problem): "
                          "the first region takes the Robin or Neumann data, "
                          "every other region is Dirichlet; only poisson, "
                          "elasticity-tensor and heat take selectors")
    run.add_argument("--mesh", default=None, help="FreeFEM .msh mesh (ns-newton)")
    run.add_argument("--square", default=None, help="bounding box x0,x1,y0,y1")
    run.add_argument("--h", type=float, default=None, help="initial grid spacing")
    run.add_argument("--out", default=None, help="CSV output path")
    run.add_argument("--dt", type=float, default=None,
                     help="(heat) fixed time step; default couples dt = h^(k+1)")
    run.add_argument("--t-end", type=float, default=None, help="(heat) final time")
    run.add_argument("--nu", type=float, default=None, help="viscosity")
    run.add_argument("--max-iter", type=int, default=None, help="(ns-newton) cap")
    run.add_argument("--tol", type=float, default=None,
                     help="(ns-newton) relative increment stopping tolerance")

    mesh = sub.add_parser("mesh", help="build a structured mesh and report/emit it")
    mesh.add_argument("--square", default="0,1,0,1")
    mesh.add_argument("--h", type=float, required=True)
    mesh.add_argument("--refine", type=int, default=0)
    mesh.add_argument("--info", action="store_true", help="print mesh counts")
    mesh.add_argument("--out", default=None, help="write the mesh as .msh")

    conv = sub.add_parser("convert", help="convert between .msh and CSV")
    conv.add_argument("--mesh", default=None, help=".msh file to read")
    conv.add_argument("--square", default=None)
    conv.add_argument("--h", type=float, default=None)
    conv.add_argument("--out", required=True)
    return parser


def _parse_bbox(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--square expects x0,x1,y0,y1, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--square expects numbers, got {text!r}") from None


def validate(args):
    """Normalize run flags into a ProblemSpec; reject contradictions."""
    if args.degree is not None and args.degree not in (1, 2, 3):
        raise UsageError(f"--degree must be 1, 2 or 3, got {args.degree}")
    if args.mesh is not None and args.square is not None:
        raise UsageError("--mesh and --square are mutually exclusive")
    if args.refine is not None and args.refine < 1:
        raise UsageError("--refine must be at least 1")
    if args.quad_order is not None and not 1 <= args.quad_order <= 8:
        raise UsageError("--quad-order must be within 1..8")

    overrides = dict(degree=args.degree, quad_order=args.quad_order,
                     refinements=args.refine, mesh_path=args.mesh,
                     nu=args.nu, max_iter=args.max_iter, tol=args.tol,
                     dt=args.dt, t_end=args.t_end)
    if args.bdstr is not None:
        overrides["selectors"] = tuple(args.bdstr)
    if args.square is not None:
        overrides["bbox"] = _parse_bbox(args.square)
    if args.h is not None:
        overrides["h0"] = args.h
    try:
        return default_spec(args.problem, **overrides)
    except ValueError as exc:     # a field the problem fixes
        raise UsageError(str(exc)) from None


def emit_table(report, sink=None, csv_path=None):
    """Print a report in the error-table layout; optionally write CSV.

    The ``#Dof`` column holds each level's element count
    (``report.num_elems``), not the number of unknowns.
    """
    if sink is None:
        sink = sys.stdout
    headers = ["#Dof", "h"] + list(report.columns)
    columns = [list(report.num_elems), list(report.h)] + \
        [list(v) for v in report.columns.values()]

    widths = []
    cells = []
    for name, col in zip(headers, columns):
        text = [str(int(v)) if name == "#Dof" else format_real(v) for v in col]
        if report.slopes:
            text.append(f"{report.slopes[name]:.2f}" if name in report.slopes
                        else "")
        cells.append(text)
        widths.append(max(len(name), *(len(t) for t in text)))

    print("Table: Error", file=sink)
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)), file=sink)
    nrows = len(report.h) + (1 if report.slopes else 0)
    for r in range(nrows):
        if report.slopes and r == len(report.h):
            print("  ".join(("rate" if c == 0 else cells[c][r]).rjust(widths[c])
                            for c in range(len(cells))), file=sink)
        else:
            print("  ".join(cells[c][r].rjust(widths[c])
                            for c in range(len(cells))), file=sink)

    if csv_path:
        write_results(csv_path, headers, columns)


def _cmd_run(args):
    spec = validate(args)
    result = run_problem(spec)
    if isinstance(result, RateReport):
        emit_table(result, csv_path=args.out)
    else:
        print(f"Newton iterations: {result.iterations} "
              f"(converged: {result.converged}; stopped on {result.stop_reason})")
        for k, v in enumerate(result.increment_norms, start=1):
            print(f"  iterate {k}: |increment| = {format_real(v)}")
        if args.out:
            write_results(args.out, ["iterate", "increment"],
                          [list(range(1, result.iterations + 1)),
                           result.increment_norms])
    return 0


def _cmd_mesh(args):
    mesh = square_mesh(_parse_bbox(args.square), args.h)
    for _ in range(args.refine):
        mesh = uniform_refine(mesh)
    topo = build_topology(mesh)
    if args.info or not args.out:
        print(f"N={mesh.num_nodes} NT={mesh.num_elems} NE={topo.num_edges} "
              f"boundary={len(topo.bd_edge)}")
    if args.out:
        write_freefem_msh(args.out, mesh, boundary=topo.bd_edge)
        print(f"wrote {args.out}")
    return 0


def _cmd_convert(args):
    if (args.mesh is None) == (args.square is None):
        raise UsageError("convert needs exactly one of --mesh or --square")
    if args.mesh:
        mesh, labels = read_freefem_msh(args.mesh)
        write_results(args.out,
                      ["x", "y", "label"],
                      [mesh.node[:, 0], mesh.node[:, 1],
                       labels.vertex_label.astype(int)])
        print(f"wrote {len(mesh.node)} vertices to {args.out}")
    else:
        if args.h is None:
            raise UsageError("convert --square also needs --h")
        mesh = square_mesh(_parse_bbox(args.square), args.h)
        topo = build_topology(mesh)
        write_freefem_msh(args.out, mesh, boundary=topo.bd_edge)
        print(f"wrote {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "mesh":
            return _cmd_mesh(args)
        if args.command == "convert":
            return _cmd_convert(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
