"""Span recorder and layer wrappers for the traced benchmark run.

The wrappers are installed from outside the package: each one replaces
the module attribute that a caller looks up (``trifem.problems.
assemble_system``, ``trifem.assembly.tabulate_basis``, ...), so no
trifem source line changes.  A span is (name, start, end, parent); spans
stay in memory and are written when the run ends.  A layer's self time
is its span's duration minus the durations of its child spans, which
are strictly nested because the workloads are single-threaded.

Spans whose name starts with ``trace.`` are bookkeeping of the recorder
itself (copying the LU factors to count their fill).  They belong to no
layer, and their time is left out of the traced solve time, so the
layer self times add up to it exactly.
"""

import importlib
import time

# Layer span names, in report order.  Each gets a ``<name>_s`` self-time
# metric.
LAYERS = (
    "mesh.topology", "mesh.refine", "mesh.boundary",
    "fespace.dofmap", "fespace.tabulate", "fespace.quad_points",
    "fespace.coef_dofs", "fespace.point_eval",
    "vform.build", "vform.coef",
    "assembly.assemble", "assembly.compress",
    "system.factor", "system.backsolve", "system.dirichlet", "system.error",
    "problems.driver",
)

COUNTS = (
    "fespace.tabulate_calls", "fespace.point_evals", "vform.entries",
    "assembly.calls", "assembly.triples", "assembly.nnz_per_triple",
    "system.lu_fill", "system.factorizations", "system.backsolves",
    "problems.newton_iters",
)

# (span name, [(module, attribute), ...]) for every public function a
# layer metric covers.  Each (module, attribute) pair is a name some
# caller on a workload's path looks up at call time.
WRAPPED = (
    ("mesh.topology", [("trifem.mesh", "build_topology")]),
    ("mesh.refine", [("trifem.problems", "uniform_refine")]),
    ("mesh.boundary", [("trifem.mesh", "classify_boundary")]),
    ("fespace.dofmap", [("trifem.fespace", "build_dof_map")]),
    ("fespace.tabulate", [("trifem.assembly", "tabulate_basis"),
                          ("trifem.fespace", "tabulate_basis")]),
    ("fespace.quad_points", [("trifem.vform", "quad_points_2d"),
                             ("trifem.system", "quad_points_2d"),
                             ("trifem.fespace", "quad_points_2d")]),
    ("fespace.coef_dofs", [("trifem.problems", "coef_matrix_from_dofs"),
                           ("trifem.vform", "coef_matrix_from_dofs"),
                           ("trifem.system", "coef_matrix_from_dofs")]),
    ("fespace.point_eval", [("trifem.problems", "evaluate_at_points")]),
    ("vform.build", [("trifem.problems", "var_form"),
                     ("trifem.problems", "standardize_symbols"),
                     ("trifem.assembly", "expand_extended")]),
    ("vform.coef", [("trifem.assembly", "coef_to_matrix")]),
    ("assembly.assemble", [("trifem.problems", "assemble_system"),
                           ("trifem.problems", "assemble_scalar_2d"),
                           ("trifem.problems", "assemble_scalar_1d")]),
    ("assembly.compress", [("trifem.assembly", "compress"),
                           ("trifem.system", "compress")]),
    ("system.factor", [("scipy.sparse.linalg", "splu")]),
    ("system.dirichlet", [("trifem.problems", "apply_dirichlet_and_solve")]),
    ("system.error", [("trifem.problems", "error_L2"),
                      ("trifem.problems", "error_H1_semi")]),
)


class Tracer:
    """In-memory span list plus the counters taken at the same calls."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.names = []        # span name per span
        self.start = []
        self.end = []
        self.parent = []       # index of the enclosing span, -1 at the root
        self.current = -1
        self.tally = {"fespace.point_evals": 0, "assembly.triples": 0,
                      "compress.triples": 0, "compress.nnz": 0,
                      "system.lu_fill": 0, "system.free_max": 0}

    def call(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        idx = len(self.names)
        self.names.append(name)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self.current)
        self.current = idx
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self.current = self.parent[idx]

    def span(self, name, fn, *args, **kwargs):
        return self.call(name, fn, args, kwargs)


class _TracedLU:
    """SuperLU stand-in whose solve() is a ``system.backsolve`` span."""

    def __init__(self, tracer, lu):
        self._tracer = tracer
        self._lu = lu

    def solve(self, *args, **kwargs):
        return self._tracer.call("system.backsolve", self._lu.solve, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _make_wrapper(tracer, name, fn):
    if name == "system.factor":
        def wrapper(*args, **kwargs):
            lu = tracer.call(name, fn, args, kwargs)
            # copying L and U to count their fill is the recorder's own cost
            fill = tracer.span("trace.fill", lambda: lu.L.nnz + lu.U.nnz)
            tracer.tally["system.lu_fill"] += int(fill)
            tracer.tally["system.free_max"] = max(tracer.tally["system.free_max"],
                                                  int(lu.shape[0]))
            return _TracedLU(tracer, lu)
    elif name == "assembly.assemble":
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            triples = getattr(out, "triples", out)
            if hasattr(triples, "ii"):
                tracer.tally["assembly.triples"] += len(triples.ii)
            return out
    elif name == "assembly.compress":
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            tracer.tally["compress.triples"] += len(args[0].ii)
            tracer.tally["compress.nnz"] += out.nnz
            return out
    elif name == "fespace.point_eval":
        def wrapper(dofs, th, space, points, *args, **kwargs):
            tracer.tally["fespace.point_evals"] += len(points)
            return tracer.call(name, fn, (dofs, th, space, points) + args, kwargs)
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer):
    """Patch every name in WRAPPED; returns a function that undoes it."""
    saved = []
    for name, sites in WRAPPED:
        for modname, attr in sites:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _make_wrapper(tracer, name, original))

    def uninstall():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
    return uninstall


def self_times(names, start, end, parent):
    """Self time per span name: duration minus the child spans' durations."""
    dur = [e - s for s, e in zip(start, end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
    out = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + dur[i] - child[i]
    return out


def sample_metrics(tracer):
    """Per-layer self times and counts of the spans recorded since reset.

    The root span must be the traced solve (``problems.driver``).
    Returns (metrics, traced solve seconds, bookkeeping seconds), where
    the traced solve time leaves out the ``trace.*`` bookkeeping.
    """
    if not tracer.names or tracer.names[0] != "problems.driver" \
            or tracer.parent[0] != -1:
        raise ValueError("the first span must be the problems.driver root")
    selfs = self_times(tracer.names, tracer.start, tracer.end, tracer.parent)
    unknown = set(selfs) - set(LAYERS) - {n for n in selfs if n.startswith("trace.")}
    if unknown:
        raise ValueError(f"spans outside every layer: {sorted(unknown)}")
    bookkeeping = sum(v for n, v in selfs.items() if n.startswith("trace."))
    total = tracer.end[0] - tracer.start[0] - bookkeeping
    metrics = {f"{name}_s": selfs.get(name, 0.0) for name in LAYERS}

    def calls(name):
        return sum(1 for n in tracer.names if n == name)

    t = tracer.tally
    metrics.update({
        "fespace.tabulate_calls": calls("fespace.tabulate"),
        "fespace.point_evals": t["fespace.point_evals"],
        # every elementary entry reaches the kernels as one coef_to_matrix call
        "vform.entries": calls("vform.coef"),
        "assembly.calls": calls("assembly.assemble"),
        "assembly.triples": t["assembly.triples"],
        "assembly.nnz_per_triple": (t["compress.nnz"] / t["compress.triples"]
                                    if t["compress.triples"] else 0.0),
        "system.lu_fill": t["system.lu_fill"],
        "system.factorizations": calls("system.factor"),
        "system.backsolves": calls("system.backsolve"),
    })
    return metrics, total, bookkeeping
