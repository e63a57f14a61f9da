"""The four benchmark workloads and their independent correctness checks.

Every workload is a structured-mesh ladder with a manufactured solution,
so its inputs are fixed: the seed is recorded but changes nothing.  The
checks compare against references that do not come from a stored copy
of trifem's output: convergence slopes refitted here from the error
columns and the ladder's own mesh sizes, the published Taylor-Hood
error table, and the manufactured Navier-Stokes velocity.
"""

import math
from dataclasses import dataclass

import numpy as np

# Published Taylor-Hood P2-P2-P1 errors for the quartic Stokes pair on
# the unit square, refine 1..5 from h0 = 1/2.
STOKES_TABLE = {
    "u_L2": [8.88464e-02, 1.01868e-02, 1.21537e-03, 1.50235e-04, 1.87368e-05],
    "u_H1": [2.52940e+00, 6.62003e-01, 1.67792e-01, 4.21077e-02, 1.05374e-02],
    "p_L2": [1.59802e+00, 3.36224e-01, 7.88512e-02, 1.94079e-02, 4.83415e-03],
}
STOKES_TOL = 0.05
NEWTON_MIN_ERROR_RATIO = 2.0 ** 2.5
NEWTON_SUPERLINEAR_FLOOR = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    overrides: dict
    spaces: tuple          # spaces of the finest-level unknowns


WORKLOADS = {
    w.name: w for w in (
        Workload("poisson-p1-r7", "poisson", {"degree": 1, "refinements": 7},
                 ("P1",)),
        Workload("stokes-th-r5", "stokes", {"refinements": 5},
                 ("P2", "P2", "P1")),
        Workload("heat-p2-r3", "heat", {"degree": 2, "refinements": 3},
                 ("P2",)),
        Workload("ns-newton-r3", "ns-newton", {"refinements": 3},
                 ("P2", "P2", "P1")),
    )
}


class CheckFailed(Exception):
    """A workload result disagrees with its independent reference."""


def ladder_h(spec):
    """Leg length of every ladder level, from the box and h0 alone."""
    return np.array([spec.h0 / 2.0 ** (k + 1) for k in range(spec.refinements)])


def slope(h, err):
    return float(np.polyfit(np.log(h), np.log(np.asarray(err, dtype=float)), 1)[0])


def check_slope(label, h, err, expected, tol):
    got = slope(h, err)
    if not abs(got - expected) <= tol:
        raise CheckFailed(f"{label} slope {got:.3f}, expected {expected} +- {tol}")
    return f"{label} slope {got:.3f}"


def check_poisson(spec, report):
    h = ladder_h(spec)
    return "; ".join([check_slope("L2", h, report.columns["L2"], 2.0, 0.2),
                      check_slope("H1", h, report.columns["H1"], 1.0, 0.2)])


def check_stokes(spec, report):
    worst = 0.0
    for name, ref in STOKES_TABLE.items():
        got = np.asarray(report.columns[name], dtype=float)
        if got.shape != (len(ref),):
            raise CheckFailed(f"{name} has {got.shape} entries, expected {len(ref)}")
        worst = max(worst, float(np.max(np.abs(got - ref) / np.asarray(ref))))
    if not worst <= STOKES_TOL:
        raise CheckFailed(f"worst relative deviation from the published "
                          f"table {worst:.3e} exceeds {STOKES_TOL}")
    return f"worst relative deviation from the published table {worst:.3e}"


def check_heat(spec, report):
    return check_slope("final-time L2", ladder_h(spec), report.columns["L2"],
                       3.0, 0.3)


def check_newton(result, coarse_error, fine_error):
    """Error falls by 2^2.5 from the coarser level and large increments
    shrink superlinearly.  Convergence itself is judged in judge()."""
    ratio = coarse_error / fine_error
    if not ratio >= NEWTON_MIN_ERROR_RATIO:
        raise CheckFailed(f"velocity L2 error fell by {ratio:.2f} from the "
                          f"coarser level, expected >= {NEWTON_MIN_ERROR_RATIO:.2f}")
    big = [n for n in result.increment_norms if n > NEWTON_SUPERLINEAR_FLOOR]
    for a, b in zip(big, big[1:]):
        if not (b < a and b <= a ** 1.5):
            raise CheckFailed(f"increments {a:.3e} -> {b:.3e} do not decrease "
                              "superlinearly")
    return f"velocity L2 error ratio {ratio:.2f}; {len(big)} increments > 1e-6"


def judge(workload, spec, result, context):
    """Check one solve.  Returns (failed, note); raises CheckFailed.

    A Newton result that did not converge is a failed solve whose outputs
    are still checked: the stopping test is at fault, not the iterates.
    """
    if workload.problem == "poisson":
        return False, check_poisson(spec, result)
    if workload.problem == "stokes":
        return False, check_stokes(spec, result)
    if workload.problem == "heat":
        return False, check_heat(spec, result)
    note = check_newton(result, context["coarse_error"],
                        context["velocity_error"](spec, result))
    if not result.converged:
        return True, (f"{note}; not converged after {result.iterations} "
                      f"iterates, last increment {result.increment_norms[-1]:.3e}")
    return False, note


class Outcome:
    """Attempted and failed solves, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def record(self, workload, spec, result, context, error=None):
        """Count one solve; `error` is the exception it raised, if any."""
        self.attempted += 1
        try:
            if error is not None:
                failed, note = True, f"solve raised {error!r}"
            else:
                failed, note = judge(workload, spec, result, context)
        except CheckFailed as exc:
            failed, note = True, f"CHECK FAILED: {exc}"
            self.correct = False
        self.failed += int(failed)
        if note not in self.notes:
            self.notes.append(note)


def finest_mesh(trifem, spec):
    mesh = trifem.square_mesh(spec.bbox, spec.h0)
    for _ in range(spec.refinements):
        mesh = trifem.uniform_refine(mesh)
    return trifem.fe_mesh(mesh, spec.selectors)


def prepare(workload, trifem, make_spec):
    """Untimed per-run work the checks need.

    For Newton: the velocity L2 error against the manufactured field, on
    meshes rebuilt here because run_problem does not return its mesh,
    and the error of one refine-2 solve.
    """
    if workload.problem != "ns-newton":
        return {}
    meshes = {}

    def velocity_error(spec, result):
        if spec.refinements not in meshes:
            meshes[spec.refinements] = finest_mesh(trifem, spec)
        th, exact = meshes[spec.refinements], spec.data.exact_u
        e1 = trifem.error_L2(th, "P2", spec.order, lambda p: exact(p)[:, 0], result.u1)
        e2 = trifem.error_L2(th, "P2", spec.order, lambda p: exact(p)[:, 1], result.u2)
        return math.hypot(e1, e2)

    coarse = make_spec()
    coarse.refinements -= 1
    return {"coarse_error": velocity_error(coarse,
                                           trifem.problems.run_problem(coarse)),
            "velocity_error": velocity_error}


def make_up(workload, trifem, spec):
    """Input make-up that repeats exactly: finest triangles and ndof."""
    th = finest_mesh(trifem, spec)
    return {"triangles": int(th.mesh.num_elems),
            "ndof": int(sum(th.dof_map(s).num_dofs for s in workload.spaces))}
