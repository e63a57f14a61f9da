"""Driver suite: elliptic, elasticity, biharmonic, Stokes, heat and
steady Navier-Stokes problems, each declared through (Coef, Test, Trial)
triples and run over a uniform refinement ladder with error tracking.

Manufactured solutions are used throughout; for the mixed Stokes
problem the classical quartic divergence-free field on the unit square
is wired in so the published error table can be reproduced digit-close.

Each problem is one row of the problem table at the end of the module:
its runner, data factory, defaults and the spec fields its runner
reads; ``default_spec`` rejects a change to any other field.  With
boundary selectors the first region carries the Robin or Neumann data
and every other region is Dirichlet (``_boundary``).
"""

import math
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from .assembly import (assemble_scalar_1d, assemble_scalar_2d,
                       assemble_system, load_operator, system_from_blocks)
# evaluate_at_points is unused here; perfbench/spans.py wraps it in this module
from .fespace import (Cells, _eval_pointfun, coef_matrix_from_dofs,
                      coef_matrix_on_edges, evaluate_at_points, fe_space,
                      interpolate_nodal, outward_normals)
from .io import read_freefem_msh
from .mesh import _grid_lines, fe_mesh, square_mesh, uniform_refine
from .quadrature import MAX_TRIANGLE_ORDER
from .selector import parse_selector
from .system import (DirichletSolver, DirichletSpec, RateReport,
                     apply_dirichlet_and_solve, dirichlet_dofs, error_H1_semi,
                     error_L2)
from .vform import standardize_symbols, var_form

__all__ = ["ProblemSpec", "default_spec", "run_problem", "run_poisson",
           "run_elasticity_displacement", "run_elasticity_tensor",
           "run_biharmonic", "run_stokes", "run_heat", "run_ns_newton",
           "PROBLEM_IDS"]


@dataclass
class ProblemSpec:
    """Everything a driver needs: discretization choices, boundary
    selectors, mesh source and the PDE data object."""

    problem: str
    degree: int = 1
    quad_order: int | None = None
    refinements: int = 5
    bbox: tuple = (0.0, 1.0, 0.0, 1.0)
    h0: float = 0.5
    selectors: tuple = ()
    mesh_path: str | None = None
    data: object = None
    # transient / nonlinear controls
    dt: float | None = None
    t_end: float = 1.0
    nu: float = 1.0
    eps: float = 1e-10
    max_iter: int = 15
    tol: float = 1e-8

    @property
    def space(self):
        return fe_space(f"P{self.degree}")

    @property
    def order(self):
        return self.quad_order if self.quad_order is not None else self.degree + 2


# ---------------------------------------------------------------------------
# manufactured problem data

@dataclass(frozen=True)
class PoissonData:
    a: object
    c: object
    f: object
    g_R: object
    exact: object
    exact_grad: object


def poisson_data():
    """-div(a grad u) + c u = f with u = exp(x) sin(y) (harmonic part),
    a = 1 + x^2 + y^2, c = 1, Robin data g_R = 1 + x + y."""

    def exact(p):
        return np.exp(p[:, 0]) * np.sin(p[:, 1])

    def exact_grad(p):
        e = np.exp(p[:, 0])
        return np.column_stack([e * np.sin(p[:, 1]), e * np.cos(p[:, 1])])

    def a(p):
        return 1.0 + p[:, 0] ** 2 + p[:, 1] ** 2

    def c(p):
        return np.ones(len(p))

    def f(p):
        x, y = p[:, 0], p[:, 1]
        e = np.exp(x)
        # u is harmonic: f = -grad(a).grad(u) + c*u
        return -(2 * x * e * np.sin(y) + 2 * y * e * np.cos(y)) + e * np.sin(y)

    def g_R(p):
        return 1.0 + p[:, 0] + p[:, 1]

    return PoissonData(a=a, c=c, f=f, g_R=g_R, exact=exact, exact_grad=exact_grad)


@dataclass(frozen=True)
class ElasticityData:
    lam: float
    mu: float
    f: object          # (m, 2) body force
    exact: object      # (m, 2) displacement
    grad1: object      # (m, 2) gradient of u1
    grad2: object
    sigma: object      # (m, 3) rows [s11, s22, s12]


def elasticity_data(lam=1.0, mu=1.0):
    """Both displacement components equal sin(pi x) sin(pi y)."""
    pi = np.pi

    def w(p):
        return np.sin(pi * p[:, 0]) * np.sin(pi * p[:, 1])

    def wx(p):
        return pi * np.cos(pi * p[:, 0]) * np.sin(pi * p[:, 1])

    def wy(p):
        return pi * np.sin(pi * p[:, 0]) * np.cos(pi * p[:, 1])

    def exact(p):
        return np.column_stack([w(p), w(p)])

    def grad(p):
        return np.column_stack([wx(p), wy(p)])

    def f(p):
        x, y = p[:, 0], p[:, 1]
        body = 2 * mu * pi**2 * np.sin(pi * x) * np.sin(pi * y) \
            - (lam + mu) * pi**2 * np.cos(pi * (x + y))
        return np.column_stack([body, body])

    def sigma(p):
        x, y = p[:, 0], p[:, 1]
        div = pi * np.sin(pi * (x + y))
        s11 = 2 * mu * wx(p) + lam * div
        s22 = 2 * mu * wy(p) + lam * div
        s12 = mu * div
        return np.column_stack([s11, s22, s12])

    return ElasticityData(lam=lam, mu=mu, f=f, exact=exact, grad1=grad,
                          grad2=grad, sigma=sigma)


@dataclass(frozen=True)
class BiharmonicData:
    f: object
    exact: object
    exact_grad: object
    w_exact: object      # w = -laplace(u)
    w_grad: object


def biharmonic_data():
    """Clamped-plate bubble u = x^2 (1-x)^2 y^2 (1-y)^2.

    Both u and du/dn vanish on the whole boundary of the unit square,
    the setting the suboptimal w-rates are reported for."""

    def u(p):
        return _phi(p[:, 0]) * _phi(p[:, 1])

    def du(p):
        return np.column_stack([_dphi(p[:, 0]) * _phi(p[:, 1]),
                                _phi(p[:, 0]) * _dphi(p[:, 1])])

    def w(p):
        return -(_d2phi(p[:, 0]) * _phi(p[:, 1]) + _phi(p[:, 0]) * _d2phi(p[:, 1]))

    def dw(p):
        x, y = p[:, 0], p[:, 1]
        return -np.column_stack([
            _d3phi(x) * _phi(y) + _dphi(x) * _d2phi(y),
            _d2phi(x) * _dphi(y) + _phi(x) * _d3phi(y)])

    def f(p):
        # lap^2 u with phi'''' = 24
        x, y = p[:, 0], p[:, 1]
        return 24 * _phi(y) + 2 * _d2phi(x) * _d2phi(y) + 24 * _phi(x)

    return BiharmonicData(f=f, exact=u, exact_grad=du, w_exact=w, w_grad=dw)


# quartic divergence-free velocity / quartic pressure on the unit square
def _phi(x):
    return x**2 - 2 * x**3 + x**4


def _dphi(x):
    return 2 * x - 6 * x**2 + 4 * x**3


def _d2phi(x):
    return 2 - 12 * x + 12 * x**2


def _d3phi(x):
    return -12 + 24 * x


@dataclass(frozen=True)
class StokesData:
    f: object
    exact_u: object
    grad1: object
    grad2: object
    exact_p: object


def stokes_data(nu=1.0):
    c = 2.0**8

    def u1(x, y):
        return -c * _phi(x) * _dphi(y)

    def u2(x, y):
        return c * _dphi(x) * _phi(y)

    def exact_u(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([u1(x, y), u2(x, y)])

    def grad1(p):
        x, y = p[:, 0], p[:, 1]
        return -c * np.column_stack([_dphi(x) * _dphi(y), _phi(x) * _d2phi(y)])

    def grad2(p):
        x, y = p[:, 0], p[:, 1]
        return c * np.column_stack([_d2phi(x) * _phi(y), _dphi(x) * _dphi(y)])

    def exact_p(p):
        x, y = p[:, 0], p[:, 1]
        return -c * _d2phi(x) * _phi(y)

    def f(p):
        # momentum residual -nu*lap(u) + grad(p) of the exact pair
        x, y = p[:, 0], p[:, 1]
        lap1 = -c * (_d2phi(x) * _dphi(y) + _phi(x) * _d3phi(y))
        lap2 = c * (_d3phi(x) * _phi(y) + _dphi(x) * _d2phi(y))
        px = -c * _d3phi(x) * _phi(y)
        py = -c * _d2phi(x) * _dphi(y)
        return np.column_stack([-nu * lap1 + px, -nu * lap2 + py])

    return StokesData(f=f, exact_u=exact_u, grad1=grad1, grad2=grad2,
                      exact_p=exact_p)


@dataclass(frozen=True)
class HeatData:
    f: object            # f(p, t)
    exact: object        # u(p, t)
    exact_grad: object   # grad u(p, t)


def heat_data():
    """u = sin(pi x) sin(y) exp(-t), so f = pi^2 u."""
    pi = np.pi

    def exact(p, t):
        return np.sin(pi * p[:, 0]) * np.sin(p[:, 1]) * np.exp(-t)

    def exact_grad(p, t):
        e = np.exp(-t)
        return np.column_stack([
            pi * np.cos(pi * p[:, 0]) * np.sin(p[:, 1]) * e,
            np.sin(pi * p[:, 0]) * np.cos(p[:, 1]) * e])

    def f(p, t):
        return pi**2 * exact(p, t)

    return HeatData(f=f, exact=exact, exact_grad=exact_grad)


def ns_data(nu=1.0):
    """Stokes quartic pair driven as a Navier-Stokes solution: the
    convection of the exact velocity is added to the forcing."""
    base = stokes_data(nu)
    c = 2.0**8

    def f(p):
        x, y = p[:, 0], p[:, 1]
        conv1 = c**2 * _phi(x) * _dphi(x) * (_dphi(y)**2 - _phi(y) * _d2phi(y))
        conv2 = c**2 * _phi(y) * _dphi(y) * (_dphi(x)**2 - _phi(x) * _d2phi(x))
        return base.f(p) + np.column_stack([conv1, conv2])

    return StokesData(f=f, exact_u=base.exact_u, grad1=base.grad1,
                      grad2=base.grad2, exact_p=base.exact_p)


def ns_polynomial_data(nu=1.0):
    """Navier-Stokes solution inside the Taylor-Hood space itself:
    u = (y^2, x^2), p = x + y - 1."""

    def exact_u(p):
        return np.column_stack([p[:, 1] ** 2, p[:, 0] ** 2])

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return np.column_stack([2 * x**2 * y - 2 * nu + 1,
                                2 * x * y**2 - 2 * nu + 1])

    return StokesData(
        f=f,
        exact_u=exact_u,
        grad1=lambda p: np.column_stack([np.zeros(len(p)), 2 * p[:, 1]]),
        grad2=lambda p: np.column_stack([2 * p[:, 0], np.zeros(len(p))]),
        exact_p=lambda p: p[:, 0] + p[:, 1] - 1.0)


_FIELDS = frozenset(f.name for f in fields(ProblemSpec))

# why a problem's row fixes a field its runner does not read
_FIXED_BECAUSE = {
    "degree": "the Taylor-Hood pair is P2-P2-P1",
    "selectors": "it has no Robin or Neumann data; the whole boundary "
                 "is Dirichlet",
    "mesh_path": "its ladder refines generated rectangle meshes",
}
# the fields that only a generated mesh reads
_GENERATED_MESH = ("refinements", "bbox", "h0")
# the discretization, mesh, time, Newton and Taylor-Hood controls: what
# a valid value is, and its test
_CONTROLS = {
    "degree": ("1, 2 or 3",
               lambda v: isinstance(v, (int, np.integer)) and v in (1, 2, 3)),
    "refinements": ("an integer >= 1",
                    lambda v: isinstance(v, (int, np.integer)) and v >= 1),
    "quad_order": (f"None or an integer in 1..{MAX_TRIANGLE_ORDER}",
                   lambda v: v is None or (isinstance(v, (int, np.integer))
                                           and 1 <= v <= MAX_TRIANGLE_ORDER)),
    "bbox": ("four finite numbers x0, x1, y0, y1 with x0 < x1 and y0 < y1",
             lambda v: (np.shape(v) == (4,) and -np.inf < v[0] < v[1] < np.inf
                        and -np.inf < v[2] < v[3] < np.inf)),
    "h0": ("a finite number > 0", lambda v: 0 < v < np.inf),
    "dt": ("None or a finite number > 0", lambda v: v is None or 0 < v < np.inf),
    "t_end": ("a finite number > 0", lambda v: 0 < v < np.inf),
    "tol": ("a finite number > 0", lambda v: 0 < v < np.inf),
    "nu": ("a finite number > 0", lambda v: 0 < v < np.inf),
    "eps": ("a finite number > 0", lambda v: 0 < v < np.inf),
    "max_iter": ("an integer >= 1",
                 lambda v: isinstance(v, (int, np.integer)) and v >= 1),
}


def _check_control(spec, name):
    """A ValueError unless spec's field name is valid by _CONTROLS."""
    valid, ok = _CONTROLS[name]
    if not ok(getattr(spec, name)):
        raise ValueError(f"{name} must be {valid}, got {getattr(spec, name)!r}")


def _row(problem):
    if problem not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; expected one of "
                         f"{', '.join(PROBLEM_IDS)}")
    return _PROBLEMS[problem]


def default_spec(problem, **overrides):
    """Spec with the manufactured data and the defaults of the problem's
    row in the problem table; overrides that are None are ignored.

    Raises ValueError for an unknown problem or field name, for a change
    to a field the problem's runner does not read, for a mesh_path
    together with a field that only a generated mesh reads, for a degree,
    refinement count, quadrature order, bounding box, grid spacing, time
    step, end time, Newton tolerance, iterate cap, viscosity or penalty
    out of range (see _CONTROLS), for a time step that does not divide
    the end time or a grid spacing the box sides (without a mesh_path),
    and for a selector that does not parse (SelectorError).
    """
    row = _row(problem)
    spec = ProblemSpec(problem=problem, **row.defaults)
    for name, value in overrides.items():
        if name not in _FIELDS:
            raise ValueError(f"ProblemSpec has no field {name!r}")
        if value is None:
            continue
        if name not in row.reads and value != getattr(spec, name):
            why = _FIXED_BECAUSE.get(name, "its driver does not read it")
            raise ValueError(f"{problem} fixes {name} = {getattr(spec, name)!r}: "
                             f"{why}")
        setattr(spec, name, value)
    for name in _CONTROLS:
        _check_control(spec, name)
    if spec.dt is not None:
        _fixed_steps(spec.dt, spec.t_end)
    if isinstance(spec.selectors, str):      # one selector, as fe_mesh takes it
        spec.selectors = (spec.selectors,)
    for selector in spec.selectors:
        parse_selector(selector)
    if spec.mesh_path is not None:
        ignored = [n for n in _GENERATED_MESH if overrides.get(n) is not None]
        if ignored:
            raise ValueError(f"{problem} reads mesh_path as given: "
                             f"{', '.join(ignored)} apply only to generated meshes")
    else:
        _grid_lines(spec.bbox, spec.h0)
    if spec.data is None:
        spec.data = row.data(spec)
    return spec


# ---------------------------------------------------------------------------
# shared pieces: ladder, errors, boundary rule, components

def _levels(spec, selectors=()):
    """(th, h) on each refinement of square_mesh(bbox, h0), with the
    boundary regions of the selectors; h is the leg length at that level.
    A spec built without default_spec is checked here too: with no
    level, a ladder would report nothing and Newton would have no mesh."""
    _check_control(spec, "refinements")
    mesh = square_mesh(spec.bbox, spec.h0)
    for k in range(1, spec.refinements + 1):
        mesh = uniform_refine(mesh)
        yield fe_mesh(mesh, selectors), spec.h0 / 2**k


def _run_ladder(spec, solve_level, selectors=()):
    """solve_level(th, h) on each of _levels(spec, selectors); the
    report's columns are the keys of the dicts it returns."""
    hs, nts, errs = [], [], {}
    for th, h in _levels(spec, selectors):
        for name, err in solve_level(th, h).items():
            errs.setdefault(name, []).append(err)
        hs.append(h)
        nts.append(th.mesh.num_elems)
    return RateReport(problem=spec.problem, h=np.array(hs),
                      num_elems=np.array(nts), columns=errs).fit()


def _vector_errors(th, space, order, uh_parts, exacts, grads, prefix=""):
    """prefix + "L2"/"H1": errors summed in l2 over components; sqrt(e**2) == e."""
    l2 = math.sqrt(sum(error_L2(th, space, order, ex, uh) ** 2
                       for uh, ex in zip(uh_parts, exacts)))
    h1 = math.sqrt(sum(error_H1_semi(th, space, order, g, uh) ** 2
                       for uh, g in zip(uh_parts, grads)))
    return {prefix + "L2": l2, prefix + "H1": h1}


def _boundary(th):
    """(natural, dirichlet): with selectors the first region carries the
    Robin or Neumann data and every other region is Dirichlet; without
    selectors there is no natural region and region 0, the whole
    boundary, is Dirichlet."""
    if th.partition.selectors:
        return th.partition[0], tuple(range(1, len(th.partition)))
    return None, (0,)


def _split(f, n):
    """The n scalar components of an (m, n)-valued point function."""
    return tuple((lambda p, c=c: f(p)[:, c]) for c in range(n))


def _components(U, system):
    """The per-component parts of a solution of an assembled system."""
    return tuple(np.split(U, system.offsets[1:-1]))


# ---------------------------------------------------------------------------
# Poisson

def solve_poisson(th, spec):
    """One solve of the second-order elliptic model problem."""
    data, space, order = spec.data, spec.space, spec.order
    region, on = _boundary(th)

    kk = assemble_system(th, var_form([data.a, data.c],
                                      ["v.grad", "v.val"],
                                      ["u.grad", "u.val"]), [space], order)
    ff = assemble_system(th, var_form(data.f, "v.val"), [space], order)

    if region is not None:
        kk = kk + assemble_system(th, var_form(data.g_R, "v.val", "u.val"),
                                  [space], order, region=region)
        # Neumann data g_N = g_R*u + a*du/dn from the exact solution
        cmat1 = coef_matrix_on_edges(lambda p: data.g_R(p) * data.exact(p),
                                     th, region, order)
        cmat2 = coef_matrix_on_edges(lambda p: data.a(p)[:, None] * data.exact_grad(p),
                                     th, region, order)
        ff = ff + assemble_system(th, var_form(cmat1 + cmat2, "v.val"),
                                  [space], order, region=region)

    return apply_dirichlet_and_solve(th, kk, ff,
                                     DirichletSpec(on, (data.exact,) * len(on)))


def run_poisson(spec):
    data, space, order = spec.data, spec.space, spec.order

    def level(th, h):
        return _vector_errors(th, space, order, (solve_poisson(th, spec),),
                              (data.exact,), (data.exact_grad,))

    return _run_ladder(spec, level, spec.selectors)


# ---------------------------------------------------------------------------
# linear elasticity

def solve_elasticity_displacement(th, spec):
    """Block solve of -mu lap(u) - (lam+mu) grad div(u) = f."""
    data, space, order = spec.data, spec.space, spec.order
    lam, mu = data.lam, data.mu

    A = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"), space, space, order)
    B1 = assemble_scalar_2d(th, var_form(1, "v.dx", "u.dx"), space, space, order)
    B2 = assemble_scalar_2d(th, var_form(1, "v.dx", "u.dy"), space, space, order)
    B3 = assemble_scalar_2d(th, var_form(1, "v.dy", "u.dx"), space, space, order)
    B4 = assemble_scalar_2d(th, var_form(1, "v.dy", "u.dy"), space, space, order)
    kk = system_from_blocks(th, [space, space], {
        (0, 0): mu * A + (lam + mu) * B1,
        (0, 1): (lam + mu) * B2,
        (1, 0): (lam + mu) * B3,
        (1, 1): mu * A + (lam + mu) * B4,
    })

    ff = np.concatenate([assemble_scalar_2d(th, var_form(fc, "v.val"),
                                            space, None, order)
                         for fc in Cells(th, order).components(data.f, 2)])
    uh = apply_dirichlet_and_solve(th, kk, ff,
                                   DirichletSpec((0,), (_split(data.exact, 2),)))
    return _components(uh, kk)


def _run_elasticity(spec, solve, selectors=()):
    data, space, order = spec.data, spec.space, spec.order

    def level(th, h):
        return _vector_errors(th, space, order, solve(th, spec),
                              _split(data.exact, 2), (data.grad1, data.grad2))

    return _run_ladder(spec, level, selectors)


def run_elasticity_displacement(spec):
    return _run_elasticity(spec, solve_elasticity_displacement)


def elasticity_tensor_system(th, spec, extended=False):
    """Stiffness 2 mu int eps(v):eps(u) + lam int div v div u.

    With extended=True the strain pairing is written out as the six
    elementary products instead of the '+'-joined short form.
    """
    data, space, order = spec.data, spec.space, spec.order
    mu2, mu, lam = 2 * data.mu, data.mu, data.lam
    if extended:
        form = var_form([mu2, mu2, mu, mu, mu, mu, lam],
                        ["v1.dx", "v2.dy", "v1.dy", "v1.dy", "v2.dx", "v2.dx",
                         "v1.dx + v2.dy"],
                        ["u1.dx", "u2.dy", "u1.dy", "u2.dx", "u1.dy", "u2.dx",
                         "u1.dx + u2.dy"])
    else:
        form = var_form([mu2, mu2, mu, lam],
                        ["v1.dx", "v2.dy", "v1.dy + v2.dx", "v1.dx + v2.dy"],
                        ["u1.dx", "u2.dy", "u1.dy + u2.dx", "u1.dx + u2.dy"])
    return assemble_system(th, form, [space, space], order)


def solve_elasticity_tensor(th, spec):
    data, space, order = spec.data, spec.space, spec.order
    region, on = _boundary(th)
    kk = elasticity_tensor_system(th, spec)
    ff = assemble_system(th, var_form(data.f, "v.val"), [space, space], order)

    if region is not None:
        cmat1 = coef_matrix_on_edges(lambda p: data.sigma(p)[:, [0, 2]],
                                     th, region, order)
        cmat2 = coef_matrix_on_edges(lambda p: data.sigma(p)[:, [2, 1]],
                                     th, region, order)
        ff = ff + assemble_system(th, var_form([cmat1, cmat2], "v.val"),
                                  [space, space], order, region=region)

    uh = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec(
        on, (_split(data.exact, 2),) * len(on)))
    return _components(uh, kk)


def run_elasticity_tensor(spec):
    return _run_elasticity(spec, solve_elasticity_tensor, spec.selectors)


# ---------------------------------------------------------------------------
# mixed biharmonic

def solve_biharmonic(th, spec, mode="vector"):
    """Mixed solve of lap^2 u = f via w = -lap u; returns (w, u).

    mode 'block' builds [A, B; B^T, O] from scalar pieces, mode 'vector'
    assembles the equivalent 3-entry two-component form.
    """
    data, space, order = spec.data, spec.space, spec.order
    region = th.partition[0]

    if mode == "block":
        A = -1 * assemble_scalar_2d(th, var_form(1, "v.val", "u.val"),
                                    space, space, order)
        B = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                               space, space, order)
        kk = system_from_blocks(th, [space, space],
                                {(0, 0): A, (0, 1): B, (1, 0): B.T})
        fpart = assemble_scalar_2d(th, var_form(data.f, "v.val"), space, None, order)
        neumann = coef_matrix_on_edges(data.exact_grad, th, region, order)
        npart = assemble_scalar_1d(th, region, var_form(neumann, "v.val"),
                                   space, None, order)
        ff = np.concatenate([npart, fpart])
    elif mode == "vector":
        kk = assemble_system(th, var_form([-1, 1, 1],
                                          ["v1.val", "v1.grad", "v2.grad"],
                                          ["u1.val", "u2.grad", "u1.grad"]),
                             [space, space], order)
        ff = assemble_system(th, var_form(data.f, "v2.val"),
                             [space, space], order)
        neumann = coef_matrix_on_edges(data.exact_grad, th, region, order)
        ff = ff + assemble_system(th, var_form(neumann, "v1.val"),
                                  [space, space], order, region=region)
    else:
        raise ValueError(f"unknown biharmonic mode {mode!r}")

    # Dirichlet data only for u; w is unconstrained
    U = apply_dirichlet_and_solve(th, kk, ff,
                                  DirichletSpec((0,), ((None, data.exact),)))
    return _components(U, kk)


def run_biharmonic(spec, mode="vector"):
    data, space, order = spec.data, spec.space, spec.order

    def level(th, h):
        w, u = solve_biharmonic(th, spec, mode=mode)
        return {**_vector_errors(th, space, order, (u,), (data.exact,),
                                 (data.exact_grad,), "u_"),
                **_vector_errors(th, space, order, (w,), (data.w_exact,),
                                 (data.w_grad,), "w_")}

    return _run_ladder(spec, level)


# ---------------------------------------------------------------------------
# Stokes (Taylor-Hood with penalty)

def _taylor_hood(data):
    """The P2-P2-P1 spaces and the velocity Dirichlet data on region 0,
    the whole boundary."""
    g1, g2 = _split(data.exact_u, 2)
    return ["P2", "P2", "P1"], DirichletSpec((0,), ((g1, g2, None),))


def stokes_form(spec):
    """nu grad u : grad v - p div v - q div u - eps p q."""
    form = var_form(
        [spec.nu, spec.nu, -1, -1, -1, -1, -spec.eps],
        ["v1.grad", "v2.grad", "v1.dx", "v2.dy", "q.val", "q.val", "q.val"],
        ["u1.grad", "u2.grad", "p.val", "p.val", "u1.dx", "u2.dy", "p.val"])
    return standardize_symbols(["v1", "v2", "q"], ["u1", "u2", "p"], form)


def _solve_taylor_hood(th, spec, kk, load):
    """(u1, u2, p) of the assembled Taylor-Hood system kk whose load is
    the two 'v.val' coefficients load = (f1, f2), under _taylor_hood's
    Dirichlet data.  apply_dirichlet_and_solve takes CG on the pressure
    Schur complement where kk has the penalized Stokes structure."""
    spaces, dirichlet = _taylor_hood(spec.data)
    ff = assemble_system(th, var_form(list(load), ["v1.val", "v2.val"]),
                         spaces, spec.order)
    del load    # not kept through the solve, which sets the peak memory
    return _components(apply_dirichlet_and_solve(th, kk, ff, dirichlet), kk)


def solve_stokes(th, spec):
    """(u1, u2, p) of one level; f is evaluated once."""
    order = spec.order
    kk = assemble_system(th, stokes_form(spec), _taylor_hood(spec.data)[0], order)
    return _solve_taylor_hood(th, spec, kk,
                              Cells(th, order).components(spec.data.f, 2))


def run_stokes(spec):
    data, order = spec.data, spec.order

    def level(th, h):
        u1, u2, p = solve_stokes(th, spec)
        return {**_vector_errors(th, "P2", order, (u1, u2), _split(data.exact_u, 2),
                                 (data.grad1, data.grad2), "u_"),
                "p_L2": error_L2(th, "P1", order, data.exact_p, p)}

    return _run_ladder(spec, level)


# ---------------------------------------------------------------------------
# heat equation (backward Euler)

def _flux_operator(edges, space):
    """L1n @ g.ravel() is the load on the edges (a 1d Cells) of the flux
    g.n, for the values g, (NE, ng, 2), of a 2-component function at
    the edge quadrature points: the outward normals are folded into the
    region's load operator."""
    normals = np.repeat(outward_normals(edges.th, edges.region),
                        edges.rule.npoints, axis=0)
    load = load_operator(edges.th, space, edges.order, edges.region)
    # column c of the load becomes columns 2c and 2c + 1, scaled by n(c)
    return sp.csr_matrix(
        ((load.data[:, None] * normals[load.indices]).ravel(),
         (2 * load.indices[:, None] + np.arange(2)).ravel(), 2 * load.indptr),
        shape=(load.shape[0], 2 * load.shape[1]))


def solve_heat(th, spec, dt, nsteps):
    """March u_t - lap u = f to t = nsteps*dt; returns the final dofs.

    Everything but the data values is built once: the matrix M/dt + A
    and its factorization, and the step operator, the free rows of
    [load | M/dt | flux] with -A_fc appended (``DirichletSolver.
    free_rows``).  The load is a prebuilt sparse operator on the values
    of f at the quadrature points (``load_operator``), and the flux the
    same operator on the Neumann region with the outward normals folded
    in, applied to grad u at the edge quadrature points.  A step is one
    sparse product, on the values of f, the last solution, grad u and
    the Dirichlet data at the new time, and one lifted solve; it
    assembles nothing.
    """
    data, space, order = spec.data, spec.space, spec.order
    region, on = _boundary(th)

    kk = assemble_system(th, var_form([1.0 / dt, 1], ["v.val", "v.grad"],
                                      ["u.val", "u.grad"]), [space], order)
    # the same Dirichlet dofs every step
    initial = lambda p: data.exact(p, 0.0)
    fixed, _ = dirichlet_dofs(th, kk, DirichletSpec(on, (initial,) * len(on)))
    fixed_points = th.dof_map(space).dof_point[fixed]
    solver = DirichletSolver(kk.matrix(), fixed)
    del kk                      # the full matrix goes before the step operators

    mass = assemble_system(th, var_form(1.0 / dt, "v.val", "u.val"),
                           [space], order).matrix()
    ops = [load_operator(th, space, order), mass]
    cells = Cells(th, order)
    if region is not None:
        edges = Cells(th, order, region)
        ops.append(_flux_operator(edges, space))
    step_operator = solver.free_rows(*ops)

    uh = interpolate_nodal(initial, th, space)
    for step in range(1, nsteps + 1):
        t = step * dt
        g = _eval_pointfun(lambda p: data.exact(p, t), fixed_points)
        parts = [cells.values(lambda p: data.f(p, t)).ravel(), uh]
        if region is not None:
            parts.append(edges.values(lambda p: data.exact_grad(p, t), 2).ravel())
        parts.append(g)
        uh = solver.solve_lifted(step_operator @ np.concatenate(parts), g)
    return uh


def _fixed_steps(dt, t_end):
    """The number of steps of a fixed time step dt to t_end; ValueError
    unless t_end / dt is a whole number to 1e-9 relative."""
    ratio = t_end / dt
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"dt must divide t_end = {t_end!r} into whole steps, "
                         f"got dt = {dt!r} (t_end / dt = {ratio:.6g})")
    return steps


def run_heat(spec):
    """Convergence at final time; dt couples as h^(k+1) unless fixed,
    and then must divide t_end."""
    data, space, order = spec.data, spec.space, spec.order
    k = spec.degree

    def level(th, h):
        if spec.dt is None:
            nsteps = max(1, int(round(spec.t_end / h**(k + 1))))
        else:
            nsteps = _fixed_steps(spec.dt, spec.t_end)
        t = spec.t_end
        uh = solve_heat(th, spec, t / nsteps, nsteps)
        return _vector_errors(th, space, order, (uh,), (lambda p: data.exact(p, t),),
                              (lambda p: data.exact_grad(p, t),))

    return _run_ladder(spec, level, spec.selectors)


# ---------------------------------------------------------------------------
# steady Navier-Stokes by Newton linearization

@dataclass
class NewtonResult:
    u1: np.ndarray
    u2: np.ndarray
    p: np.ndarray
    increment_norms: list
    iterations: int
    converged: bool
    stop_reason: str     # "tolerance" or "max_iter"


def _convection_form(coefs):
    """The convection part of DF(U), the form linearized at the iterate
    U = (u1, u2, p) whose velocity coefficients are coefs: the eight
    entries of v.((w.grad)U + (U.grad)w) in the unknown w, standardized
    to the trial symbols u1, u2, u3 of the Stokes form.  DF(U) is the
    Stokes form plus this one; at U = 0 every coefficient is zero and
    DF(0) is the Stokes form.
    """
    u1xc, u1yc, u2xc, u2yc, u1c, u2c = coefs
    return standardize_symbols(["v1", "v2", "q"], ["u1", "u2", "p"], var_form(
        [u1xc, u1yc, u2xc, u2yc, u1c, u2c, u1c, u2c],
        ["v1.val", "v1.val", "v2.val", "v2.val",
         "v1.val", "v1.val", "v2.val", "v2.val"],
        ["u1.val", "u2.val", "u1.val", "u2.val",
         "u1.dx", "u1.dy", "u2.dx", "u2.dy"]))


def run_ns_newton(spec, th=None, initial=None):
    """Newton iteration for the steady Navier-Stokes equations.

    Each step solves DF(U) U_new = load((u.grad)u + f), the same as
    DF(U) (U - U_new) = F(U) since DF(U) U doubles the convection and
    repeats every other term; f is evaluated once per run.  DF(U) is the
    Stokes system, assembled once per run, plus the convection system
    of U (_convection_form), assembled per step and added; a step whose
    convection coefficients are all zero, as from rest, solves the
    Stokes system itself.  U_new has the Taylor-Hood Dirichlet data, so
    a step is a Stokes solve with another matrix and load
    (_solve_taylor_hood).  The increment norm is
    max(|du1|, |du2|, |dp - mean(dp)|) of du = U - U_new: the eps penalty
    leaves the constant pressure mode an eigenvalue near eps, so an LU
    solve leaves its amplitude loose, and it is left out.  Converged:
    that norm below tol relative to max(1, max|U_new|).
    """
    data, order = spec.data, spec.order
    if th is None:
        if spec.mesh_path:
            mesh, _ = read_freefem_msh(spec.mesh_path)
            th = fe_mesh(mesh)
        else:
            for th, _ in _levels(spec):     # the finest level
                pass

    spaces = _taylor_hood(data)[0]
    if initial is None:
        initial = (np.zeros(th.dof_map(s).num_dofs) for s in spaces)
    uh1, uh2, ph = (np.array(v, dtype=float) for v in initial)

    stokes = assemble_system(th, stokes_form(spec), spaces, order)
    f1, f2 = Cells(th, order).components(data.f, 2)

    norms = []
    stop_reason = "max_iter"
    for it in range(1, spec.max_iter + 1):
        coefs = tuple(coef_matrix_from_dofs(dofs, tag, th, "P2", order)
                      for dofs, tag in ((uh1, "dx"), (uh1, "dy"), (uh2, "dx"),
                                        (uh2, "dy"), (uh1, "val"), (uh2, "val")))
        u1xc, u1yc, u2xc, u2yc, u1c, u2c = coefs
        kk = stokes
        if any(c.any() for c in coefs):
            kk = stokes + assemble_system(th, _convection_form(coefs), spaces, order)
        parts = _solve_taylor_hood(th, spec, kk, (
            u1c * u1xc + u2c * u1yc + f1,
            u1c * u2xc + u2c * u2yc + f2))
        du1, du2, dp = (old - new for old, new in zip((uh1, uh2, ph), parts))
        uh1, uh2, ph = parts

        norms.append(float(max(np.abs(du1).max(), np.abs(du2).max(),
                               np.abs(dp - dp.mean()).max())))
        if norms[-1] < spec.tol * max(1.0, *(float(np.abs(u).max()) for u in parts)):
            stop_reason = "tolerance"
            break
        if len(norms) >= 3 and norms[-1] > 10 * norms[-2] > 100 * norms[-3]:
            raise RuntimeError(f"Newton iteration diverging after {it} steps: "
                               f"increment norms {norms[-3:]}")

    return NewtonResult(u1=uh1, u2=uh2, p=ph, increment_norms=norms,
                        iterations=len(norms), converged=stop_reason != "max_iter",
                        stop_reason=stop_reason), th


# ---------------------------------------------------------------------------
# the problem table

@dataclass(frozen=True)
class _Problem:
    run: object          # spec -> RateReport (NewtonResult for ns-newton)
    data: object         # spec -> manufactured data
    defaults: dict       # ProblemSpec fields that differ from its defaults
    reads: tuple         # the ProblemSpec fields its runner reads


# read by every runner: the generated mesh, the quadrature order, the data
_EVERY_RUNNER = ("quad_order", "refinements", "bbox", "h0", "data")
# read by every runner of the Taylor-Hood form (stokes, ns-newton)
_TAYLOR_HOOD = _EVERY_RUNNER + ("nu", "eps")

_PROBLEMS = {
    "poisson": _Problem(run_poisson, lambda s: poisson_data(),
                        {"selectors": ("x==0",)},
                        ("degree", "selectors") + _EVERY_RUNNER),
    "elasticity-disp": _Problem(run_elasticity_displacement,
                                lambda s: elasticity_data(), {},
                                ("degree",) + _EVERY_RUNNER),
    "elasticity-tensor": _Problem(run_elasticity_tensor,
                                  lambda s: elasticity_data(),
                                  {"selectors": ("y==0 | x==1",)},
                                  ("degree", "selectors") + _EVERY_RUNNER),
    "biharmonic-block": _Problem(lambda s: run_biharmonic(s, mode="block"),
                                 lambda s: biharmonic_data(), {},
                                 ("degree",) + _EVERY_RUNNER),
    "biharmonic-vector": _Problem(lambda s: run_biharmonic(s, mode="vector"),
                                  lambda s: biharmonic_data(), {},
                                  ("degree",) + _EVERY_RUNNER),
    "stokes": _Problem(run_stokes, lambda s: stokes_data(s.nu),
                       {"degree": 2, "quad_order": 5}, _TAYLOR_HOOD),
    "heat": _Problem(run_heat, lambda s: heat_data(),
                     {"selectors": ("x==0",), "refinements": 4},
                     ("degree", "selectors", "dt", "t_end") + _EVERY_RUNNER),
    "ns-newton": _Problem(lambda s: run_ns_newton(s)[0], lambda s: ns_data(s.nu),
                          {"degree": 2, "quad_order": 7, "refinements": 1},
                          _TAYLOR_HOOD + ("mesh_path", "max_iter", "tol")),
}

PROBLEM_IDS = tuple(_PROBLEMS)


def run_problem(spec):
    """Run the driver of spec.problem's row; returns its RateReport
    (NewtonResult for ns-newton)."""
    return _row(spec.problem).run(spec)
