"""Driver suite: elliptic, elasticity, biharmonic, Stokes, heat and
steady Navier-Stokes problems, each declared through (Coef, Test, Trial)
triples and run over a uniform refinement ladder with error tracking.

Manufactured solutions are used throughout; for the mixed Stokes
problem the classical quartic divergence-free field on the unit square
is wired in so the published error table can be reproduced digit-close.

Each problem is one row of the problem table at the end of the module:
its runner, data factory, defaults and the spec fields its driver does
not read.  With boundary selectors the first region carries the Robin
or Neumann data and every other region is Dirichlet (``_boundary``).
"""

from dataclasses import dataclass, fields

import numpy as np

from .assembly import (assemble_scalar_1d, assemble_scalar_2d,
                       assemble_system, system_from_blocks)
# evaluate_at_points is unused here; perfbench/spans.py wraps it in this module
from .fespace import (FeFunction, coef_matrix_from_dofs, coef_matrix_on_edges,
                      evaluate_at_points, fe_space, interpolate_nodal)
from .io import read_freefem_msh
from .mesh import fe_mesh, square_mesh, uniform_refine
from .system import (DirichletSolver, DirichletSpec, RateReport,
                     apply_dirichlet_and_solve, dirichlet_dofs, error_H1_semi,
                     error_L2)
from .vform import VarForm, standardize_symbols, var_form

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

# why a problem's row fixes a field: its driver does not read it
_FIXED_BECAUSE = {
    "degree": "the Taylor-Hood pair is P2-P2-P1",
    "selectors": "it has no Robin or Neumann data; the whole boundary "
                 "is Dirichlet",
    "mesh_path": "its ladder refines generated rectangle meshes",
}


def _row(problem):
    if problem not in _PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; expected one of "
                         f"{', '.join(PROBLEM_IDS)}")
    return _PROBLEMS[problem]


def default_spec(problem, **overrides):
    """Spec with the manufactured data and the defaults of the problem's
    row in the problem table; overrides that are None are ignored.

    Raises ValueError for an unknown problem or field name, and for a
    change to a field the problem fixes.
    """
    row = _row(problem)
    spec = ProblemSpec(problem=problem, **row.defaults)
    for name, value in overrides.items():
        if name not in _FIELDS:
            raise ValueError(f"ProblemSpec has no field {name!r}")
        if value is None:
            continue
        if name in row.fixed and value != getattr(spec, name):
            raise ValueError(f"{problem} fixes {name} = {getattr(spec, name)!r}: "
                             f"{_FIXED_BECAUSE[name]}")
        setattr(spec, name, value)
    if spec.data is None:
        spec.data = row.data(spec)
    return spec


# ---------------------------------------------------------------------------
# shared pieces: ladder, errors, boundary rule, components

def _run_ladder(spec, solve_level):
    """solve_level(th, h) on each refinement of square_mesh(bbox, h0);
    the report's columns are the keys of the dicts it returns."""
    mesh = square_mesh(spec.bbox, spec.h0)
    hs, nts, errs = [], [], {}
    for k in range(1, spec.refinements + 1):
        mesh = uniform_refine(mesh)
        th = fe_mesh(mesh, spec.selectors)
        h = spec.h0 / 2**k             # leg length at level k
        for name, err in solve_level(th, h).items():
            errs.setdefault(name, []).append(err)
        hs.append(h)
        nts.append(mesh.num_elems)
    report = RateReport(problem=spec.problem, h=np.array(hs),
                        num_elems=np.array(nts), columns=errs)
    return report.fit() if len(hs) >= 2 else report


def _vector_errors(th, space, order, uh_parts, exacts, grads):
    """L2 and H1-seminorm errors, each the l2 sum over the components."""
    l2 = np.sqrt(sum(error_L2(th, space, order, ex, uh) ** 2
                     for uh, ex in zip(uh_parts, exacts)))
    h1 = np.sqrt(sum(error_H1_semi(th, space, order, g, uh) ** 2
                     for uh, g in zip(uh_parts, grads)))
    return {"L2": l2, "H1": h1}


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
                                  [space], order, domain="1d", region=region)
        # Neumann data g_N = g_R*u + a*du/dn from the exact solution
        cmat1 = coef_matrix_on_edges(lambda p: data.g_R(p) * data.exact(p),
                                     th, region, order)
        cmat2 = coef_matrix_on_edges(lambda p: data.a(p)[:, None] * data.exact_grad(p),
                                     th, region, order)
        ff = ff + assemble_system(th, var_form(cmat1 + cmat2, "v.val"),
                                  [space], order, domain="1d", region=region)

    return apply_dirichlet_and_solve(th, kk, ff,
                                     DirichletSpec(on, (data.exact,) * len(on)))


def run_poisson(spec):
    data, space, order = spec.data, spec.space, spec.order

    def level(th, h):
        uh = solve_poisson(th, spec)
        return {"L2": error_L2(th, space, order, data.exact, uh),
                "H1": error_H1_semi(th, space, order, data.exact_grad, uh)}

    return _run_ladder(spec, level)


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
                         for fc in _split(data.f, 2)])
    uh = apply_dirichlet_and_solve(th, kk, ff,
                                   DirichletSpec((0,), (_split(data.exact, 2),)))
    return _components(uh, kk)


def _run_elasticity(spec, solve):
    data, space, order = spec.data, spec.space, spec.order

    def level(th, h):
        return _vector_errors(th, space, order, solve(th, spec),
                              _split(data.exact, 2), (data.grad1, data.grad2))

    return _run_ladder(spec, level)


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
                                  [space, space], order, domain="1d",
                                  region=region)

    uh = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec(
        on, (_split(data.exact, 2),) * len(on)))
    return _components(uh, kk)


def run_elasticity_tensor(spec):
    return _run_elasticity(spec, solve_elasticity_tensor)


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
                                  [space, space], order, domain="1d",
                                  region=region)
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
        return {"u_L2": error_L2(th, space, order, data.exact, u),
                "u_H1": error_H1_semi(th, space, order, data.exact_grad, u),
                "w_L2": error_L2(th, space, order, data.w_exact, w),
                "w_H1": error_H1_semi(th, space, order, data.w_grad, w)}

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


def solve_stokes(th, spec):
    data, order = spec.data, spec.order
    spaces, dirichlet = _taylor_hood(data)
    kk = assemble_system(th, stokes_form(spec), spaces, order)
    ff = assemble_system(th, var_form(list(_split(data.f, 2)),
                                      ["v1.val", "v2.val"]), spaces, order)
    U = apply_dirichlet_and_solve(th, kk, ff, dirichlet)
    return _components(U, kk)


def run_stokes(spec):
    data, order = spec.data, spec.order

    def level(th, h):
        u1, u2, p = solve_stokes(th, spec)
        uerr = _vector_errors(th, "P2", order, (u1, u2), _split(data.exact_u, 2),
                              (data.grad1, data.grad2))
        return {"u_L2": uerr["L2"], "u_H1": uerr["H1"],
                "p_L2": error_L2(th, "P1", order, data.exact_p, p)}

    return _run_ladder(spec, level)


# ---------------------------------------------------------------------------
# heat equation (backward Euler)

def solve_heat(th, spec, dt, nsteps):
    """March u_t - lap u = f to t = nsteps*dt; returns the final dofs.

    The matrix M/dt + A is assembled and factorized once; each step
    reassembles the load with the previous solution as a dof-vector
    coefficient and lifts the Dirichlet data at the new time.
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

    uh = interpolate_nodal(initial, th, space)
    for step in range(1, nsteps + 1):
        t = step * dt
        ff = assemble_system(th, var_form(lambda p: data.f(p, t), "v.val"),
                             [space], order)
        ff = ff + assemble_system(
            th, var_form(FeFunction(dofs=uh / dt, space=space), "v.val"),
            [space], order)
        if region is not None:
            flux = coef_matrix_on_edges(lambda p: data.exact_grad(p, t),
                                        th, region, order)
            ff = ff + assemble_system(th, var_form(flux, "v.val"), [space],
                                      order, domain="1d", region=region)
        uh = solver.solve(ff, data.exact(fixed_points, t))
    return uh


def run_heat(spec):
    """Convergence at final time; dt couples as h^(k+1) unless fixed."""
    data, space, order = spec.data, spec.space, spec.order
    k = spec.degree

    def level(th, h):
        target = spec.dt if spec.dt is not None else h**(k + 1)
        nsteps = max(1, int(round(spec.t_end / target)))
        dt = spec.t_end / nsteps
        uh = solve_heat(th, spec, dt, nsteps)
        t = spec.t_end
        return {"L2": error_L2(th, space, order, lambda p: data.exact(p, t), uh),
                "H1": error_H1_semi(th, space, order,
                                    lambda p: data.exact_grad(p, t), uh)}

    return _run_ladder(spec, level)


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
    stop_reason: str     # "tolerance", "stagnation" or "max_iter"


def _ns_jacobian_form(th, spec, coefs, order):
    """The linearized form at the current iterate: the eight convection
    entries in the increments (du1, du2, dp), then the Stokes form; both
    standardize their trial symbols to u1, u2, u3.  This entry order
    keeps each block's accumulation order, and so its rounding."""
    u1xc, u1yc, u2xc, u2yc, u1c, u2c, pc = coefs
    increments = ["du1", "du2", "dp"]
    convection = standardize_symbols(["v1", "v2", "q"], increments, var_form(
        [u1xc, u1yc, u2xc, u2yc, u1c, u2c, u1c, u2c],
        ["v1.val", "v1.val", "v2.val", "v2.val",
         "v1.val", "v1.val", "v2.val", "v2.val"],
        ["du1.val", "du2.val", "du1.val", "du2.val",
         "du1.dx", "du1.dy", "du2.dx", "du2.dy"]))
    return VarForm(entries=convection.entries + stokes_form(spec).entries)


def _ns_residual_rhs(th, spec, coefs, f1c, f2c, spaces, order):
    """Residual of the penalized steady system as a linear form."""
    nu, eps = spec.nu, spec.eps
    u1xc, u1yc, u2xc, u2yc, u1c, u2c, pc = coefs
    conv1 = u1c * u1xc + u2c * u1yc
    conv2 = u1c * u2xc + u2c * u2yc
    neg_f1 = lambda p: -f1c(p)
    neg_f2 = lambda p: -f2c(p)
    form = var_form(
        [conv1, conv2,
         nu * u1xc, nu * u1yc, nu * u2xc, nu * u2yc,
         -pc, -pc,
         -(u1xc + u2yc),
         -eps * pc,
         neg_f1, neg_f2],
        ["v1.val", "v2.val",
         "v1.dx", "v1.dy", "v2.dx", "v2.dy",
         "v1.dx", "v2.dy",
         "v3.val",
         "v3.val",
         "v1.val", "v2.val"])
    return assemble_system(th, form, spaces, order)


def run_ns_newton(spec, th=None, initial=None):
    """Newton iteration for the steady Navier-Stokes equations.

    Solves DF(delta) = F(current) and updates current -= delta; the
    increment carries the boundary mismatch of the current iterate, so
    increments are homogeneous on the boundary after the first step.
    Converged: an increment below tol relative to max(1, max|U|), or
    below sqrt(tol) relative but no longer halving (the noise floor).
    """
    data, order = spec.data, spec.order
    if th is None:
        if spec.mesh_path:
            mesh, _ = read_freefem_msh(spec.mesh_path)
        else:
            mesh = square_mesh(spec.bbox, spec.h0)
            for _ in range(spec.refinements):
                mesh = uniform_refine(mesh)
        th = fe_mesh(mesh)
    spaces, dirichlet = _taylor_hood(data)

    if initial is None:
        uh1 = interpolate_nodal(lambda p: np.zeros(len(p)), th, "P2")
        uh2 = interpolate_nodal(lambda p: np.zeros(len(p)), th, "P2")
        ph = interpolate_nodal(lambda p: np.zeros(len(p)), th, "P1")
    else:
        uh1, uh2, ph = (np.array(v, dtype=float) for v in initial)

    f1c, f2c = _split(data.f, 2)

    norms = []
    fixed = None
    stop_reason = "max_iter"
    for it in range(1, spec.max_iter + 1):
        coefs = (coef_matrix_from_dofs(uh1, "dx", th, "P2", order),
                 coef_matrix_from_dofs(uh1, "dy", th, "P2", order),
                 coef_matrix_from_dofs(uh2, "dx", th, "P2", order),
                 coef_matrix_from_dofs(uh2, "dy", th, "P2", order),
                 coef_matrix_from_dofs(uh1, "val", th, "P2", order),
                 coef_matrix_from_dofs(uh2, "val", th, "P2", order),
                 coef_matrix_from_dofs(ph, "val", th, "P1", order))
        kk = assemble_system(th, _ns_jacobian_form(th, spec, coefs, order),
                             spaces, order)
        ff = _ns_residual_rhs(th, spec, coefs, f1c, f2c, spaces, order)

        if fixed is None:
            fixed, g = dirichlet_dofs(th, kk, dirichlet)
        # delta = current - next, so its boundary data is the current
        # boundary mismatch (zero from the second iterate on)
        current = np.concatenate([uh1, uh2, ph])
        delta = DirichletSolver(kk.matrix(), fixed).solve(ff, current[fixed] - g)
        U = current - delta
        uh1, uh2, ph = _components(U, kk)

        norm = float(np.abs(delta).max())
        norms.append(norm)
        rel = norm / max(1.0, float(np.abs(U).max()))
        if rel < spec.tol:
            stop_reason = "tolerance"
            break
        if rel < np.sqrt(spec.tol) and len(norms) >= 2 and norm > 0.5 * norms[-2]:
            stop_reason = "stagnation"
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
    fixed: tuple         # fields the driver does not read


_LADDER = ("mesh_path",)
_NO_SELECTORS = ("selectors", "mesh_path")

_PROBLEMS = {
    "poisson": _Problem(run_poisson, lambda s: poisson_data(),
                        {"selectors": ("x==0",)}, _LADDER),
    "elasticity-disp": _Problem(run_elasticity_displacement,
                                lambda s: elasticity_data(), {}, _NO_SELECTORS),
    "elasticity-tensor": _Problem(run_elasticity_tensor,
                                  lambda s: elasticity_data(),
                                  {"selectors": ("y==0 | x==1",)}, _LADDER),
    "biharmonic-block": _Problem(lambda s: run_biharmonic(s, mode="block"),
                                 lambda s: biharmonic_data(), {}, _NO_SELECTORS),
    "biharmonic-vector": _Problem(lambda s: run_biharmonic(s, mode="vector"),
                                  lambda s: biharmonic_data(), {}, _NO_SELECTORS),
    "stokes": _Problem(run_stokes, lambda s: stokes_data(s.nu),
                       {"degree": 2, "quad_order": 5},
                       ("degree",) + _NO_SELECTORS),
    "heat": _Problem(run_heat, lambda s: heat_data(),
                     {"selectors": ("x==0",), "refinements": 4}, _LADDER),
    "ns-newton": _Problem(lambda s: run_ns_newton(s)[0], lambda s: ns_data(s.nu),
                          {"degree": 2, "quad_order": 7, "refinements": 1},
                          ("degree", "selectors")),
}

PROBLEM_IDS = tuple(_PROBLEMS)


def run_problem(spec):
    """Run the driver of spec.problem's row; returns its RateReport
    (NewtonResult for ns-newton)."""
    return _row(spec.problem).run(spec)
