"""Dirichlet elimination, sparse solves, error norms and rate fitting.

Dirichlet conditions are imposed by elimination: the constrained dofs
are assigned their boundary values exactly and the remaining free block

    A_ff x_f = b_f - A_fc x_c

is solved by a direct sparse factorization.  SuperLU's ordering is
chosen from the free block's structure.  A block with no zero on its
diagonal and a stencil wider than P1's (more than 9 entries per row:
P2/P3, elasticity, Taylor-Hood, the Newton Jacobian) is factorized in
symmetric mode on a minimum-degree ordering of A + A^T, which cuts its
fill by a quarter (elasticity P1) to two thirds (P3).  Every other
block keeps COLAMD: on scalar P1 the symmetric path factorizes about
three times slower despite less fill, and on a zero-diagonal saddle
block (the mixed biharmonic system) its pivoting fills several times
more and runs up to a hundred times slower.

Error norms integrate (u - u_h)^2 and |grad u - grad u_h|^2 by
quadrature; convergence rates are least-squares slopes of log(err)
against log(h).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# compress and quad_points_2d are unused here; perfbench/spans.py wraps them
from .assembly import AssembledSystem, compress
from .fespace import (Cells, _check_shape, _eval_pointfun, coef_matrix_from_dofs,
                      fe_space, quad_points_2d, region_dofs)

__all__ = ["DirichletSpec", "DirichletSolver", "RateReport",
           "apply_dirichlet_and_solve", "dirichlet_dofs", "solve_sparse",
           "error_L2", "error_H1_semi", "fit_rate"]

# SuperLU's symmetric path: minimum degree on A + A^T, diagonal pivots
# kept unless below 1e-3 of their column's largest entry
_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                  options=dict(SymmetricMode=True))


@dataclass(frozen=True)
class DirichletSpec:
    """Which boundary regions are constrained, and by what.

    values[r] lists one boundary value function per component for the
    r-th selected region; None leaves that component unconstrained on
    the region.  A bare callable is promoted to a single-component set.
    """

    regions: tuple
    values: tuple

    def __post_init__(self):
        regions = tuple(int(r) for r in np.atleast_1d(self.regions))
        values = self.values if isinstance(self.values, (list, tuple)) else (self.values,)
        norm = []
        for v in values:
            if v is None or callable(v):
                norm.append((v,))
            else:
                norm.append(tuple(v))
        if len(norm) != len(regions):
            raise ValueError(f"{len(norm)} value sets for {len(regions)} regions")
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "values", tuple(norm))


def dirichlet_dofs(th, system, spec):
    """(fixed, values): ascending global dofs of the constrained
    components on the selected regions, and their boundary values.
    When a dof is claimed by several regions the first one wins."""
    spaces, offsets = system.spaces, system.offsets
    x = np.zeros(system.num_dofs)
    is_fixed = np.zeros(system.num_dofs, dtype=bool)
    for r, gset in zip(spec.regions, spec.values):
        if not 0 <= r < len(th.partition):
            raise IndexError(f"boundary region {r} out of range "
                             f"(partition has {len(th.partition)} regions)")
        region = th.partition[r]
        if len(gset) != len(spaces):
            raise ValueError(f"{len(gset)} boundary functions for "
                             f"{len(spaces)} components")
        for c, g in enumerate(gset):
            if g is None:
                continue
            local = region_dofs(th, spaces[c], region)
            if len(local) == 0:
                continue
            pts = th.dof_map(spaces[c]).dof_point[local]
            gv = _check_shape(_eval_pointfun(g, pts), (len(local),),
                              f"boundary function for component {c + 1} "
                              f"on region {r}")
            gdofs = local + offsets[c]
            fresh = ~is_fixed[gdofs]
            x[gdofs[fresh]] = gv[fresh]
            is_fixed[gdofs[fresh]] = True
    fixed = np.nonzero(is_fixed)[0]
    return fixed, x[fixed]


class DirichletSolver:
    """A x = b with x[fixed] prescribed; A_ff is factorized once.

    Two iterative-refinement sweeps per solve recover the digits a single
    backsolve loses on penalty-stabilized saddle points.  Raises on a
    numerically singular free block."""

    def __init__(self, A, fixed):
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix is not square: {A.shape}")
        self.n = A.shape[0]
        self.fixed = np.asarray(fixed, dtype=np.int64)
        self.free = np.setdiff1d(np.arange(self.n), self.fixed)
        if len(self.free) + len(self.fixed) != self.n:
            raise ValueError(f"fixed dofs must be distinct and in [0, {self.n})")
        rows = A[self.free]
        self._A_ff = rows[:, self.free].tocsc()
        self._A_fc = rows[:, self.fixed]
        del rows                    # not kept through the factorization
        n_free = len(self.free)
        symmetric = (self._A_ff.nnz > 9 * n_free
                     and np.all(self._A_ff.diagonal() != 0))
        self._ordering = "MMD_AT_PLUS_A" if symmetric else "COLAMD"
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                options = _SYMMETRIC if symmetric else {}
                self._lu = spla.splu(self._A_ff, **options) if n_free else None
        except RuntimeError as exc:
            raise RuntimeError(f"sparse solve failed: {exc}") from exc

    @property
    def ordering(self):
        """SuperLU's column ordering, chosen from the free block's
        structure (see the module docstring): "MMD_AT_PLUS_A" or "COLAMD"."""
        return self._ordering

    @property
    def lu_fill(self):
        """L.nnz + U.nnz of the factorization, 0 with no free dof.  Counted
        when read: SuperLU then builds CSC copies of L and U and keeps them
        with the factor (for P1 at refine 7, counting on every
        factorization raised the peak memory from 249 to 330 MiB)."""
        return 0 if self._lu is None else int(self._lu.L.nnz + self._lu.U.nnz)

    def solve(self, rhs, values):
        """Full solution for a right-hand side and the fixed dofs' values."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.n},)")
        x = np.zeros(self.n)
        x[self.fixed] = values
        if not len(self.free):
            return x
        b = rhs[self.free] - self._A_fc @ x[self.fixed]
        try:
            # only numpy floating-point warnings can arise in a solve
            with np.errstate(all="ignore"):
                bnorm = max(np.linalg.norm(b), 1.0)
                xf = self._lu.solve(b)
                for sweep in range(3):      # at most two refinement sweeps
                    r = b - self._A_ff @ xf
                    rnorm = np.linalg.norm(r)
                    if rnorm <= 1e-14 * bnorm or sweep == 2:
                        break
                    xf = xf + self._lu.solve(r)
                residual = rnorm / bnorm
        except RuntimeError as exc:
            raise RuntimeError(f"sparse solve failed: {exc}") from exc
        if not np.isfinite(residual):
            raise RuntimeError("sparse solve produced non-finite values; "
                               "the matrix is numerically singular")
        if residual > 1e-8:
            raise RuntimeError(f"sparse solve residual {residual:.2e}; "
                               "the matrix is numerically singular")
        x[self.free] = xf
        return x


def solve_sparse(A, b):
    """Direct sparse solve with iterative refinement (no fixed dof)."""
    return DirichletSolver(A, []).solve(b, [])


def apply_dirichlet_and_solve(th, system, rhs, spec):
    """Impose Dirichlet values by elimination and solve; fixed dofs (see
    dirichlet_dofs) get their boundary values exactly."""
    if not isinstance(system, AssembledSystem):
        raise TypeError("apply_dirichlet_and_solve needs an AssembledSystem "
                        "(use assemble_system, or wrap scalar triples)")
    A = system.matrix()
    rhs = np.asarray(rhs, dtype=float)
    total = system.num_dofs
    if A.shape != (total, total) or rhs.shape != (total,):
        raise ValueError("system, rhs and component layout disagree")

    fixed, values = dirichlet_dofs(th, system, spec)
    try:
        return DirichletSolver(A, fixed).solve(rhs, values)
    except RuntimeError as exc:
        hint = ("; no Dirichlet dof was fixed - an elliptic problem "
                "needs at least one" if len(fixed) == 0 else "")
        raise RuntimeError(f"{exc}{hint}") from exc


def error_L2(th, space, quad_order, exact, dofs):
    """L2 norm of (exact - FE function) by quadrature."""
    space = fe_space(space)
    cells = Cells(th, quad_order)
    uh = coef_matrix_from_dofs(dofs, "val", th, space, quad_order)
    sq = (cells.values(exact) - uh) ** 2
    return float(np.sqrt(cells.integrate(sq)))


def error_H1_semi(th, space, quad_order, exact_grad, dofs):
    """H1 seminorm of the error; exact_grad returns (m, 2) gradients."""
    space = fe_space(space)
    cells = Cells(th, quad_order)
    dxh = coef_matrix_from_dofs(dofs, "dx", th, space, quad_order)
    dyh = coef_matrix_from_dofs(dofs, "dy", th, space, quad_order)
    ge = cells.values(exact_grad, 2)
    sq = (ge[:, :, 0] - dxh) ** 2 + (ge[:, :, 1] - dyh) ** 2
    return float(np.sqrt(cells.integrate(sq)))


def fit_rate(h, err):
    """Least-squares slope of log(err) against log(h)."""
    h = np.asarray(h, dtype=float)
    err = np.asarray(err, dtype=float)
    if len(h) < 2 or len(h) != len(err):
        raise ValueError("rate fit needs at least two matching levels")
    if not np.all(np.isfinite(h) & (h > 0) & np.isfinite(err) & (err > 0)):
        raise ValueError("rate fit needs finite positive mesh sizes and errors")
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])


@dataclass
class RateReport:
    """Mesh sizes, error columns and fitted convergence slopes."""

    problem: str
    h: np.ndarray
    num_elems: np.ndarray
    columns: dict = field(default_factory=dict)
    slopes: dict = field(default_factory=dict)

    def fit(self):
        self.slopes = {name: fit_rate(self.h, vals)
                       for name, vals in self.columns.items()
                       if len(self.h) >= 2}
        return self
