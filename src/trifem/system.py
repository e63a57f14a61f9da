"""Dirichlet elimination, sparse solves, error norms and rate fitting.

Dirichlet conditions are imposed by elimination: the constrained dofs
are assigned their boundary values exactly and the remaining free block

    A_ff x_f = b_f - A_fc x_c

is solved by a direct sparse factorization (``DirichletSolver``), on a
refinement ladder by multigrid-preconditioned CG (``MultigridSolver``),
or for a large Taylor-Hood Stokes block by block-preconditioned MINRES
(``StokesSolver``; see below).  SuperLU's ordering is chosen from the
free block's structure.  A block with no zero on its diagonal and a
stencil wider than P1's (more than 9 entries per row: P2/P3,
elasticity, Taylor-Hood, the Newton Jacobian) is factorized in
symmetric mode on a minimum-degree ordering of A + A^T, which cuts its
fill by a quarter (elasticity P1) to two thirds (P3).  Every other block keeps COLAMD: on scalar P1 the
symmetric path factorizes about three times slower despite less fill,
and on a zero-diagonal saddle block (the mixed biharmonic system) its
pivoting fills several times more and runs up to a hundred times slower.

``apply_dirichlet_and_solve`` takes the multigrid path by structure: a
single P1 component on a mesh made by ``uniform_refine``, more than
_MG_MIN_FREE free dofs, and a free block that is symmetric with a
positive diagonal.  Each ladder level's P1 space contains the coarser
one, and the prolongation between them is exact interpolation, so one
V-cycle over the ladder preconditions CG: Galerkin coarse operators
P^T A P on the free dofs, two damped Jacobi sweeps (omega = 0.8) before
and after each coarse correction, and SuperLU on the root level.  CG
runs to a relative residual of 1e-13, and every solve passes the same
1e-8 residual gate as the LU path; a CG that misses it, for instance on
an indefinite form, falls back to LU.  At P1 refine 7 (65,280 free
dofs) this takes 12 iterations and about a tenth of the factorization's
time, without its 8.7M-entry fill.

``StokesSolver`` solves the penalized Taylor-Hood free block

    [[K, 0, B1^T], [0, K, B2^T], [B1, B2, -eps M_p]]

by MINRES, preconditioned by blockdiag(K^-1, K^-1, nu M_p^-1) (Elman,
Silvester and Wathen, Finite Elements and Fast Iterative Solvers, 2nd
ed., OUP 2014): one velocity component's block K, factorized once and
back-solved for both components as one 2-column solve, and the P1
pressure mass M_p = -A_pp / eps, read off the free block.  Both factors
are small: at refine 5 they fill 1.41M entries where the whole block
fills 7.32M.  The velocity is fixed on the whole boundary, so B^T e = 0
for the constant pressure mode e, and e decouples: the penalty equation
gives its amplitude, MINRES solves for the rest, and the pressure's
e-part is set afterwards (the penalty gives e an eigenvalue near eps,
so MINRES alone leaves it loose).  The path is taken only with eps > 0
and nu > 0, for a symmetric block whose velocity components share one
block and whose B^T e vanishes (each to 1e-12 of the largest entry).
MINRES runs to rtol = 1e-14, which bounds a preconditioned residual
estimate, so the 1e-8 gate is kept on the true residual; a solve that
misses it falls back to LU.  ``problems.solve_stokes`` builds it
above 10,000 free dofs: refine 5
(36,483) takes 37 iterations and about half the time of LU, and refine 4
(9,027) is a tie.  Everything else factorizes: heat back-solves
thousands of steps against one factor, the Newton Jacobian is not
symmetric, and the biharmonic block has a zero diagonal.

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
from .mesh import prolongation

__all__ = ["DirichletSpec", "DirichletSolver", "MultigridSolver",
           "StokesSolver", "RateReport", "apply_dirichlet_and_solve",
           "dirichlet_dofs", "solve_sparse", "error_L2", "error_H1_semi",
           "fit_rate"]

# SuperLU's symmetric path: minimum degree on A + A^T, diagonal pivots
# kept unless below 1e-3 of their column's largest entry
_SYMMETRIC = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
                  options=dict(SymmetricMode=True))

# Free dofs above which a P1 ladder level takes MG-PCG.  Measured on the
# P1 Poisson ladder (set-up plus solve, 2 vCPU, BLAS on one thread):
# MG-PCG tied LU at 992 free dofs (refine 4: 0.004-0.010 s against
# 0.004-0.006 s) and won at 4,032 (refine 5: 0.007 s against 0.015 s).
_MG_MIN_FREE = 2000
_MG_SWEEPS = 2          # damped Jacobi sweeps before and after the correction
_MG_OMEGA = 0.8
_CG_RTOL = 1e-13
_CG_MAX_ITER = 50       # 12 iterations at P1 refine 5, 6 and 7
_MINRES_RTOL = 1e-14
_MINRES_MAX_ITER = 100  # 37 iterations at Taylor-Hood refine 5, 35 at refine 6


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
        self._eliminate(A, fixed)
        self._factor()

    def _eliminate(self, A, fixed):
        """Split A into the free block A_ff (CSR) and the coupling A_fc."""
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix is not square: {A.shape}")
        self.n = A.shape[0]
        self.fixed = np.asarray(fixed, dtype=np.int64)
        is_fixed = np.zeros(self.n, dtype=bool)
        is_fixed[self.fixed[(self.fixed >= 0) & (self.fixed < self.n)]] = True
        if np.count_nonzero(is_fixed) != len(self.fixed):
            raise ValueError(f"fixed dofs must be distinct and in [0, {self.n})")
        self.free = np.flatnonzero(~is_fixed)
        rows = A[self.free]
        self._A_ff = rows[:, self.free]
        self._A_fc = rows[:, self.fixed]
        self._iterations, self._residual = 0, None

    def _factor(self):
        """Factorize A_ff with the ordering its structure picks."""
        self._A_ff = self._A_ff.tocsc()
        self._method = "lu"
        self._ordering, self._lu = (_structured_splu(self._A_ff) if len(self.free)
                                    else ("COLAMD", None))

    @property
    def ordering(self):
        """SuperLU's column ordering, chosen from the free block's
        structure (see the module docstring): "MMD_AT_PLUS_A" or "COLAMD";
        under MINRES the velocity block's and the pressure mass's, joined
        by "/"."""
        return self._ordering

    @property
    def lu_fill(self):
        """L.nnz + U.nnz of the factorization, 0 with no free dof.  Counted
        when read: SuperLU then builds CSC copies of L and U and keeps them
        with the factor (for P1 at refine 7, counting on every
        factorization raised the peak memory from 249 to 330 MiB)."""
        return 0 if self._lu is None else int(self._lu.L.nnz + self._lu.U.nnz)

    @property
    def method(self):
        """How the last solve was made: "lu" or "mg-pcg"."""
        return self._method

    @property
    def iterations(self):
        """Refinement sweeps ("lu") or CG iterations ("mg-pcg") of the
        last solve; 0 before the first."""
        return self._iterations

    @property
    def residual(self):
        """Final |b - A_ff x_f| / max(|b|, 1) of the last solve; None
        before the first."""
        return self._residual

    def solve(self, rhs, values):
        """Full solution for a right-hand side and the fixed dofs' values."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.n},)")
        x = np.zeros(self.n)
        x[self.fixed] = values
        if not len(self.free):
            self._residual = 0.0
            return x
        b = rhs[self.free] - self._A_fc @ x[self.fixed]
        xf, self._iterations, residual = self._solve_free(b)
        self._residual = residual
        if not np.isfinite(residual):
            raise RuntimeError("sparse solve produced non-finite values; "
                               "the matrix is numerically singular")
        if not _passes(residual):
            raise RuntimeError(f"sparse solve residual {residual:.2e}; "
                               "the matrix is numerically singular")
        x[self.free] = xf
        return x

    def _solve_free(self, b):
        """(x_f, refinement sweeps, relative residual) by the factor."""
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
        except RuntimeError as exc:
            raise RuntimeError(f"sparse solve failed: {exc}") from exc
        return xf, sweep, rnorm / bnorm


class MultigridSolver(DirichletSolver):
    """DirichletSolver by CG, preconditioned by one geometric multigrid
    V-cycle on a refinement ladder (see the module docstring).

    ``prolongations`` are the P1 prolongations from A's mesh down its
    ladder, finest first (``mesh.prolongation`` of each level).  A free
    block that is not symmetric with a positive diagonal at every level
    is factorized as DirichletSolver does; so is one whose CG misses
    the residual gate, on its first such solve and from then on."""

    def __init__(self, A, fixed, prolongations):
        self._eliminate(A, fixed)
        hierarchy = _hierarchy(self._A_ff, self.free, prolongations)
        if hierarchy is None:
            self._factor()
            return
        self._levels, root = hierarchy
        self._method, self._ordering = "mg-pcg", "COLAMD"
        self._lu = _splu(root.tocsc())

    def _solve_free(self, b):
        if self._method == "mg-pcg":
            with np.errstate(all="ignore"):
                xf, iterations, residual = self._pcg(b)
            if _passes(residual):
                return xf, iterations, residual
            self._levels = None                 # LU from here on
            self._factor()
        return super()._solve_free(b)

    def _pcg(self, b):
        """(x_f, iterations, relative residual) of CG to _CG_RTOL,
        stopped early where A_ff or the V-cycle is not positive."""
        A = self._A_ff
        bnorm = np.linalg.norm(b)
        x = np.zeros_like(b)
        if bnorm == 0:
            return x, 0, 0.0
        r = b.copy()
        z = self._vcycle(r)
        p, rz = z, r @ z
        for it in range(1, _CG_MAX_ITER + 1):
            q = A @ p
            pq = p @ q
            if not (pq > 0 and rz > 0):
                break
            alpha = rz / pq
            x += alpha * p
            r -= alpha * q
            if np.linalg.norm(r) <= _CG_RTOL * bnorm:
                break
            z = self._vcycle(r)
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        return x, it, np.linalg.norm(b - A @ x) / max(bnorm, 1.0)

    def _vcycle(self, b, level=0):
        """One V-cycle for A_l x = b from x = 0: damped Jacobi sweeps
        around the coarse correction, the root factor at the bottom."""
        if level == len(self._levels):
            return self._lu.solve(b)
        A, P, R, dinv = self._levels[level]
        x = dinv * b                    # the first sweep, from x = 0
        for _ in range(_MG_SWEEPS - 1):
            x += dinv * (b - A @ x)
        x += P @ self._vcycle(R @ (b - A @ x), level + 1)
        for _ in range(_MG_SWEEPS):
            x += dinv * (b - A @ x)
        return x


def _hierarchy(A, free, prolongations):
    """(levels, root): Galerkin levels [(A_l, P_l, P_l^T, omega /
    diag A_l), ...] and the root level's matrix; None unless A is
    symmetric and every level's diagonal is positive.

    Each level's free dofs are the finer level's free dofs below the
    coarse node count (P1 numbers the coarse nodes first), P_l is the
    prolongation restricted to them, and A_{l+1} = P_l^T A_l P_l.  The
    ladder ends at its root mesh or at the first level with no free dof.
    """
    if abs(A - A.T).max() > 1e-12 * abs(A).max():
        return None
    levels = []
    for P in prolongations:
        free_c = free[free < P.shape[1]]
        if not len(free_c):
            break
        diag = A.diagonal()
        if not np.all(diag > 0):
            return None
        P = P[free][:, free_c]
        R = P.T.tocsr()
        levels.append((A, P, R, _MG_OMEGA / diag))
        A, free = R @ (A @ P), free_c
    if not np.all(A.diagonal() > 0):
        return None
    return levels, A


class StokesSolver(DirichletSolver):
    """DirichletSolver for a penalized Taylor-Hood Stokes block by MINRES,
    preconditioned by blockdiag(K^-1, K^-1, nu M_p^-1) (see the module
    docstring).

    ``offsets`` are the system's component offsets (velocity, velocity,
    pressure), ``nu`` the viscosity and ``eps`` the pressure penalty.  A
    free block without the penalized Stokes structure is factorized as
    DirichletSolver does; so is one whose MINRES misses the residual
    gate, on its first such solve and from then on."""

    def __init__(self, A, fixed, offsets, nu, eps):
        self._eliminate(A, fixed)
        blocks = (_stokes_blocks(self._A_ff, self.free, offsets)
                  if 0 < nu < np.inf and 0 < eps < np.inf else None)
        if blocks is None:
            self._factor()
            return
        K, A_pp = blocks
        self._method, self._nu = "minres", nu
        self._n_u = 2 * K.shape[0]
        ordering_K, self._K = _structured_splu(K.tocsc())
        ordering_M, self._M = _structured_splu((A_pp * (-1.0 / eps)).tocsc())
        self._ordering = f"{ordering_K}/{ordering_M}"
        # the constant pressure mode e: A_pp e and e^T A_pp e
        self._App_e = A_pp.sum(axis=1).A1
        self._e_App_e = self._App_e.sum()

    @property
    def lu_fill(self):
        """L.nnz + U.nnz of the factorization; for "minres", of the
        velocity block's and the pressure mass's factors together.
        Counted when read (see DirichletSolver.lu_fill)."""
        if self._method != "minres":
            return super().lu_fill
        return sum(int(lu.L.nnz + lu.U.nnz) for lu in (self._K, self._M))

    def _solve_free(self, b):
        if self._method == "minres":
            with np.errstate(all="ignore"):
                xf, iterations, residual = self._minres(b)
            if _passes(residual):
                return xf, iterations, residual
            self._K = self._M = None            # LU from here on
            self._factor()
        return super()._solve_free(b)

    def _minres(self, b):
        """(x_f, iterations, relative residual) of MINRES to _MINRES_RTOL.

        The constant pressure mode e decouples (B^T e = 0): the penalty
        equation sets its amplitude c = e^T g / e^T A_pp e, g being the
        pressure part of b; MINRES solves with c A_pp e taken off g, and
        its pressure's e-part, A_pp-orthogonally, is replaced by c."""
        A, n_u = self._A_ff, self._n_u
        App_e, e_App_e = self._App_e, self._e_App_e
        c = b[n_u:].sum() / e_App_e
        rhs = b.copy()
        rhs[n_u:] -= c * App_e
        iterations = 0

        def count(xk):
            nonlocal iterations
            iterations += 1

        precondition = spla.LinearOperator(A.shape, matvec=self._precondition,
                                           dtype=float)
        try:
            x, _ = spla.minres(A, rhs, rtol=_MINRES_RTOL, maxiter=_MINRES_MAX_ITER,
                               M=precondition, callback=count)
        except ValueError:              # a preconditioner that is not positive
            return np.zeros_like(b), iterations, np.inf
        x[n_u:] += c - (App_e @ x[n_u:]) / e_App_e
        return x, iterations, np.linalg.norm(b - A @ x) / max(np.linalg.norm(b), 1.0)

    def _precondition(self, r):
        """blockdiag(K^-1, K^-1, nu M_p^-1) r, both velocity components
        by one 2-column back-solve."""
        n_u = self._n_u
        z = np.empty_like(r)
        z[:n_u] = self._K.solve(r[:n_u].reshape(2, -1).T).T.ravel()
        z[n_u:] = self._nu * self._M.solve(r[n_u:])
        return z


def _stokes_blocks(A, free, offsets):
    """(K, A_pp): the first velocity component's block and the pressure
    block of a free block A (CSR) ordered (velocity, velocity, pressure)
    by ``offsets``; None unless both velocity components have the same
    block, A is symmetric, the constant pressure mode e is decoupled
    (B^T e = 0) and A_pp has a negative diagonal.  Each comparison is to
    1e-12 of its largest entry."""
    if len(offsets) != 4:
        return None
    n_u1, n_u = np.searchsorted(free, offsets[1:3])
    n = A.shape[0]
    if not (0 < n_u1 == n_u - n_u1 and n_u < n):
        return None
    scale = abs(A).max()
    K = A[:n_u1, :n_u1]
    if (abs(A - A.T).max() > 1e-12 * scale
            or abs(K - A[n_u1:n_u, n_u1:n_u]).max() > 1e-12 * scale):
        return None
    B = A[n_u:, :n_u]
    if not np.abs(B.T @ np.ones(n - n_u)).max() <= 1e-12 * abs(B).max():
        return None
    A_pp = A[n_u:, n_u:]
    if not np.all(A_pp.diagonal() < 0):
        return None
    return K, A_pp


def _passes(residual):
    """The residual gate of every solve: a finite relative residual of
    at most 1e-8."""
    return bool(residual <= 1e-8)


def _structured_splu(A):
    """(ordering, SuperLU factor) of a CSC matrix, on the ordering its
    structure picks (see the module docstring)."""
    if A.nnz > 9 * A.shape[0] and np.all(A.diagonal() != 0):
        return "MMD_AT_PLUS_A", _splu(A, **_SYMMETRIC)
    return "COLAMD", _splu(A)


def _splu(A, **options):
    """SuperLU factor of a CSC matrix, its warnings silenced."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return spla.splu(A, **options)
    except RuntimeError as exc:
        raise RuntimeError(f"sparse solve failed: {exc}") from exc


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
        ladder = _p1_ladder(th, system, total - len(fixed))
        solver = (MultigridSolver(A, fixed, ladder) if ladder
                  else DirichletSolver(A, fixed))
        return solver.solve(rhs, values)
    except RuntimeError as exc:
        hint = ("; no Dirichlet dof was fixed - an elliptic problem "
                "needs at least one" if len(fixed) == 0 else "")
        raise RuntimeError(f"{exc}{hint}") from exc


def _p1_ladder(th, system, n_free):
    """The P1 prolongations from th's mesh down its refinement ladder,
    finest first, for a single P1 component with more than _MG_MIN_FREE
    free dofs on a refined mesh; otherwise none."""
    if ([fe_space(s).degree for s in system.spaces] != [1]
            or n_free <= _MG_MIN_FREE or th.mesh.parent is None):
        return []
    ladder, mesh = [th.prolongation()], th.mesh.parent
    while mesh.parent is not None:
        ladder.append(prolongation(mesh))
        mesh = mesh.parent
    return ladder


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
