"""Dirichlet elimination, sparse solves, error norms and rate fitting.

Dirichlet conditions are imposed by elimination: the constrained dofs
are assigned their boundary values exactly and the remaining free block

    A_ff x_f = b_f - A_fc x_c

is solved by LU (``DirichletSolver``), by multigrid-preconditioned CG
on a refinement ladder, or for a Taylor-Hood Stokes block by CG on its
pressure Schur complement.  One function, ``_solver``, picks the method
from the component degrees, the mesh ladder and the free block's
structure; ``apply_dirichlet_and_solve`` calls it, for every steady
driver, Stokes and each Newton step included.  Heat builds a
``DirichletSolver`` directly: it back-solves thousands of steps
against one factor (P1 at refine 5 would cross _MG_MIN_FREE and run a
V-cycle CG on every step).  Its step operator is ``free_rows`` of the
load, mass and flux operators, which appends -A_fc, so one product
gives a step's lifted free-row right-hand side b_f - A_fc x_c, and
``solve_lifted`` solves for it; ``solve`` lifts a full right-hand side
and calls the same method, which alone holds the refinement sweeps, the
residual gate and the non-finite check.
A Krylov solve that misses the LU path's 1e-8 gate on the free block's
true residual falls back to LU, on that solve and from then on.

SuperLU's ordering is chosen from the free block's structure.  A block
with no zero on its diagonal and a stencil wider than P1's (more than 9
entries per row: P2/P3, elasticity, Taylor-Hood, the Newton Jacobian)
is factorized in symmetric mode on a minimum-degree ordering of A + A^T,
which cuts its fill by a quarter (elasticity P1) to two thirds (P3).
Every other block keeps COLAMD: on scalar P1 the symmetric path
factorizes about three times slower despite less fill, and on a
zero-diagonal saddle block (the mixed biharmonic system) its pivoting
fills several times more and runs up to a hundred times slower.

Multigrid is taken for a single P1 component on a mesh made by
``uniform_refine`` with more than _MG_MIN_FREE free dofs, and a free
block that is symmetric with a positive diagonal.  Each level's P1 space
contains the coarser one, and the prolongation is exact interpolation,
so one V-cycle over the ladder preconditions CG: Galerkin coarse
operators P^T A P on the free dofs, two damped Jacobi sweeps (omega =
0.8) before and after each coarse correction, and SuperLU at the root.
CG runs to a relative residual of 1e-13.  At P1 refine 7 (65,280 free
dofs) this takes 12 iterations and about a tenth of the factorization's
time, without its 8.7M-entry fill.

The penalized Taylor-Hood free block

    [[K, 0, B1^T], [0, K, B2^T], [B1, B2, A_pp]],  A_pp = -eps M_p,

is solved by CG on the pressure Schur complement S = B K^-1 B^T - A_pp,
then u = K^-1 (f - B^T p) (Elman, Silvester and Wathen, Finite Elements
and Fast Iterative Solvers, 2nd ed., OUP 2014).  Only K is factorized,
and each K^-1 is one 2-column back-solve for both components: at refine
5 its factor fills 1.13M entries where the whole block fills 7.32M.  S
is spectrally equivalent to M_p / nu, so CG is preconditioned by four
Chebyshev steps on the P1 pressure mass with Jacobi scaling, on the
fixed bounds lambda(D^-1 M_p) in [1/2, 2] (Wathen, IMA J. Numer. Anal.
7, 1987; Wathen and Rees, ETNA 34, 2009): a fixed symmetric positive
definite polynomial, so M_p is not factorized (-A_pp serves, since CG
does not see the scale).  The velocity is fixed on the whole boundary,
so B^T e = 0 for the constant pressure mode e, and e decouples: the
penalty equation gives its amplitude, CG solves for the rest (the
penalty gives e an eigenvalue near eps, so LU leaves it loose).  The
path is taken for three components, the last P1, whose free block is
symmetric, has this form with K's diagonal positive (nu > 0) and
A_pp's negative (eps > 0), and has B^T e = 0, each to 1e-12 of its
largest entry.  CG runs to a relative residual of 1e-14 on S: 12 to 26
iterations from refine 1 to 5.

Error norms integrate (u - u_h)^2 and |grad u - grad u_h|^2 by
quadrature, one block of cells at a time (``Cells.integrate_fe``): each
block's sum over its points goes into one per-cell vector, which the
cell measures weight in one product.  Convergence rates are
least-squares slopes of log(err) against log(h).
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# compress, coef_matrix_from_dofs and quad_points_2d are unused here;
# perfbench/spans.py wraps them
from .assembly import AssembledSystem, compress
from .fespace import (Cells, _check_shape, _eval_pointfun, coef_matrix_from_dofs,
                      fe_space, quad_points_2d, region_dofs)
from .mesh import _indices, prolongation

__all__ = ["DirichletSpec", "DirichletSolver", "RateReport",
           "apply_dirichlet_and_solve", "dirichlet_dofs", "solve_sparse",
           "error_L2", "error_H1_semi", "fit_rate"]

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
_CG_RTOL = 1e-13        # MG-PCG; 12 iterations at P1 refine 5, 6 and 7
_SCHUR_RTOL = 1e-14     # Schur CG; 26 iterations at Taylor-Hood refine 5
_CG_MAX_ITER = 50
_CHEB_STEPS = 4         # Chebyshev steps per pressure-mass preconditioning


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
        regions = tuple(_indices(self.regions, "boundary regions").tolist())
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
    backsolve loses on penalty-stabilized saddle points.  Raises
    RuntimeError on a numerically singular free block and ValueError on
    non-finite data.  ``_solver`` may add a Krylov method."""

    def __init__(self, A, fixed):
        self._eliminate(A, fixed)
        self._factor()

    def _eliminate(self, A, fixed):
        """Split A into the free block A_ff (CSR) and the coupling A_fc."""
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"matrix is not square: {A.shape}")
        if not np.isfinite(A.data).all():
            raise ValueError("matrix is not all finite")
        self.n = A.shape[0]
        self.fixed = _indices(fixed, "fixed dofs").copy()
        is_fixed = np.zeros(self.n, dtype=bool)
        is_fixed[self.fixed[(self.fixed >= 0) & (self.fixed < self.n)]] = True
        if np.count_nonzero(is_fixed) != len(self.fixed):
            raise ValueError(f"fixed dofs must be distinct and in [0, {self.n})")
        self.free = np.flatnonzero(~is_fixed)
        rows = A[self.free]
        self._A_ff = rows[:, self.free]
        self._A_fc = rows[:, self.fixed]
        # fixed dofs no free row couples to: their values never reach the
        # residual, so solve_lifted checks them itself
        self._isolated = np.flatnonzero(
            np.bincount(self._A_fc.indices, minlength=len(self.fixed)) == 0)
        self._iterations, self._residual = 0, None

    def _factor(self):
        """Factorize A_ff with the ordering its structure picks, after
        dropping any Krylov method and its state."""
        self._krylov = self._lu = None
        self._A_ff = self._A_ff.tocsc()
        self._method = "lu"
        self._ordering, self._lu = (_structured_splu(self._A_ff) if len(self.free)
                                    else ("COLAMD", None))

    @property
    def ordering(self):
        """SuperLU's column ordering, chosen from the free block's
        structure (see the module docstring): "MMD_AT_PLUS_A" or "COLAMD";
        under Schur CG the velocity block's."""
        return self._ordering

    @property
    def lu_fill(self):
        """L.nnz + U.nnz of the factorization (under Schur CG the velocity
        block's), 0 with no free dof.  Counted
        when read: SuperLU then builds CSC copies of L and U and keeps them
        with the factor (for P1 at refine 7, counting on every
        factorization raised the peak memory from 249 to 330 MiB)."""
        return 0 if self._lu is None else int(self._lu.L.nnz + self._lu.U.nnz)

    @property
    def method(self):
        """How the last solve was made: "lu", "mg-pcg" or "schur-cg"."""
        return self._method

    @property
    def iterations(self):
        """Refinement sweeps ("lu") or CG iterations ("mg-pcg",
        "schur-cg") of the last solve; 0 before the first."""
        return self._iterations

    @property
    def residual(self):
        """Final |b - A_ff x_f| / max(|b|, 1) of the last solve; None
        before the first."""
        return self._residual

    def free_rows(self, *ops):
        """[op_1[free] | ... | op_k[free] | -A_fc] (CSR): applied to
        concatenate([v_1, ..., v_k, values]) it gives the lifted free-row
        right-hand side of sum_i op_i @ v_i for ``solve_lifted``, in one
        product."""
        ops = [sp.csr_matrix(op) for op in ops]
        if any(op.shape[0] != self.n for op in ops):
            raise ValueError(f"operators have {[op.shape[0] for op in ops]} "
                             f"rows, expected {self.n}")
        return sp.hstack([op[self.free] for op in ops] + [-self._A_fc],
                         format="csr")

    def solve(self, rhs, values):
        """Full solution for a right-hand side and the fixed dofs' values."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n,):
            raise ValueError(f"rhs has shape {rhs.shape}, expected ({self.n},)")
        values = self._values(values)
        return self.solve_lifted(rhs[self.free] - self._A_fc @ values, values)

    def solve_lifted(self, b, values):
        """Full solution for the fixed dofs' values and the lifted free-row
        right-hand side b = rhs[free] - A_fc @ values (see ``free_rows``).

        Raises ValueError when the residual is non-finite because the
        values or b are, or when a fixed dof no free row couples to has a
        non-finite value; RuntimeError when the free block is to blame."""
        values = self._values(values)
        b = np.asarray(b, dtype=float)
        if b.shape != self.free.shape:
            raise ValueError(f"lifted rhs has shape {b.shape}, "
                             f"expected {self.free.shape}")
        if len(self._isolated) and not np.all(np.isfinite(values[self._isolated])):
            raise ValueError("fixed dofs' values are not all finite")
        x = np.empty(self.n)
        x[self.fixed] = values
        if not len(self.free):
            self._residual = 0.0
            return x
        xf, self._iterations, residual = self._solve_free(b)
        self._residual = residual
        if not np.isfinite(residual):
            # only now is the data checked: the passing path pays nothing
            if not np.all(np.isfinite(values)):
                raise ValueError("fixed dofs' values are not all finite")
            if not np.all(np.isfinite(b)):
                raise ValueError("right-hand side is not all finite")
            raise RuntimeError("sparse solve produced non-finite values; "
                               "the matrix is numerically singular")
        if not _passes(residual):
            raise RuntimeError(f"sparse solve residual {residual:.2e}; "
                               "the matrix is numerically singular")
        x[self.free] = xf
        return x

    def _values(self, values):
        """values as a float array, if it is one value per fixed dof."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.fixed.shape:
            raise ValueError(f"values has shape {values.shape}, "
                             f"expected {self.fixed.shape}")
        return values

    def _solve_free(self, b):
        """(x_f, iterations, relative residual): by the Krylov method
        while it passes the residual gate, by the factor from its first
        miss on.  A miss on a non-finite b is the data's, not the
        method's: it is returned, and the method kept."""
        if self._krylov is not None:
            with np.errstate(all="ignore"):
                xf, iterations = self._krylov(b)
                residual = np.linalg.norm(b - self._A_ff @ xf) / max(np.linalg.norm(b), 1.0)
            if _passes(residual) or not np.all(np.isfinite(b)):
                return xf, iterations, residual
            self._factor()                      # LU from here on
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


def _solver(th, system, fixed):
    """The solver of an AssembledSystem on th with the dofs ``fixed``
    eliminated: MG-PCG, Schur CG or LU, picked as the module docstring says."""
    degrees = [fe_space(s).degree for s in system.spaces]
    ladder, mesh = [], th.mesh
    if degrees == [1] and system.num_dofs - len(fixed) > _MG_MIN_FREE:
        # before the free block is split off: a lower peak at P1 refine 7
        while mesh.parent is not None:
            ladder.append(prolongation(mesh))
            mesh = mesh.parent
    solver = DirichletSolver.__new__(DirichletSolver)
    solver._eliminate(system.matrix(), fixed)
    A, free = solver._A_ff, solver.free
    schur = len(degrees) == 3 and degrees[2] == 1   # Chebyshev's P1 mass bounds
    krylov = (_multigrid(A, free, ladder) if ladder
              else _schur(A, free, system.offsets) if schur else None)
    if krylov is None:
        solver._factor()
    else:
        solver._method, solver._ordering, solver._lu, solver._krylov = krylov
    return solver


def _multigrid(A, free, prolongations):
    """("mg-pcg", ordering, root factor, Krylov method) of CG on a free
    block A preconditioned by one V-cycle down a refinement ladder, its
    P1 prolongations finest first; None where _hierarchy rejects A."""
    hierarchy = _hierarchy(A, free, prolongations)
    if hierarchy is None:
        return None
    levels, root = hierarchy
    lu = _splu(root.tocsc())
    vcycle = lambda r: _vcycle(levels, lu, r)
    return "mg-pcg", "COLAMD", lu, lambda b: _pcg(A.__matmul__, b, vcycle, _CG_RTOL)


def _vcycle(levels, lu, b, level=0):
    """One V-cycle for A_l x = b from x = 0: damped Jacobi sweeps around
    the coarse correction, the root factor lu at the bottom."""
    if level == len(levels):
        return lu.solve(b)
    A, P, R, dinv = levels[level]
    x = dinv * b                    # the first sweep, from x = 0
    for _ in range(_MG_SWEEPS - 1):
        x += dinv * (b - A @ x)
    x += P @ _vcycle(levels, lu, R @ (b - A @ x), level + 1)
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
    ladder ends at its root mesh or at the first level with no free dof."""
    if not _negligible(A - A.T, np.abs(A.data).max(initial=0)):
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


def _schur(A, free, offsets):
    """("schur-cg", ordering, velocity factor, Krylov method) of CG on
    the pressure Schur complement S = B K^-1 B^T - A_pp of a free block
    A to _SCHUR_RTOL; None where _stokes_blocks rejects A.

    The constant pressure mode e decouples (B^T e = 0): the penalty
    equation sets its amplitude c = e^T g / e^T A_pp e, g the pressure
    part of b; CG solves with c A_pp e taken off g, then p's e-part,
    A_pp-orthogonally, is set to c."""
    blocks = _stokes_blocks(A, free, offsets)
    if blocks is None:
        return None
    K, B, A_pp = blocks
    n_u, Bt = 2 * K.shape[0], B.T
    ordering, lu = _structured_splu(K.tocsc())
    # eps M_p: S's pressure term and the Chebyshev steps' mass
    M = -A_pp
    dinv = 1.0 / M.diagonal()
    App_e = A_pp.sum(axis=1).A1         # A_pp e and e^T A_pp e
    e_App_e = App_e.sum()

    def solve_K(u):
        """blockdiag(K, K)^-1 u, both components by one 2-column back-solve
        of a Fortran-ordered right-hand side."""
        return lu.solve(u.reshape(2, -1).T).T.ravel()

    def schur_cg(b):
        c = b[n_u:].sum() / e_App_e
        f, g = b[:n_u], b[n_u:] - c * App_e
        p, iterations = _pcg(lambda d: B @ solve_K(Bt @ d) + M @ d,
                             B @ solve_K(f) - g,
                             lambda r: _chebyshev(M, dinv, r), _SCHUR_RTOL)
        p += c - (App_e @ p) / e_App_e
        return np.concatenate([solve_K(f - Bt @ p), p]), iterations

    return "schur-cg", ordering, lu, schur_cg


def _pcg(apply, b, precondition, rtol):
    """(x, iterations) of preconditioned CG for apply(x) = b from x = 0, to
    |r| <= rtol |b| in at most _CG_MAX_ITER iterations, stopped early
    where the operator or the preconditioner is not positive."""
    x = np.zeros_like(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return x, 0
    r = b.copy()
    z = precondition(r)
    p, rz = z, r @ z
    for it in range(1, _CG_MAX_ITER + 1):
        q = apply(p)
        pq = p @ q
        if not (pq > 0 and rz > 0):
            break
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= rtol * bnorm:
            break
        z = precondition(r)
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x, it


def _chebyshev(M, dinv, r):
    """_CHEB_STEPS steps of Jacobi-preconditioned Chebyshev semi-iteration
    for M x = r from x = 0 (Saad, Iterative Methods for Sparse Linear
    Systems, 2nd ed., Algorithm 12.1), on the P1 mass bounds
    lambda(D^-1 M) in [1/2, 2]: a fixed polynomial in D^-1 M times D^-1,
    so a symmetric positive definite approximation of M^-1."""
    lo, hi = 0.5, 2.0
    theta, delta = (hi + lo) / 2, (hi - lo) / 2
    sigma = theta / delta
    rho = 1 / sigma
    d = dinv * r / theta
    x = d
    for _ in range(_CHEB_STEPS - 1):
        r = r - M @ d
        rho, rho_old = 1 / (2 * sigma - rho), rho
        d = rho * rho_old * d + (2 * rho / delta) * (dinv * r)
        x = x + d
    return x


def _stokes_blocks(A, free, offsets):
    """(K, B, A_pp): the first velocity component's block, the
    pressure-velocity block and the pressure block of a three-component
    free block A (CSR), ordered (velocity, velocity, pressure) by
    ``offsets``; None unless A is symmetric, both velocity components
    have the same block K, with a positive diagonal, and no coupling
    between them, the constant pressure mode e is decoupled (B^T e = 0)
    and A_pp has a negative diagonal.  Each comparison is to 1e-12 of
    its largest entry, block by block: no temporary of A's size."""
    n_u1, n_u = np.searchsorted(free, offsets[1:3])
    if not (0 < n_u1 == n_u - n_u1 and n_u < A.shape[0]):
        return None
    scale = np.abs(A.data).max(initial=0)
    K, B, A_pp = A[:n_u1, :n_u1], A[n_u:, :n_u], A[n_u:, n_u:]
    if not (np.all(K.diagonal() > 0) and np.all(A_pp.diagonal() < 0)
            and _negligible(K - K.T, scale)
            and _negligible(K - A[n_u1:n_u, n_u1:n_u], scale)
            and _negligible(A[:n_u1, n_u1:n_u], scale)
            and _negligible(A[n_u1:n_u, :n_u1], scale)
            and _negligible(B - A[:n_u, n_u:].T, scale)
            and _negligible(A_pp - A_pp.T, scale)
            and _negligible(B.T @ np.ones(B.shape[0]), np.abs(B.data).max(initial=0))):
        return None
    return K, B, A_pp


def _negligible(X, scale):
    """Whether no entry of a sparse matrix or array X exceeds 1e-12 scale."""
    return bool(abs(X).max() <= 1e-12 * scale)


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
                        "(use assemble_system, or system_from_blocks)")
    A = system.matrix()
    rhs = np.asarray(rhs, dtype=float)
    total = system.num_dofs
    if A.shape != (total, total) or rhs.shape != (total,):
        raise ValueError("system, rhs and component layout disagree")

    fixed, values = dirichlet_dofs(th, system, spec)
    try:
        return _solver(th, system, fixed).solve(rhs, values)
    except RuntimeError as exc:
        hint = ("; no Dirichlet dof was fixed - an elliptic problem "
                "needs at least one" if len(fixed) == 0 else "")
        raise RuntimeError(f"{exc}{hint}") from exc


def error_L2(th, space, quad_order, exact, dofs):
    """L2 norm of (exact - FE function) by quadrature, one block of
    cells at a time (see Cells.integrate_fe)."""
    def sq(blk, uh):
        return (blk.values(exact) - uh) ** 2

    return float(np.sqrt(Cells(th, quad_order).integrate_fe(sq, dofs, space,
                                                              ("val",))))


def error_H1_semi(th, space, quad_order, exact_grad, dofs):
    """H1 seminorm of the error, one block of cells at a time;
    exact_grad returns (m, 2) gradients."""
    def sq(blk, dxh, dyh):
        ge = blk.values(exact_grad, 2)
        return (ge[:, :, 0] - dxh) ** 2 + (ge[:, :, 1] - dyh) ** 2

    return float(np.sqrt(Cells(th, quad_order).integrate_fe(sq, dofs, space,
                                                              ("dx", "dy"))))


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
