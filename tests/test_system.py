"""Dirichlet elimination, sparse solving, error norms, rate fitting."""

import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import trifem.problems
import trifem.system
from trifem import (DirichletSolver, DirichletSpec, Mesh2d,
                    apply_dirichlet_and_solve, assemble_system,
                    dirichlet_dofs, error_H1_semi, error_L2, fe_mesh,
                    fit_rate, interpolate_nodal, solve_sparse, square_mesh,
                    uniform_refine, var_form)
from trifem.problems import default_spec, run_problem, solve_stokes, stokes_form


def poisson_system(th, space="P1", order=3, f=lambda p: np.ones(len(p))):
    kk = assemble_system(th, var_form(1, "v.grad", "u.grad"), [space], order)
    ff = assemble_system(th, var_form(f, "v.val"), [space], order)
    return kk, ff


class TestApplyDirichlet:
    def test_single_triangle_all_fixed(self):
        mesh = Mesh2d(node=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      elem=np.array([[0, 1, 2]]))
        th = fe_mesh(mesh)
        kk, ff = poisson_system(th)
        g = lambda p: 1 + 2 * p[:, 0] + 3 * p[:, 1]
        x = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((0,), (g,)))
        assert np.array_equal(x, g(mesh.node))

    def test_hand_elimination_oracle(self):
        # unit triangle, vertices 0 and 1 fixed on y==0, vertex 2 free
        mesh = Mesh2d(node=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                      elem=np.array([[0, 1, 2]]))
        th = fe_mesh(mesh, ["y==0"])
        kk, ff = poisson_system(th)
        g = lambda p: 2 - p[:, 0]
        x = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((0,), (g,)))

        A = kk.matrix().toarray()
        xc = g(mesh.node[:2])
        x2 = (ff[2] - A[2, :2] @ xc) / A[2, 2]   # direct 3x3 elimination
        assert x[:2] == pytest.approx(xc, abs=0)
        assert x[2] == pytest.approx(x2, abs=1e-14)

    def test_homogeneous_boundary_exact_zero(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        kk, ff = poisson_system(th, "P2", 4)
        zero = lambda p: np.zeros(len(p))
        x = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((0,), (zero,)))
        from trifem import region_dofs
        bd = region_dofs(th, "P2", th.partition[0])
        assert np.all(x[bd] == 0.0)
        assert np.abs(x).max() > 0

    def test_two_regions_heat_exchanger_style(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        kk, ff = poisson_system(th, f=lambda p: np.zeros(len(p)))
        g20 = lambda p: np.full(len(p), 20.0)
        g100 = lambda p: np.full(len(p), 100.0)
        x = apply_dirichlet_and_solve(th, kk, ff,
                                      DirichletSpec((0, 1), (g20, g100)))
        node = th.mesh.node
        on_left = node[:, 0] == 0.0
        on_rest = (node[:, 0] == 1.0) | ((node[:, 1] % 1.0 == 0.0) & ~on_left)
        assert np.all(x[on_left] == 20.0)
        strict_rest = on_rest & (node[:, 0] > 0.0)
        assert np.all(x[strict_rest] == 100.0)
        # harmonic function stays between its boundary values
        assert x.min() >= 20.0 - 1e-10 and x.max() <= 100.0 + 1e-10

    def test_fixed_dof_exactness(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==1"])
        kk, ff = poisson_system(th, "P3", 5)
        g = lambda p: np.sin(p[:, 0]) + p[:, 1]
        x = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((1,), (g,)))
        from trifem import region_dofs
        region = th.partition[1]
        bd = region_dofs(th, "P3", region)
        pts = th.dof_map("P3").dof_point[bd]
        assert np.array_equal(x[bd], g(pts))   # assigned, not solved

    def test_free_residual_small(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        kk, ff = poisson_system(th, "P1", 3)
        zero = lambda p: np.zeros(len(p))
        x = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((0,), (zero,)))
        from trifem import region_dofs
        bd = set(region_dofs(th, "P1", th.partition[0]))
        free = np.array([d for d in range(len(x)) if d not in bd])
        res = (kk.matrix() @ x - ff)[free]
        assert np.linalg.norm(res) <= 1e-10 * max(np.linalg.norm(ff[free]), 1)

    def test_no_dirichlet_hint(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, ff = poisson_system(th)
        with pytest.raises(RuntimeError, match="no Dirichlet dof"):
            apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((), ()))

    def test_rhs_is_required(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, _ = poisson_system(th)
        spec = DirichletSpec((0,), (lambda p: np.zeros(len(p)),))
        with pytest.raises(TypeError, match="rhs"):
            apply_dirichlet_and_solve(th, kk, spec=spec)

    def test_a_bare_matrix_is_a_type_error(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, ff = poisson_system(th)
        spec = DirichletSpec((0,), (lambda p: np.zeros(len(p)),))
        with pytest.raises(TypeError, match="needs an AssembledSystem"):
            apply_dirichlet_and_solve(th, kk.matrix(), ff, spec)

    def test_a_rhs_of_another_length_is_named(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, ff = poisson_system(th)
        spec = DirichletSpec((0,), (lambda p: np.zeros(len(p)),))
        with pytest.raises(ValueError, match="component layout disagree"):
            apply_dirichlet_and_solve(th, kk, ff[:-1], spec)

    def test_value_sets_and_regions_pair_up(self):
        g = lambda p: np.zeros(len(p))
        with pytest.raises(ValueError, match="2 value sets for 1 regions"):
            DirichletSpec((0,), (g, g))

    def test_one_boundary_function_per_component(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, _ = poisson_system(th)
        g = lambda p: np.zeros(len(p))
        with pytest.raises(ValueError, match="2 boundary functions for 1 components"):
            dirichlet_dofs(th, kk, DirichletSpec((0,), ((g, g),)))

    def test_region_out_of_range(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, ff = poisson_system(th)
        g = lambda p: np.zeros(len(p))
        with pytest.raises(IndexError):
            apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((3,), (g,)))

    def test_an_empty_region_fixes_nothing(self):
        # the catch-all region after a selector that takes every edge
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x<2"])
        kk, ff = poisson_system(th)
        called = []
        g = lambda p: called.append(len(p)) or np.zeros(len(p))
        fixed, values = dirichlet_dofs(th, kk, DirichletSpec((1,), (g,)))
        assert fixed.shape == values.shape == (0,) and called == []
        fixed, values = dirichlet_dofs(th, kk, DirichletSpec((1, 0), (g, g)))
        assert called == [8] and len(fixed) == 8

    def test_unconstrained_component(self):
        # 2-component system, second component unconstrained
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        form = var_form([1, 1, 1], ["v1.grad", "v1.val", "v2.val"],
                        ["u1.grad", "u1.val", "u2.val"])
        kk = assemble_system(th, form, ["P1", "P1"], 3)
        ff = np.zeros(kk.num_dofs)
        one = lambda p: np.ones(len(p))
        x = apply_dirichlet_and_solve(th, kk, ff,
                                      DirichletSpec((0,), ((one, None),)))
        n = th.dof_map("P1").num_dofs
        from trifem import region_dofs
        bd = region_dofs(th, "P1", th.partition[0])
        assert np.all(x[bd] == 1.0)
        assert np.allclose(x[n:], 0.0)  # mass block solves to zero


class TestDirichletSolver:
    def test_one_factorization_serves_new_rhs_and_values(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        form = var_form([1, 1], ["v.grad", "v.val"], ["u.grad", "u.val"])
        kk = assemble_system(th, form, ["P2"], 4)
        solver = None
        for k in range(3):
            ff = assemble_system(th, var_form(lambda p: np.cos(k * p[:, 0]),
                                              "v.val"), ["P2"], 4)
            spec = DirichletSpec((0, 1), (lambda p: k + p[:, 1],
                                          lambda p: np.sin(k * p[:, 0])))
            fixed, values = dirichlet_dofs(th, kk, spec)
            if solver is None:
                solver = DirichletSolver(kk.matrix(), fixed)
            got = solver.solve(ff, values)
            fresh = apply_dirichlet_and_solve(th, kk, ff, spec)
            assert np.abs(got - fresh).max() <= 1e-12 * np.abs(fresh).max()
            assert np.array_equal(got[fixed], values)

    def test_first_region_wins(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
        kk, _ = poisson_system(th)
        fixed, values = dirichlet_dofs(th, kk, DirichletSpec(
            (0, 1), (lambda p: np.full(len(p), 1.0),
                     lambda p: np.full(len(p), 2.0))))
        corners = th.mesh.node[fixed]
        on_left = corners[:, 0] == 0.0
        assert np.all(values[on_left] == 1.0) and np.all(values[~on_left] == 2.0)
        assert np.all(np.diff(fixed) > 0)

    def test_wrong_length_boundary_function_named(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
        kk, _ = poisson_system(th)
        spec = DirichletSpec((1,), (lambda p: np.ones(len(p) + 1),))
        with pytest.raises(ValueError, match=r"component 1 on region 1 .*"
                                             r"expected \(\d+,\)"):
            dirichlet_dofs(th, kk, spec)

    def test_column_boundary_function_accepted(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
        kk, _ = poisson_system(th)
        flat = dirichlet_dofs(th, kk, DirichletSpec((1,), (lambda p: p[:, 1],)))
        column = dirichlet_dofs(th, kk, DirichletSpec((1,), (lambda p: p[:, 1:2],)))
        assert np.array_equal(column[0], flat[0])
        assert np.array_equal(column[1], flat[1])

    def test_bad_fixed_dofs_rejected(self):
        A = sp.identity(3, format="csr")
        for fixed in ([3], [-1], [1, 1]):
            with pytest.raises(ValueError, match="distinct"):
                DirichletSolver(A, fixed)

    @pytest.mark.parametrize("fixed", [[1.7], [1.0], np.array([0.0, 2.0]),
                                       [np.nan], [True]])
    def test_non_integer_fixed_dofs_rejected(self, fixed):
        # [1.7] used to fix dof 1
        with pytest.raises(ValueError, match="fixed dofs must be integers"):
            DirichletSolver(sp.identity(3, format="csr"), fixed)

    @pytest.mark.parametrize("fixed", [[], (), np.array([], dtype=np.int32),
                                       np.array([2], dtype=np.uint8)])
    def test_empty_or_integer_fixed_dofs_accepted(self, fixed):
        # numpy reads [] as float64: solve_sparse passes it
        solver = DirichletSolver(sp.identity(3, format="csr"), fixed)
        assert solver.fixed.dtype == np.int64
        assert len(solver.free) == 3 - len(fixed)

    def test_solver_keeps_its_own_fixed_dofs(self):
        fixed = np.array([0, 2])
        solver = DirichletSolver(sp.identity(3, format="csr"), fixed)
        fixed[0] = 1
        assert solver.fixed.tolist() == [0, 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_is_named(self, bad):
        # a NaN in the free block read "sparse solve failed: Factor is
        # exactly singular"
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        kk, ff = poisson_system(th)
        spec = DirichletSpec((1,), (lambda p: p[:, 0],))
        fixed, _ = dirichlet_dofs(th, kk, spec)
        free = np.setdiff1d(np.arange(kk.num_dofs), fixed)
        kk.matrix()[free[3], free[3]] = bad
        with pytest.raises(ValueError, match="matrix is not all finite"):
            DirichletSolver(kk.matrix(), fixed)
        with pytest.raises(ValueError, match="matrix is not all finite"):
            apply_dirichlet_and_solve(th, kk, ff, spec)

    @pytest.mark.parametrize("regions", [(0.7,), 1.0, (0, 1.5)])
    def test_non_integer_regions_rejected(self, regions):
        # (0.7,) used to select region 0
        g = lambda p: np.zeros(len(p))
        with pytest.raises(ValueError, match="boundary regions must be integers"):
            DirichletSpec(regions, (g,) * len(np.atleast_1d(regions)))

    def test_integer_regions_read_as_python_ints(self):
        g = lambda p: np.zeros(len(p))
        spec = DirichletSpec(np.array([1, 0], dtype=np.int32), (g, g))
        assert spec.regions == (1, 0)
        assert all(type(r) is int for r in spec.regions)
        assert DirichletSpec(2, g).regions == (2,)
        assert DirichletSpec((), ()).regions == ()

    def test_wrong_rhs_length_rejected(self):
        with pytest.raises(ValueError, match="rhs"):
            DirichletSolver(sp.identity(3, format="csr"), [0]).solve(np.ones(2), [1.0])

    @pytest.mark.parametrize("values", [np.ones((1, 2)), np.ones(1), 1.0])
    def test_mis_shaped_values_rejected(self, values):
        # a (1, n_fixed) row used to broadcast into the fixed dofs
        solver = DirichletSolver(sp.identity(3, format="csr"), [0, 2])
        shape = np.shape(values)
        with pytest.raises(ValueError, match=rf"values has shape "
                                             rf"{re.escape(str(shape))}, expected \(2,\)"):
            solver.solve(np.ones(3), values)
        with pytest.raises(ValueError, match="values has shape"):
            solver.solve_lifted(np.ones(1), values)

    def test_solve_is_the_lifted_solve_of_its_free_rows(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        kk, ff = poisson_system(th, "P2", 4)
        fixed, values = dirichlet_dofs(th, kk, DirichletSpec(
            (1,), (lambda p: np.sin(p[:, 0] + p[:, 1]),)))
        solver = DirichletSolver(kk.matrix(), fixed)
        mass = assemble_system(th, var_form(1, "v.val", "u.val"), ["P2"], 4).matrix()
        uh = np.cos(np.arange(kk.num_dofs))
        S = solver.free_rows(sp.identity(kk.num_dofs), mass)
        assert S.format == "csr"
        assert S.shape == (kk.num_dofs - len(fixed), 2 * kk.num_dofs + len(fixed))
        got = solver.solve_lifted(S @ np.concatenate([ff, uh, values]), values)
        ref = solver.solve(ff + mass @ uh, values)
        assert np.array_equal(got[fixed], values)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        with pytest.raises(ValueError, match="lifted rhs"):
            solver.solve_lifted(np.ones(kk.num_dofs), values)
        with pytest.raises(ValueError, match="rows, expected"):
            solver.free_rows(mass[1:])

    @pytest.mark.parametrize("bad, named", [("rhs", "right-hand side"),
                                            ("values", "fixed dofs' values")])
    def test_non_finite_data_is_blamed_on_the_data(self, bad, named):
        # both used to be reported as a numerically singular matrix
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        kk, ff = poisson_system(th)
        fixed, values = dirichlet_dofs(th, kk, DirichletSpec((1,), (lambda p: p[:, 0],)))
        data = {"rhs": ff, "values": values}
        data[bad] = np.full(len(data[bad]), np.nan)
        solver = DirichletSolver(kk.matrix(), fixed)
        with pytest.raises(ValueError, match=f"{named} (is|are) not all finite"):
            solver.solve(data["rhs"], data["values"])
        # the factor is untouched: finite data solves as before
        assert np.array_equal(solver.solve(ff, values),
                              DirichletSolver(kk.matrix(), fixed).solve(ff, values))

    def test_a_non_finite_coupled_value_is_blamed_on_the_data(self):
        # a fixed dof that a free row sees: the residual finds it
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        kk, ff = poisson_system(th)
        fixed, values = dirichlet_dofs(th, kk, DirichletSpec((1,), (lambda p: p[:, 0],)))
        solver = DirichletSolver(kk.matrix(), fixed)
        coupled = np.setdiff1d(np.arange(len(fixed)), solver._isolated)
        bad = values.copy()
        bad[coupled[0]] = np.nan
        with pytest.raises(ValueError, match="fixed dofs' values are not all finite"):
            solver.solve(ff, bad)

    def test_a_factor_that_overflows_is_blamed_on_the_matrix(self):
        # finite data, a pivot of 1e-310: the solution overflows to inf
        solver = DirichletSolver(sp.diags([1.0, 1e-310, 1.0]).tocsr(), [0])
        with pytest.raises(RuntimeError, match="produced non-finite values; "
                                               "the matrix is numerically singular"):
            solver.solve(np.array([0.0, 1.0, 0.0]), [0.0])

    def test_a_failing_back_solve_is_named(self):
        class FailingFactor:
            def solve(self, b):
                raise RuntimeError("factor is unusable")

        solver = DirichletSolver(sp.identity(3, format="csr"), [0])
        solver._lu = FailingFactor()
        with pytest.raises(RuntimeError, match="^sparse solve failed: factor is unusable"):
            solver.solve(np.ones(3), [0.0])

    def test_a_non_finite_value_no_free_row_sees_is_blamed_on_the_data(self):
        # two corner dofs couple to no free dof, so a NaN there never
        # reached the residual and came back in x with residual 0
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, ff = poisson_system(th)
        fixed, values = dirichlet_dofs(th, kk, DirichletSpec((0,), (lambda p: p[:, 0],)))
        solver = DirichletSolver(kk.matrix(), fixed)
        rows = kk.matrix()[solver.free]
        isolated = [k for k, dof in enumerate(fixed) if rows[:, dof].nnz == 0]
        assert [fixed[k] for k in isolated] == [2, 6]
        for k in isolated:
            bad = values.copy()
            bad[k] = np.nan
            with pytest.raises(ValueError, match="fixed dofs' values are not all finite"):
                solver.solve(ff, bad)
            with pytest.raises(ValueError, match="fixed dofs' values are not all finite"):
                solver.solve_lifted(ff[solver.free] - rows[:, fixed] @ values, bad)
        assert np.array_equal(solver.solve(ff, values),
                              DirichletSolver(kk.matrix(), fixed).solve(ff, values))
        # with no free dof every fixed dof is isolated
        with pytest.raises(ValueError, match="fixed dofs' values are not all finite"):
            DirichletSolver(sp.identity(2, format="csr"), [0, 1]).solve(
                np.zeros(2), [1.0, np.nan])


@pytest.fixture
def solvers(monkeypatch):
    """Every solver the drivers build, through the selector or directly,
    in order."""
    made = []
    select = trifem.system._solver

    def recorded(*args):
        made.append(select(*args))
        return made[-1]

    class Recorded(DirichletSolver):
        def __init__(self, A, fixed):
            super().__init__(A, fixed)
            made.append(self)

    monkeypatch.setattr(trifem.system, "_solver", recorded)
    monkeypatch.setattr(trifem.problems, "DirichletSolver", Recorded)
    return made


class TestOrdering:
    @pytest.mark.parametrize("problem,overrides,ordering", [
        ("elasticity-tensor", {"degree": 1, "refinements": 3}, "MMD_AT_PLUS_A"),
        ("poisson", {"degree": 2, "refinements": 3}, "MMD_AT_PLUS_A"),
        ("poisson", {"degree": 3, "refinements": 3}, "MMD_AT_PLUS_A"),
        ("elasticity-disp", {"degree": 1, "refinements": 3}, "MMD_AT_PLUS_A"),
        ("ns-newton", {"refinements": 1}, "MMD_AT_PLUS_A"),
        ("poisson", {"degree": 1, "refinements": 3}, "COLAMD"),
        ("heat", {"degree": 1, "refinements": 2}, "COLAMD"),
        ("biharmonic-block", {"refinements": 3}, "COLAMD"),
        ("biharmonic-vector", {"refinements": 3}, "COLAMD"),
    ])
    def test_free_block_structure_picks_the_ordering(self, solvers, problem,
                                                     overrides, ordering):
        run_problem(default_spec(problem, **overrides))
        assert (solvers[-1].method, solvers[-1].ordering) == ("lu", ordering)
        assert solvers[-1].lu_fill > 0

    def test_stokes_block_takes_the_symmetric_path(self):
        # solve_stokes factorizes only the velocity block; the whole
        # penalized Taylor-Hood block keeps its ordering for the LU fallback
        _, kk, ff, fixed, values = stokes_level(3)
        solver = DirichletSolver(kk.matrix(), fixed)
        assert (solver.method, solver.ordering) == ("lu", "MMD_AT_PLUS_A")
        assert solver.lu_fill > 0
        solver.solve(ff, values)
        assert solver.residual <= 1e-8

    def test_zero_diagonal_saddle_block_keeps_colamd(self):
        # [[M, K], [K^T, 0]]: 9.2 entries per row, wider than P1's stencil,
        # but a zero diagonal rules out the symmetric path's diagonal pivots
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.125))
        M = assemble_system(th, var_form(1, "v.val", "u.val"), ["P1"]).matrix()
        K = assemble_system(th, var_form([1, 1], ["v.grad", "v.val"],
                                         ["u.grad", "u.val"]), ["P1"]).matrix()
        A = sp.bmat([[M, K], [K.T, None]], format="csr")
        assert A.nnz > 9 * A.shape[0]
        solver = DirichletSolver(A, [])
        assert solver.ordering == "COLAMD"
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        x = solver.solve(b, [])
        assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_biharmonic_p2_fill_stays_at_colamd_level(self, solvers):
        # COLAMD fills this zero-diagonal block with 226,873 entries; the
        # symmetric path would fill 1,341,349 and factorize 14 times slower
        run_problem(default_spec("biharmonic-vector", degree=2, refinements=3))
        assert solvers[-1].lu_fill <= 226_873

    def test_no_free_dof(self):
        solver = DirichletSolver(sp.identity(3, format="csr"), [0, 1, 2])
        assert (solver.ordering, solver.lu_fill) == ("COLAMD", 0)

    def test_stats_are_read_only(self):
        solver = DirichletSolver(sp.identity(3, format="csr"), [])
        # L's unit diagonal and U's diagonal
        assert (solver.ordering, solver.lu_fill) == ("COLAMD", 6)
        assert (solver.method, solver.iterations, solver.residual) == ("lu", 0, None)
        solver.solve(np.ones(3), [])
        assert (solver.method, solver.iterations, solver.residual) == ("lu", 0, 0.0)
        for name in ("ordering", "lu_fill", "method", "iterations", "residual"):
            with pytest.raises(AttributeError):
                setattr(solver, name, 0)


def ladder_level(refinements, h0=0.5, selectors=("x==0",)):
    """Level `refinements` of a refinement ladder of the unit square."""
    mesh = square_mesh([0, 1, 0, 1], h0)
    for _ in range(refinements):
        mesh = uniform_refine(mesh)
    return fe_mesh(mesh, selectors)


def p1_problem(th, coefs, tests, trials, region=1):
    """A P1 system, its load and Dirichlet data on one boundary region."""
    kk = assemble_system(th, var_form(coefs, tests, trials), ["P1"], 3)
    ff = assemble_system(th, var_form(lambda p: np.cos(3 * p[:, 0]) + p[:, 1],
                                      "v.val"), ["P1"], 3)
    spec = DirichletSpec((region,), (lambda p: np.sin(p[:, 0] + 2 * p[:, 1]),))
    return kk, ff, spec


@pytest.fixture
def mg_solvers(monkeypatch):
    """Every solver the selector builds past its multigrid gate (one P1
    component on a refined mesh, more than _MG_MIN_FREE free dofs), in
    order."""
    made, tried = [], []
    select, multigrid = trifem.system._solver, trifem.system._multigrid

    def recorded(*args):
        tried.clear()
        solver = select(*args)
        if tried:
            made.append(solver)
        return solver

    monkeypatch.setattr(trifem.system, "_multigrid",
                        lambda *args: tried.append(True) or multigrid(*args))
    monkeypatch.setattr(trifem.system, "_solver", recorded)
    return made


def lu_solution(th, kk, ff, spec):
    fixed, values = dirichlet_dofs(th, kk, spec)
    return DirichletSolver(kk.matrix(), fixed).solve(ff, values)


class TestMultigrid:
    def test_matches_lu_in_iterations_that_do_not_grow(self, mg_solvers):
        iterations = []
        for level in (5, 6):
            th = ladder_level(level)
            kk, ff, spec = p1_problem(th, [1, 1], ["v.grad", "v.val"],
                                      ["u.grad", "u.val"])
            x = apply_dirichlet_and_solve(th, kk, ff, spec)
            solver = mg_solvers[-1]
            assert solver.method == "mg-pcg"
            assert solver.residual <= 1e-12
            # the root level's factor only: 2 free dofs at h = 1/2
            assert 0 < solver.lu_fill < 10
            lu = lu_solution(th, kk, ff, spec)
            assert np.abs(x - lu).max() <= 1e-10 * np.abs(lu).max()
            iterations.append(solver.iterations)
        assert max(iterations) <= 20
        assert iterations[1] - iterations[0] <= 2

    def test_small_blocks_and_non_p1_systems_keep_lu(self, mg_solvers, solvers):
        # 992 free dofs at refine 4, under the threshold; P2 at refine 5
        for level, space in ((4, "P1"), (5, "P2")):
            th = ladder_level(level)
            kk, ff = poisson_system(th, space)
            apply_dirichlet_and_solve(th, kk, ff, DirichletSpec(
                (1,), (lambda p: np.zeros(len(p)),)))
        assert mg_solvers == []
        assert [s.method for s in solvers] == ["lu", "lu"]

    def test_non_symmetric_form_takes_lu(self, mg_solvers):
        th = ladder_level(5)
        kk, ff, spec = p1_problem(th, [1, 1], ["v.grad", "v.val"],
                                  ["u.grad", "u.dx"])
        x = apply_dirichlet_and_solve(th, kk, ff, spec)
        assert (mg_solvers[-1].method, mg_solvers[-1].ordering) == ("lu", "COLAMD")
        assert np.array_equal(x, lu_solution(th, kk, ff, spec))

    @pytest.mark.parametrize("k2", [25.0, 50.0, 1000.0])
    def test_indefinite_form_falls_back_to_lu(self, mg_solvers, k2):
        # grad.grad - k2 mass: the smallest eigenvalue of -lap on this
        # mixed problem is pi^2 / 4 + pi^2 = 12.3, so all are indefinite.
        # At k2 = 25 every Galerkin level keeps a positive diagonal and
        # CG breaks down; at 50 only the root level's diagonal turns
        # negative, at 1000 the coarse diagonals do, and the solver
        # factorizes at once.
        th = ladder_level(5)
        kk, ff, spec = p1_problem(th, [1, -k2], ["v.grad", "v.val"],
                                  ["u.grad", "u.val"])
        assert np.all(kk.matrix().diagonal() > 0)
        x = apply_dirichlet_and_solve(th, kk, ff, spec)
        assert mg_solvers[-1].method == "lu"
        assert np.array_equal(x, lu_solution(th, kk, ff, spec))

    def test_cg_that_misses_the_gate_falls_back_on_that_solve(self):
        th = ladder_level(5)
        kk, ff, spec = p1_problem(th, [1, -25.0], ["v.grad", "v.val"],
                                  ["u.grad", "u.val"])
        fixed, values = dirichlet_dofs(th, kk, spec)
        solver = trifem.system._solver(th, kk, fixed)
        assert solver.method == "mg-pcg"
        # the V-cycle hierarchy goes with the Krylov method on the miss
        krylov = weakref.ref(solver._krylov)
        x = solver.solve(ff, values)
        assert solver.method == "lu" and solver.residual <= 1e-8
        assert krylov() is None
        assert np.array_equal(x, lu_solution(th, kk, ff, spec))

    def test_non_finite_rhs_keeps_the_krylov_method(self):
        # a NaN load used to miss the gate and factorize before raising
        th = ladder_level(5)
        kk, ff, spec = p1_problem(th, [1, 1], ["v.grad", "v.val"],
                                  ["u.grad", "u.val"])
        fixed, values = dirichlet_dofs(th, kk, spec)
        solver = trifem.system._solver(th, kk, fixed)
        with pytest.raises(ValueError, match="right-hand side is not all finite"):
            solver.solve(np.full(len(ff), np.nan), values)
        assert solver.method == "mg-pcg" and solver._krylov is not None
        assert np.array_equal(solver.solve(ff, values),
                              apply_dirichlet_and_solve(th, kk, ff, spec))

    def test_each_prolongation_is_built_once_per_mesh(self, monkeypatch,
                                                      mg_solvers):
        import trifem.mesh
        built = []
        original = trifem.mesh._midpoint_prolongation

        def counted(mesh):
            built.append(mesh)
            return original(mesh)
        monkeypatch.setattr(trifem.mesh, "_midpoint_prolongation", counted)
        th = ladder_level(5)
        kk, ff, spec = p1_problem(th, 1, "v.grad", "u.grad")
        first = apply_dirichlet_and_solve(th, kk, ff, spec)
        assert len(built) == 5          # one per refined mesh of the ladder
        del built[:]
        again = apply_dirichlet_and_solve(th, kk, ff, spec)
        assert built == [] and len(mg_solvers) == 2
        assert np.array_equal(first, again)
        # a finer level reuses the ladder below it
        fine = fe_mesh(uniform_refine(th.mesh), ("x==0",))
        kk, ff, spec = p1_problem(fine, 1, "v.grad", "u.grad")
        apply_dirichlet_and_solve(fine, kk, ff, spec)
        assert built == [fine.mesh] and mg_solvers[-1].method == "mg-pcg"

    def test_root_level_without_free_dofs(self, mg_solvers):
        # the 2-triangle root mesh has only boundary nodes, all fixed
        th = ladder_level(6, h0=1.0, selectors=())
        kk, ff, spec = p1_problem(th, 1, "v.grad", "u.grad", region=0)
        x = apply_dirichlet_and_solve(th, kk, ff, spec)
        solver = mg_solvers[-1]
        assert solver.method == "mg-pcg" and solver.iterations <= 20
        # refine 1 is the root: its one interior node, a 1 x 1 factor
        assert solver.lu_fill == 2
        lu = lu_solution(th, kk, ff, spec)
        assert np.abs(x - lu).max() <= 1e-10 * np.abs(lu).max()

    def test_stats_are_read_only(self, mg_solvers):
        th = ladder_level(5)
        apply_dirichlet_and_solve(th, *p1_problem(th, 1, "v.grad", "u.grad"))
        solver = mg_solvers[-1]
        assert (solver.method, solver.ordering) == ("mg-pcg", "COLAMD")
        for name in ("ordering", "lu_fill", "method", "iterations", "residual"):
            with pytest.raises(AttributeError):
                setattr(solver, name, 0)


def stokes_level(refinements, selectors=(), region=0, **form):
    """(th, system, load, fixed, values) of a Taylor-Hood level with the
    velocity fixed on one boundary region; ``form`` overrides the spec's
    nu or eps in the Stokes form."""
    spec = replace(default_spec("stokes", refinements=refinements), **form)
    th = ladder_level(refinements, selectors=selectors)
    kk = assemble_system(th, stokes_form(spec), ["P2", "P2", "P1"], spec.order)
    f, u = spec.data.f, spec.data.exact_u
    ff = assemble_system(th, var_form([lambda p: f(p)[:, 0], lambda p: f(p)[:, 1]],
                                      ["v1.val", "v2.val"]), kk.spaces, spec.order)
    fixed, values = dirichlet_dofs(th, kk, DirichletSpec(
        (region,), ((lambda p: u(p)[:, 0], lambda p: u(p)[:, 1], None),)))
    return th, kk, ff, fixed, values


def pressure_mean(kk, p):
    """The mean of a pressure vector in the pressure mass inner product."""
    pp = slice(kk.offsets[2], kk.offsets[3])
    mass = -kk.matrix()[pp][:, pp]
    return (mass @ p).sum() / mass.sum()


@pytest.fixture(scope="module")
def stokes_r5():
    """The refine-5 Taylor-Hood level, solved by Schur CG and by LU."""
    th, kk, ff, fixed, values = stokes_level(5)
    cg = trifem.system._solver(th, kk, fixed)
    lu = DirichletSolver(kk.matrix(), fixed)
    return kk, ff, values, cg, cg.solve(ff, values), lu, lu.solve(ff, values)


class TestSchurCG:
    def test_matches_lu_at_refine_5(self, stokes_r5):
        kk, _, _, cg, x, _, y = stokes_r5
        assert cg.method == "schur-cg" and cg.iterations <= 50
        assert cg.residual <= 1e-11
        u = slice(0, kk.offsets[2])
        assert np.abs(x[u] - y[u]).max() <= 1e-11 * np.abs(y[u]).max()
        # LU's pressure carries a constant-mode mean of about 1e-6: noise
        # amplified by 1/eps; without that mean the pressures agree
        p, q = x[kk.offsets[2]:], y[kk.offsets[2]:]
        assert abs(pressure_mean(kk, q)) > 1e-8
        p, q = p - pressure_mean(kk, p), q - pressure_mean(kk, q)
        assert np.abs(p - q).max() <= 1e-9 * np.abs(q).max()

    def test_pressure_mean_is_set_by_the_penalty_equation(self, stokes_r5):
        # a pressure load whose sum is not zero: the constant mode's
        # amplitude is c = e^T g / e^T A_pp e, g the pressure part of b
        kk, ff, values, cg, _, lu, _ = stokes_r5
        pp = slice(kk.offsets[2], kk.offsets[3])
        ff = ff.copy()
        ff[pp] = 1e-10 * np.linspace(1.0, 3.0, pp.stop - pp.start)
        x, y = cg.solve(ff, values), lu.solve(ff, values)
        assert cg.method == "schur-cg"
        A = kk.matrix()
        b = ff[cg.free] - A[cg.free][:, cg.fixed] @ values
        c = b[-(pp.stop - pp.start):].sum() / A[pp][:, pp].sum()
        assert abs(c) > 1
        assert pressure_mean(kk, x[pp]) == pytest.approx(c, rel=1e-12)
        u = slice(0, kk.offsets[2])
        assert np.abs(x[u] - y[u]).max() <= 1e-11 * np.abs(y[u]).max()

    @pytest.mark.parametrize("case", ["non-symmetric", "B^T e != 0", "eps < 0",
                                      "nu < 0", "u1-u2 coupling"])
    def test_a_block_without_the_stokes_structure_takes_lu(self, case):
        th, kk, ff, fixed, values = (
            stokes_level(2, selectors=("x==0",), region=1)
            if case == "B^T e != 0" else
            stokes_level(2, eps=-1e-10) if case == "eps < 0" else
            stokes_level(2, nu=-1.0) if case == "nu < 0" else stokes_level(2))
        A = kk.matrix()
        if case == "non-symmetric":
            i, j = np.setdiff1d(np.arange(A.shape[0]), fixed)[:2]
            A = A + sp.csr_matrix(([1e-3], ([i], [j])), shape=A.shape)
        elif case == "u1-u2 coupling":
            # symmetric, with K shared and B^T e = 0: only the coupling
            # is wrong (one CG iteration on the wrong operator, then LU)
            A = A + assemble_system(th, var_form([0.5, 0.5], ["v1.val", "v2.val"],
                                                 ["u2.val", "u1.val"]),
                                    kk.spaces, 4).matrix()
        solver = trifem.system._solver(th, replace(kk, _csr=A), fixed)
        assert (solver.method, solver.ordering) == ("lu", "MMD_AT_PLUS_A")
        x = solver.solve(ff, values)
        assert np.array_equal(x, DirichletSolver(A, fixed).solve(ff, values))

    def test_velocity_components_with_unequal_free_counts_take_lu(self):
        th, kk, ff, fixed, values = stokes_level(2)
        solver = trifem.system._solver(th, kk, fixed)
        assert solver.method == "schur-cg"
        u1 = np.setdiff1d(np.arange(kk.offsets[1]), fixed)[0]   # a free u1 dof
        solver = trifem.system._solver(th, kk, np.union1d(fixed, [u1]))
        assert (solver.method, solver.ordering) == ("lu", "MMD_AT_PLUS_A")

    def test_cg_that_misses_the_gate_falls_back_to_lu(self, monkeypatch):
        th, kk, ff, fixed, values = stokes_level(3)
        monkeypatch.setattr(trifem.system, "_CG_MAX_ITER", 1)
        solver = trifem.system._solver(th, kk, fixed)
        assert solver.method == "schur-cg"
        # B, the pressure mass and the velocity factor go with it
        krylov = weakref.ref(solver._krylov)
        x = solver.solve(ff, values)
        assert solver.method == "lu" and solver.residual <= 1e-8
        assert krylov() is None
        assert solver.ordering == "MMD_AT_PLUS_A"
        assert np.array_equal(x, DirichletSolver(kk.matrix(), fixed).solve(ff, values))

    def test_stats_are_read_only(self):
        th, kk, ff, fixed, values = stokes_level(3)
        solver = trifem.system._solver(th, kk, fixed)
        assert (solver.method, solver.ordering) == ("schur-cg", "MMD_AT_PLUS_A")
        assert (solver.iterations, solver.residual) == (0, None)
        assert solver.lu_fill > 0
        solver.solve(ff, values)
        assert solver.method == "schur-cg" and 0 < solver.iterations <= 50
        assert solver.residual <= 1e-11
        for name in ("ordering", "lu_fill", "method", "iterations", "residual"):
            with pytest.raises(AttributeError):
                setattr(solver, name, 0)

    def test_solve_stokes_takes_schur_cg_on_every_level(self, solvers):
        run_problem(default_spec("stokes", refinements=5))
        assert [len(s.free) for s in solvers] == [123, 531, 2211, 9027, 36483]
        assert all(s.method == "schur-cg" and 0 < s.iterations <= 50
                   and s.residual <= 1e-11 for s in solvers)

    def test_pressure_mean_is_c_on_every_level(self):
        # LU left a constant-mode mean of up to 2.3e-5 here (refine 1):
        # solve noise amplified by 1/eps.  The load has e^T g = 0 on these
        # levels, so c = 0 and the mean is compared on the pressure's scale.
        for refinements in range(1, 5):
            th, kk, ff, fixed, values = stokes_level(refinements)
            _, _, p = solve_stokes(th, default_spec("stokes"))
            pp = slice(kk.offsets[2], kk.offsets[3])
            A = kk.matrix()
            b = ff[pp] - A[pp][:, fixed] @ values
            c = b.sum() / A[pp][:, pp].sum()
            scale = max(abs(c), np.abs(p).max())
            assert abs(pressure_mean(kk, p) - c) <= 1e-12 * scale


class TestChebyshev:
    def test_operator_is_symmetric_positive_definite(self):
        th = ladder_level(2)
        M = assemble_system(th, var_form(1, "v.val", "u.val"), ["P1"]).matrix()
        dinv = 1.0 / M.diagonal()
        C = np.column_stack([trifem.system._chebyshev(M, dinv, e)
                             for e in np.identity(M.shape[0])])
        assert np.abs(C - C.T).max() <= 1e-14 * np.abs(C).max()
        assert np.linalg.eigvalsh((C + C.T) / 2).min() > 0


class TestSolveSparse:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        x = solve_sparse(sp.identity(3, format="csr"), b)
        assert np.array_equal(x, b)

    def test_against_dense_lu(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        form = var_form([1, 1], ["v.grad", "v.val"], ["u.grad", "u.val"])
        kk = assemble_system(th, form, ["P1"], 3)
        A = kk.matrix()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(9)
        x = solve_sparse(A, b)
        oracle = np.linalg.solve(A.toarray(), b)
        assert np.allclose(x, oracle, atol=1e-12, rtol=0)

    def test_singular_raises(self):
        A = sp.csr_matrix(np.zeros((2, 2)))
        with pytest.raises(RuntimeError):
            solve_sparse(A, np.ones(2))

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            solve_sparse(sp.csr_matrix(np.ones((2, 3))), np.ones(2))


class TestErrors:
    @pytest.mark.parametrize("space,poly,grad", [
        ("P1", lambda p: 1 + p[:, 0], lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))])),
        ("P2", lambda p: p[:, 0] * p[:, 1], lambda p: np.column_stack([p[:, 1], p[:, 0]])),
        ("P3", lambda p: p[:, 0] ** 3, lambda p: np.column_stack([3 * p[:, 0] ** 2, np.zeros(len(p))])),
    ])
    def test_interpolant_of_polynomial_has_zero_error(self, space, poly, grad):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        dofs = interpolate_nodal(poly, th, space)
        assert error_L2(th, space, 6, poly, dofs) <= 1e-11
        assert error_H1_semi(th, space, 6, grad, dofs) <= 1e-11

    def test_interpolation_error_ratio(self):
        u = lambda p: p[:, 0] ** 2
        errs = []
        for h in (0.5, 0.25):
            th = fe_mesh(square_mesh([0, 1, 0, 1], h))
            dofs = interpolate_nodal(u, th, "P1")
            errs.append(error_L2(th, "P1", 5, u, dofs))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_zero_against_one(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        err = error_L2(th, "P1", 4, lambda p: np.ones(len(p)), np.zeros(9))
        assert err == pytest.approx(1.0, abs=1e-14)

    def test_interpolant_l2_order_is_k_plus_one(self):
        u = lambda p: np.sin(np.pi * p[:, 0]) * np.cos(p[:, 1])
        for k, space in ((1, "P1"), (2, "P2")):
            hs, errs = [], []
            mesh = square_mesh([0, 1, 0, 1], 0.5)
            for _ in range(4):
                mesh = uniform_refine(mesh)
                th = fe_mesh(mesh)
                dofs = interpolate_nodal(u, th, space)
                hs.append(1.0 / (np.sqrt(mesh.num_nodes) - 1))
                errs.append(error_L2(th, space, k + 3, u, dofs))
            assert fit_rate(hs, errs) == pytest.approx(k + 1, abs=0.2)


class TestFitRate:
    def test_exact_quadratic(self):
        h = np.array([0.5, 0.25, 0.125, 0.0625])
        assert fit_rate(h, h**2) == pytest.approx(2.0, abs=1e-12)

    def test_published_third_degree_column(self):
        # 5-level L2 error column of a degree-3 run
        h = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
        err = [2.53816e-05, 1.53744e-06, 9.46298e-08, 5.87001e-09, 3.65444e-10]
        assert fit_rate(h, err) == pytest.approx(4.0, abs=0.1)

    def test_published_mixed_velocity_column(self):
        h = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
        err = [8.88464e-02, 1.01868e-02, 1.21537e-03, 1.50235e-04, 1.87368e-05]
        assert fit_rate(h, err) == pytest.approx(3.0, abs=0.1)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_rate([0.5], [1.0])
        with pytest.raises(ValueError):
            fit_rate([0.5, 0.25], [1.0, -1.0])

    @pytest.mark.parametrize("h, err", [([0.5, 0.25], [1.0, np.nan]),
                                        ([np.inf, 0.25], [1.0, 0.5]),
                                        ([0.5, np.nan], [1.0, 0.5])])
    def test_rejects_non_finite_input(self, h, err):
        with pytest.raises(ValueError, match="finite"):
            fit_rate(h, err)
