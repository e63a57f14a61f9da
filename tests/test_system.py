"""Dirichlet elimination, sparse solving, error norms, rate fitting."""

import numpy as np
import pytest
import scipy.sparse as sp

from trifem import (DirichletSolver, DirichletSpec, Mesh2d,
                    apply_dirichlet_and_solve, assemble_system,
                    dirichlet_dofs, error_H1_semi, error_L2, fe_mesh,
                    fit_rate, interpolate_nodal, solve_sparse, square_mesh,
                    uniform_refine, var_form)


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

    def test_region_out_of_range(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        kk, ff = poisson_system(th)
        g = lambda p: np.zeros(len(p))
        with pytest.raises(IndexError):
            apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((3,), (g,)))

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

    def test_wrong_rhs_length_rejected(self):
        with pytest.raises(ValueError, match="rhs"):
            DirichletSolver(sp.identity(3, format="csr"), [0]).solve(np.ones(2), [1.0])


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
