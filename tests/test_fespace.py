"""Lagrange spaces: dof maps, tabulation, interpolation, evaluation."""

import numpy as np
import pytest

from trifem import (Mesh2d, build_dof_map, coef_matrix_from_dofs,
                    coef_matrix_on_edges, evaluate_at_points, fe_mesh,
                    fe_space, integrate_fe, interpolate_nodal, square_mesh,
                    tabulate_basis)
from trifem.fespace import (edge_quad_points, quad_points_2d, shape_values,
                            trace_dof_map, trace_values)
from trifem.quadrature import segment_rule, triangle_rule

SPACES = ["P1", "P2", "P3"]


def unit_triangle_th():
    mesh = Mesh2d(node=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  elem=np.array([[0, 1, 2]]))
    return fe_mesh(mesh)


def local_dof_barycentric(space):
    """Barycentric coordinates of the local dof points, canonical order."""
    v = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    if space == "P1":
        pts = v
    elif space == "P2":
        pts = v + [(0, 0.5, 0.5), (0.5, 0, 0.5), (0.5, 0.5, 0)]
    else:
        t, u = 2 / 3, 1 / 3
        pts = v + [(0, t, u), (0, u, t), (u, 0, t), (t, 0, u),
                   (t, u, 0), (u, t, 0), (1 / 3, 1 / 3, 1 / 3)]
    return np.array(pts, dtype=float)


class TestDofMap:
    @pytest.mark.parametrize("space,expected", [("P1", 9), ("P2", 25), ("P3", 49)])
    def test_counts_on_h_half_square(self, space, expected):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dm = build_dof_map(th.mesh, th.topo, fe_space(space))
        assert dm.num_dofs == expected
        assert dm.dof_point.shape == (expected, 2)

    @pytest.mark.parametrize("space", SPACES)
    def test_shared_dofs_consistent(self, space):
        # a dof index appearing in two elements refers to the same point
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dm = th.dof_map(space)
        lam = local_dof_barycentric(space)
        z = th.mesh.node[th.mesh.elem]          # (NT, 3, 2)
        local_pts = np.einsum("lk,tkd->tld", lam, z)
        for t in range(len(th.mesh.elem)):
            for l, gd in enumerate(dm.elem2dof[t]):
                assert np.allclose(local_pts[t, l], dm.dof_point[gd], atol=1e-14)

    @pytest.mark.parametrize("space", SPACES)
    def test_kronecker_on_reference(self, space):
        lam = local_dof_barycentric(space)
        vals = shape_values(space, lam)
        nl = fe_space(space).ndof_local
        assert np.allclose(vals, np.eye(nl), atol=1e-13, rtol=0)


class TestTabulate:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("order", [2, 4, 7])
    def test_partition_of_unity(self, space, order):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        tabs = tabulate_basis("val", th, space, order)
        total = sum(np.asarray(t) for t in tabs)
        assert np.allclose(total, 1.0, atol=1e-13, rtol=0)

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("tag", ["dx", "dy"])
    def test_gradient_sum_vanishes(self, space, tag):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        tabs = tabulate_basis(tag, th, space, 4)
        total = sum(np.asarray(t) for t in tabs)
        assert np.allclose(total, 0.0, atol=1e-13, rtol=0)

    def test_p1_val_is_barycentric(self):
        th = unit_triangle_th()
        rule = triangle_rule(3)
        tabs = tabulate_basis("val", th, "P1", 3)
        for i in range(3):
            assert np.allclose(tabs[i][0], rule.lam[:, i], atol=1e-14)

    def test_p1_dx_constants(self):
        th = unit_triangle_th()
        tabs = tabulate_basis("dx", th, "P1", 2)
        assert np.allclose(tabs[0], -1.0, atol=1e-14)
        assert np.allclose(tabs[1], 1.0, atol=1e-14)
        assert np.allclose(tabs[2], 0.0, atol=1e-14)

    def test_p2_values_at_edge_midpoints(self):
        mids = np.array([[0, 0.5, 0.5], [0.5, 0, 0.5], [0.5, 0.5, 0]])
        vals = shape_values("P2", mids)
        assert np.allclose(vals[:3], 0.0, atol=1e-14)    # vertex functions vanish
        assert np.allclose(vals[3:], np.eye(3), atol=1e-14)

    def test_grad_returns_pair(self):
        th = unit_triangle_th()
        dxs, dys = tabulate_basis("grad", th, "P1", 2)
        assert np.allclose(dxs[0], -1.0) and np.allclose(dys[0], -1.0)

    def test_unknown_tag(self):
        th = unit_triangle_th()
        with pytest.raises(ValueError):
            tabulate_basis("dxx", th, "P1", 2)


class TestInterpolation:
    def test_constant(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        for space in SPACES:
            dofs = interpolate_nodal(lambda p: np.ones(len(p)), th, space)
            assert np.allclose(dofs, 1.0, atol=0)

    def test_linear_values_p1(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0] + 2 * p[:, 1], th, "P1")
        expected = th.mesh.node[:, 0] + 2 * th.mesh.node[:, 1]
        assert np.allclose(dofs, expected, atol=0)

    @pytest.mark.parametrize("space,poly", [
        ("P1", lambda x, y: 2 - x + 3 * y),
        ("P2", lambda x, y: 1 + x * y - y**2 + x),
        ("P3", lambda x, y: x**3 - 2 * x * y**2 + y + 0.5),
    ])
    def test_exactness_at_random_points(self, space, poly):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        dofs = interpolate_nodal(lambda p: poly(p[:, 0], p[:, 1]), th, space)
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        vals = evaluate_at_points(dofs, th, space, pts)
        assert np.allclose(vals, poly(pts[:, 0], pts[:, 1]), atol=1e-11, rtol=0)


class TestCoefMatrixFromDofs:
    def test_constant_val(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: np.full(len(p), 5.0), th, "P2")
        cc = coef_matrix_from_dofs(dofs, "u1.val", th, "P2", 4)
        assert np.allclose(cc, 5.0, atol=1e-13)

    def test_linear_dx(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0], th, "P1")
        cc = coef_matrix_from_dofs(dofs, "u.dx", th, "P1", 3)
        assert np.allclose(cc, 1.0, atol=1e-13)

    @pytest.mark.parametrize("space", SPACES)
    def test_random_dofs_against_point_evaluation(self, space):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        rng = np.random.default_rng(7)
        dofs = rng.standard_normal(th.dof_map(space).num_dofs)
        order = 3
        cc = coef_matrix_from_dofs(dofs, "val", th, space, order)
        pts = quad_points_2d(th.mesh, triangle_rule(order))
        oracle = evaluate_at_points(dofs, th, space, pts.reshape(-1, 2))
        assert np.allclose(cc.ravel(), oracle, atol=1e-13, rtol=0)

    def test_length_mismatch(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        with pytest.raises(ValueError):
            coef_matrix_from_dofs(np.ones(5), "val", th, "P1", 2)


class TestCoefMatrixOnEdges:
    def test_constant_vector_bottom_side(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["y==0"])
        cc = coef_matrix_on_edges(lambda p: np.column_stack([0 * p[:, 0], np.ones(len(p))]),
                                  th, th.partition[0], 4)
        assert np.allclose(cc, -1.0, atol=1e-14)  # outward normal (0, -1)

    def test_scalar_constant(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["y==0"])
        cc = coef_matrix_on_edges(lambda p: np.full(len(p), 3.0),
                                  th, th.partition[0], 4)
        assert np.allclose(cc, 3.0, atol=0)

    def test_position_vector_right_side(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==1"])
        cc = coef_matrix_on_edges(lambda p: p, th, th.partition[0], 4)
        assert np.allclose(cc, 1.0, atol=1e-14)   # (x, y) . (1, 0) on x = 1

    def test_bad_component_count(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==1"])
        with pytest.raises(ValueError):
            coef_matrix_on_edges(lambda p: np.ones((len(p), 3)), th,
                                 th.partition[0], 4)

    def test_column_return_is_one_component(self):
        # an (m, 1) return is one value per point, as for 2d coefficients
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==1"])
        flat = coef_matrix_on_edges(lambda p: p[:, 1], th, th.partition[0], 4)
        column = coef_matrix_on_edges(lambda p: p[:, 1:2], th, th.partition[0], 4)
        assert np.array_equal(column, flat)


class TestIntegrate:
    def test_unit_constant(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: np.ones(len(p)), th, "P1")
        assert integrate_fe(dofs, th, "P1", 3) == pytest.approx(1.0, abs=1e-14)

    def test_linear(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0], th, "P1")
        assert integrate_fe(dofs, th, "P1", 3) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_p2(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0] ** 2, th, "P2")
        assert integrate_fe(dofs, th, "P2", 4) == pytest.approx(1 / 3, abs=1e-14)


class TestEvaluateAtPoints:
    def test_dof_points_reproduce_dofs(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        for space in SPACES:
            rng = np.random.default_rng(3)
            dofs = rng.standard_normal(th.dof_map(space).num_dofs)
            vals = evaluate_at_points(dofs, th, space, th.dof_map(space).dof_point)
            assert np.allclose(vals, dofs, atol=1e-12, rtol=0)

    def test_linear_reproduction(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0] + p[:, 1], th, "P1")
        val = evaluate_at_points(dofs, th, "P1", [(0.3, 0.4)])
        assert val[0] == pytest.approx(0.7, abs=1e-13)

    def test_outside_is_nan(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = np.ones(9)
        val = evaluate_at_points(dofs, th, "P1", [(10.0, 10.0)])
        assert np.isnan(val[0])


class TestTraceConsistency:
    @pytest.mark.parametrize("space", SPACES)
    def test_trace_matches_point_evaluation(self, space):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==1"])
        region = th.partition[0]
        rng = np.random.default_rng(11)
        dofs = rng.standard_normal(th.dof_map(space).num_dofs)
        order = 4
        tabs = tabulate_basis("val", th, space, order, domain="1d", region=region)
        tdm = trace_dof_map(th, space, region)
        trace_vals = sum(dofs[tdm[:, i], None] * np.asarray(tabs[i])
                         for i in range(len(tabs)))
        pts = edge_quad_points(th, region, segment_rule(order))
        oracle = evaluate_at_points(dofs, th, space, pts.reshape(-1, 2))
        assert np.allclose(trace_vals.ravel(), oracle, atol=1e-12, rtol=0)

    def test_trace_rejects_derivatives(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==1"])
        with pytest.raises(ValueError):
            tabulate_basis("dx", th, "P1", 3, domain="1d", region=th.partition[0])

    @pytest.mark.parametrize("space", SPACES)
    def test_trace_partition_of_unity(self, space):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["y==0"])
        vals = trace_values(space, segment_rule(5).point)
        assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-13)


class TestConformity:
    @pytest.mark.parametrize("space", SPACES)
    def test_continuous_across_interior_edges(self, space):
        # a random-dof FE function must agree when evaluated from either
        # triangle of every interior edge (exercises the edge-dof
        # orientation handling)
        from trifem.fespace import shape_values
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dm = th.dof_map(space)
        rng = np.random.default_rng(17)
        dofs = rng.standard_normal(dm.num_dofs)

        elem, e2e, edge = th.mesh.elem, th.topo.elem2edge, th.topo.edge
        interior = np.setdiff1d(np.arange(th.topo.num_edges), th.topo.bd_edge_idx)
        ts = np.linspace(0.05, 0.95, 7)
        for k in interior:
            owners = np.nonzero((e2e == k).any(axis=1))[0]
            assert len(owners) == 2
            a, b = edge[k]
            vals = []
            for t in owners:
                # barycentric coords of the edge points inside triangle t
                lam = np.zeros((len(ts), 3))
                la = np.nonzero(elem[t] == a)[0][0]
                lb = np.nonzero(elem[t] == b)[0][0]
                lam[:, la] = 1.0 - ts
                lam[:, lb] = ts
                sv = shape_values(space, lam)           # (nl, npts)
                local = dofs[dm.elem2dof[t]]
                vals.append(local @ sv)
            assert np.allclose(vals[0], vals[1], atol=1e-12, rtol=0)
