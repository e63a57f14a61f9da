"""Lagrange spaces: dof maps, tabulation, interpolation, evaluation."""

import re

import numpy as np
import pytest

import trifem.fespace
from trifem import (DirichletSpec, FeFunction, FormError, Mesh2d,
                    assemble_system, build_dof_map, coef_matrix_from_dofs,
                    coef_matrix_on_edges, coef_to_matrix, dirichlet_dofs,
                    error_H1_semi, error_L2, evaluate_at_points, fe_mesh,
                    fe_space, integrate_fe, interpolate_nodal, square_mesh,
                    tabulate_basis, uniform_refine, var_form)
from trifem.fespace import (Cells, edge_quad_points, lam_gradients,
                            quad_points_2d, shape_dlam, shape_values,
                            trace_dof_map, trace_values)
from trifem.problems import default_spec, solve_poisson
from trifem.quadrature import segment_rule, triangle_rule
from trifem.terms import Term

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

    def test_tags_are_read_as_tabulate_basis_reads_them(self):
        # a bare tag, a 'sym.tag' string and a Term name the same table;
        # bare 'grad' and unknown tags get their own messages
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0] * p[:, 1], th, "P2")
        first, *rest = (coef_matrix_from_dofs(dofs, tag, th, "P2", 3)
                        for tag in ("dy", "w.dy", Term("w", "dy")))
        assert all(np.array_equal(first, other) for other in rest)
        with pytest.raises(ValueError, match="use 'dx' or 'dy'"):
            coef_matrix_from_dofs(dofs, "grad", th, "P2", 3)
        with pytest.raises(ValueError, match="unknown derivative tag 'dz'"):
            coef_matrix_from_dofs(dofs, "dz", th, "P2", 3)

    def test_a_sum_of_terms_is_rejected_not_cut_to_its_first_term(self):
        # 'u.dx + u.dy' of x + 2y is 3 everywhere; reading the first term
        # alone returned the x derivative, 1
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0] + 2 * p[:, 1], th, "P1")
        with pytest.raises(ValueError, match="sum of 2 terms"):
            coef_matrix_from_dofs(dofs, "u.dx + u.dy", th, "P1", 2)
        with pytest.raises(ValueError, match="sum of 2 terms"):
            tabulate_basis("v.val + v.dx", th, "P1", 2)

    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("tag", ["val", "dx", "dy"])
    def test_one_evaluator_sums_the_local_dofs_in_order(self, space, tag):
        # the reference: dense tables from shape functions and barycentric
        # gradients, summed over the local dofs one after the other
        th = fe_mesh(uniform_refine(square_mesh([0, 1, 0, 1], 0.5)))
        order = 4
        rule = triangle_rule(order)
        if tag == "val":
            dense = np.broadcast_to(shape_values(space, rule.lam)[:, None, :],
                                    (fe_space(space).ndof_local,
                                     th.mesh.num_elems, rule.npoints))
        else:
            glam = lam_gradients(th.mesh, th.topo)[:, :, "xy".index(tag[1])]
            dense = [np.einsum("pk,tk->tp", d, glam)
                     for d in shape_dlam(space, rule.lam)]
        dofs = np.random.default_rng(3).standard_normal(th.dof_map(space).num_dofs)
        local = dofs[th.dof_map(space).elem2dof]
        expected = np.zeros((th.mesh.num_elems, rule.npoints))
        for i, tab in enumerate(dense):
            expected += local[:, i, None] * tab
        assert np.array_equal(coef_matrix_from_dofs(dofs, tag, th, space, order),
                              expected)
        if tag == "val":
            coef = FeFunction(dofs=dofs, space=fe_space(space))
            assert np.array_equal(coef_to_matrix(coef, th, order), expected)


    @pytest.mark.parametrize("tag", ["dx", "dy"])
    def test_p1_derivatives_come_back_as_a_fresh_dense_array(self, tag):
        th = fe_mesh(uniform_refine(square_mesh([0, 1, 0, 1], 0.5)))
        dofs = np.random.default_rng(4).standard_normal(th.dof_map("P1").num_dofs)
        vals = coef_matrix_from_dofs(dofs, tag, th, "P1", 4)
        assert vals.shape == Cells(th, 4).shape and vals.flags.writeable
        assert vals.flags.c_contiguous
        assert np.all(vals == vals[:, :1])  # one value per element


class TestQuadPoints:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_points_match_the_barycentric_sum(self, order):
        mesh = uniform_refine(square_mesh([-1, 2, 0, 1], 0.25))
        rule = triangle_rule(order)
        want = np.einsum("pk,tkd->tpd", rule.lam, mesh.node[mesh.elem])
        got = quad_points_2d(mesh, rule)
        assert got.shape == want.shape == (mesh.num_elems, rule.npoints, 2)
        assert np.abs(got - want).max() <= 1e-15


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

    def test_a_dof_vector_of_the_wrong_length_is_a_form_error(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        dofs = interpolate_nodal(lambda p: p[:, 0], th, "P1")
        with pytest.raises(FormError, match="dof vector"):
            evaluate_at_points(dofs[:-1], th, "P1", [(0.3, 0.4)])


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


class TestPointFunctionShape:
    # every caller that evaluates a point function checks its shape with
    # one message form, naming the component and region where there is one
    @pytest.mark.parametrize("call, name", [
        (lambda th, f: interpolate_nodal(f, th, "P2"), "interpolated function"),
        (lambda th, f: dirichlet_dofs(
            th, assemble_system(th, var_form(1, "v.grad", "u.grad"), ["P1"], 3),
            DirichletSpec((1,), (f,))),
         "boundary function for component 1 on region 1"),
        (lambda th, f: coef_to_matrix(f, th, 3), "point function"),
        (lambda th, f: Cells(th, 3, "1d", th.partition[0]).values(f),
         "point function"),
    ])
    def test_a_wrong_shape_raises_a_named_form_error(self, call, name):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
        with pytest.raises(FormError, match=re.escape(name)
                           + r" returned shape \(\d+, 3\), expected \(\d+,\)"):
            call(th, lambda p: np.ones((len(p), 3)))


class TestLevelCache:
    """Per-level geometry is built once per FeMesh and shared read-only."""

    def test_a_poisson_level_builds_points_and_gradients_once(self, monkeypatch):
        calls = {"quad_points_2d": [], "lam_gradients": []}
        for name, log in calls.items():
            original = getattr(trifem.fespace, name)

            def counted(mesh, arg, original=original, log=log):
                log.append(mesh)
                return original(mesh, arg)
            monkeypatch.setattr(trifem.fespace, name, counted)
        spec = default_spec("poisson", degree=2, refinements=1)
        th = fe_mesh(uniform_refine(square_mesh(spec.bbox, spec.h0)), spec.selectors)
        uh = solve_poisson(th, spec)
        error_L2(th, spec.space, spec.order, spec.data.exact, uh)
        error_H1_semi(th, spec.space, spec.order, spec.data.exact_grad, uh)
        # one quadrature order serves the whole level
        assert calls == {"quad_points_2d": [th.mesh], "lam_gradients": [th.mesh]}

    @pytest.mark.parametrize("space", SPACES)
    def test_cached_arrays_are_read_only(self, space):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
        pts = Cells(th, 3).points()
        edge_pts = Cells(th, 3, "1d", th.partition[0]).points()
        tables = [t for tag in ("val", "dx", "dy")
                  for t in tabulate_basis(tag, th, space, 3)]
        for arr in [pts, edge_pts] + tables:
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1.0
        cached = [v for v in th._cache.values() if isinstance(v, np.ndarray)]
        assert len(cached) >= 5 and not any(v.flags.writeable for v in cached)

    def test_repeated_calls_share_one_copy(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        assert Cells(th, 4).points() is Cells(th, 4).points()
        assert Cells(th, 4).points() is not Cells(th, 5).points()
        first, again = (tabulate_basis("dx", th, "P2", 4) for _ in range(2))
        assert all(np.shares_memory(a, b) for a, b in zip(first, again))

    def test_p1_derivatives_hold_one_value_per_element(self):
        # axis-aligned edges give zero gradient components: 0.0, as a
        # sum over the barycentric partials gives, never -0.0
        th = fe_mesh(uniform_refine(square_mesh([0, 1, 0, 1], 0.5)))
        for tag in ("dx", "dy"):
            for tab in tabulate_basis(tag, th, "P1", 4):
                assert tab.shape == (th.mesh.num_elems, triangle_rule(4).npoints)
                assert tab.strides[1] == 0
                assert np.any(tab == 0) and not np.any(np.signbit(tab[tab == 0]))

    def test_two_fe_meshes_of_one_mesh_share_no_entry(self):
        mesh = uniform_refine(square_mesh([0, 1, 0, 1], 0.5))
        ths = [fe_mesh(mesh, ["x==0"]) for _ in range(2)]
        for th in ths:
            for space in SPACES:
                tabulate_basis("dx", th, space, 3)
                th.dof_map(space)
            Cells(th, 3).points()
            Cells(th, 3, "1d", th.partition[0]).points()
        a, b = (th._cache for th in ths)
        assert a is not b and a.keys() == b.keys()
        for key in a:
            assert a[key] is not b[key]
            if isinstance(a[key], np.ndarray):
                assert not np.shares_memory(a[key], b[key])
