"""Assembly kernels: local matrix oracles, sparse index handling,
random-dof equivalence with direct quadrature, block offsets."""

import numpy as np
import pytest
import scipy.sparse as sp

from trifem import (Mesh2d, SparseTriples, VarForm, assemble_scalar_1d,
                    assemble_scalar_2d, assemble_system, coef_matrix_from_dofs,
                    coef_matrix_on_edges, coef_to_matrix, compress, fe_mesh,
                    interpolate_nodal, load_operator, square_mesh,
                    system_from_blocks, tabulate_basis, uniform_refine,
                    var_form)
from trifem.fespace import Cells, lam_gradients, shape_dlam, shape_values
from trifem.problems import (_convection_form, _taylor_hood, default_spec,
                             stokes_form)
from trifem.quadrature import triangle_rule
from trifem.vform import FormError
from oracles import direct_bilinear_2d, direct_boundary_mass

# frozen local-matrix oracles (verified by exact symbolic integration of
# barycentric products before the build)
P1_STIFFNESS_UNIT = 0.5 * np.array([[2.0, -1.0, -1.0],
                                    [-1.0, 1.0, 0.0],
                                    [-1.0, 0.0, 1.0]])
P1_MASS_PATTERN = np.array([[2.0, 1.0, 1.0],
                            [1.0, 2.0, 1.0],
                            [1.0, 1.0, 2.0]]) / 12.0
EDGE_MASS_PATTERN = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0


def unit_triangle_th():
    mesh = Mesh2d(node=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  elem=np.array([[0, 1, 2]]))
    return fe_mesh(mesh)


def scaled_triangle_th(scale):
    mesh = Mesh2d(node=scale * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  elem=np.array([[0, 1, 2]]))
    return fe_mesh(mesh)


class TestLocalOracles:
    def test_p1_stiffness_unit_triangle(self):
        th = unit_triangle_th()
        form = var_form(1, "v.grad", "u.grad")
        K = assemble_scalar_2d(th, form, "P1", "P1", 2).toarray()
        assert np.allclose(K, P1_STIFFNESS_UNIT, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_p1_mass(self, scale):
        th = scaled_triangle_th(scale)
        area = 0.5 * scale**2
        form = var_form(1, "v.val", "u.val")
        M = assemble_scalar_2d(th, form, "P1", "P1", 3).toarray()
        assert np.allclose(M, area * P1_MASS_PATTERN, atol=1e-12, rtol=0)

    def test_load_vector_sums_to_area(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        ff = assemble_scalar_2d(th, var_form(1, "v.val"), "P1", None, 3)
        assert ff.sum() == pytest.approx(1.0, abs=1e-14)

    def test_edge_mass_single_edge(self):
        # bottom edge of the unit triangle has length 1
        th = fe_mesh(unit_triangle_th().mesh, ["y==0"])
        form = var_form(1, "v.val", "u.val")
        K = assemble_scalar_1d(th, th.partition[0], form,
                               "P1", "P1", 3).toarray()
        assert np.allclose(K[:2, :2], EDGE_MASS_PATTERN, atol=1e-12, rtol=0)
        assert np.allclose(K[2], 0.0) and np.allclose(K[:, 2], 0.0)

    def test_boundary_load_sums_to_side_length(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["y==0"])
        ff = assemble_scalar_1d(th, th.partition[0], var_form(1, "v.val"),
                                "P1", None, 3)
        assert ff.sum() == pytest.approx(1.0, abs=1e-14)

    def test_normal_contracted_boundary_load(self):
        from trifem import coef_matrix_on_edges
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["y==0"])
        cc = coef_matrix_on_edges(
            lambda p: np.column_stack([np.zeros(len(p)), np.ones(len(p))]),
            th, th.partition[0], 3)
        ff = assemble_scalar_1d(th, th.partition[0], var_form(cc, "v.val"),
                                "P1", None, 3)
        assert ff.sum() == pytest.approx(-1.0, abs=1e-14)


class TestCompress:
    def test_duplicates_sum(self):
        t = SparseTriples(ii=np.array([0, 0]), jj=np.array([0, 0]),
                          ss=np.array([1.0, 2.0]), nrows=2, ncols=2)
        M = compress(t)
        assert M[0, 0] == 3.0
        assert M.nnz == 1

    def test_out_of_range_rejected(self):
        t = SparseTriples(ii=np.array([5]), jj=np.array([0]),
                          ss=np.array([1.0]), nrows=2, ncols=2)
        with pytest.raises(ValueError, match="out of range"):
            compress(t)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="ii, jj, ss must have equal lengths"):
            SparseTriples(ii=np.array([0, 1]), jj=np.array([0]),
                          ss=np.array([1.0, 2.0]), nrows=2, ncols=2)

    def test_sum_starts_from_zero(self):
        a = compress(SparseTriples(ii=np.array([0]), jj=np.array([0]),
                                   ss=np.array([1.0]), nrows=1, ncols=1))
        assert sum([a])[0, 0] == 1.0


class TestInvariants:
    def test_laplacian_annihilates_constants(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        for space in ["P1", "P2", "P3"]:
            A = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                                   space, space, 6)
            ones = np.ones(A.shape[1])
            assert np.abs(A @ ones).max() <= 1e-12

    def test_mass_total_is_domain_area(self):
        th = fe_mesh(square_mesh([0, 2, 0, 1], 0.5))
        for space in ["P1", "P2"]:
            M = assemble_scalar_2d(th, var_form(1, "v.val", "u.val"),
                                   space, space, 5)
            ones = np.ones(M.shape[1])
            assert ones @ (M @ ones) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_form_gives_symmetric_matrix(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        A = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                               "P2", "P2", 4)
        diff = (A - A.T)
        denom = np.sqrt((A.multiply(A)).sum())
        assert np.sqrt((diff.multiply(diff)).sum()) <= 1e-13 * denom

    def test_determinism(self):
        th1 = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        th2 = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        form = var_form([lambda p: 1 + p[:, 0], 1],
                        ["v.grad", "v.val"], ["u.grad", "u.val"])
        A1 = assemble_scalar_2d(th1, form, "P2", "P2", 4)
        A2 = assemble_scalar_2d(th2, form, "P2", "P2", 4)
        assert np.array_equal(A1.data, A2.data)
        assert np.array_equal(A1.indices, A2.indices)
        assert np.array_equal(A1.indptr, A2.indptr)


KERNELS = {
    "mass": (var_form(1, "v.val", "u.val"), lambda v, gv, u, gu: v * u),
    "stiffness": (var_form(1, "v.grad", "u.grad"), lambda v, gv, u, gu: gv @ gu),
    "mixed": (var_form(1, "v.dx", "u.val"), lambda v, gv, u, gu: gv[0] * u),
}


class TestRandomDofOracle:
    @pytest.mark.parametrize("space", ["P1", "P2"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_bilinear_against_direct_quadrature(self, space, kernel):
        # mesh with 32 elements
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        form, pointwise = KERNELS[kernel]
        A = assemble_scalar_2d(th, form, space, space, 6)
        n = th.dof_map(space).num_dofs
        rng = np.random.default_rng(2024)
        for _ in range(20):
            dv = rng.standard_normal(n)
            du = rng.standard_normal(n)
            got = dv @ (A @ du)
            want = direct_bilinear_2d(th, space, dv, du, pointwise)
            assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("space", ["P1", "P2"])
    def test_boundary_mass_against_direct_quadrature(self, space):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==1"])
        region = th.partition[0]
        form = var_form(1, "v.val", "u.val")
        A = assemble_scalar_1d(th, region, form, space, space, 6)
        n = th.dof_map(space).num_dofs
        rng = np.random.default_rng(99)
        for _ in range(20):
            dv = rng.standard_normal(n)
            du = rng.standard_normal(n)
            got = dv @ (A @ du)
            want = direct_boundary_mass(th, space, region, dv, du)
            assert got == pytest.approx(want, rel=1e-11)

    def test_variable_coefficient(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        form = var_form(lambda p: 1 + p[:, 0] * p[:, 1], "v.grad", "u.grad")
        A = assemble_scalar_2d(th, form, "P2", "P2", 6)
        n = th.dof_map("P2").num_dofs
        rng = np.random.default_rng(5)
        dv, du = rng.standard_normal(n), rng.standard_normal(n)
        want = direct_bilinear_2d(th, "P2", dv, du,
                                  lambda v, gv, u, gu: gv @ gu,
                                  coef=lambda x, y: 1 + x * y)
        assert dv @ (A @ du) == pytest.approx(want, rel=1e-11)


class TestSystemAssembly:
    def test_single_component_equals_scalar(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        form = var_form([1, 1], ["v.grad", "v.val"], ["u.grad", "u.val"])
        A = assemble_scalar_2d(th, form, "P2", "P2", 4)
        sys2 = assemble_system(th, form, ["P2"], 4)
        assert (A != sys2.matrix()).nnz == 0

    def test_block_offsets_match_manual_concatenation(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        # biharmonic-style 2x2 block form on P1/P1
        form = var_form([-1, 1, 1],
                        ["v1.val", "v1.grad", "v2.grad"],
                        ["u1.val", "u2.grad", "u1.grad"])
        sys2 = assemble_system(th, form, ["P1", "P1"], 4)
        K = sys2.matrix().toarray()

        n = th.dof_map("P1").num_dofs
        M = assemble_scalar_2d(th, var_form(1, "v.val", "u.val"),
                               "P1", "P1", 4).toarray()
        S = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                               "P1", "P1", 4).toarray()
        manual = np.block([[-M, S], [S, np.zeros((n, n))]])
        assert np.allclose(K, manual, atol=1e-14, rtol=0)
        assert sys2.nndofu == (n, n)

    def test_stokes_form_size(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        eps = 1e-10
        form = var_form(
            [1, 1, -1, -1, -1, -1, -eps],
            ["v1.grad", "v2.grad", "v1.dx", "v2.dy", "v3.val", "v3.val", "v3.val"],
            ["u1.grad", "u2.grad", "u3.val", "u3.val", "u1.dx", "u2.dy", "u3.val"])
        sys3 = assemble_system(th, form, ["P2", "P2", "P1"], 5)
        n2 = th.dof_map("P2").num_dofs
        n1 = th.dof_map("P1").num_dofs
        assert sys3.matrix().shape == (2 * n2 + n1, 2 * n2 + n1)

    def test_one_system_call_expands_the_form_once(self, monkeypatch):
        import trifem.assembly
        calls = []
        real = trifem.assembly.expand_extended

        def counting(form):
            calls.append(1)
            return real(form)

        monkeypatch.setattr(trifem.assembly, "expand_extended", counting)
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        assemble_system(th, var_form([-1, 1, 1],
                                     ["v1.val", "v1.grad", "v2.grad"],
                                     ["u1.val", "u2.grad", "u1.grad"]),
                        ["P1", "P1"], 3)
        assert len(calls) == 1

    def test_vector_linear_shorthand(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))

        def f(p):
            return np.column_stack([p[:, 0], 2.0 - p[:, 1]])

        short = assemble_system(th, var_form(f, "v.val"), ["P1", "P1"], 3)
        explicit = assemble_system(
            th, var_form([lambda p: p[:, 0], lambda p: 2.0 - p[:, 1]],
                         ["v1.val", "v2.val"]), ["P1", "P1"], 3)
        assert np.allclose(short, explicit, atol=1e-15, rtol=0)

    @pytest.mark.parametrize("space", ["P1", "P2", "P3"])
    def test_linear_entries_on_one_component_sum_in_one_load(self, space):
        # both entries run in one kernel call and one bincount: the sum of
        # the one-entry loads to rounding, and the direct quadrature
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        f = lambda p: 1 + p[:, 0] * p[:, 1]
        g = lambda p: np.sin(p[:, 1])
        both = assemble_system(th, var_form([f, g], ["v.val", "v.dx"]), [space], 6)
        parts = (assemble_system(th, var_form(f, "v.val"), [space], 6)
                 + assemble_system(th, var_form(g, "v.dx"), [space], 6))
        assert np.abs(both - parts).max() <= 1e-14 * np.abs(parts).max()

        dv = np.random.default_rng(11).standard_normal(len(both))
        want = (direct_bilinear_2d(th, space, dv, dv, lambda v, gv, u, gu: v,
                                   coef=lambda x, y: 1 + x * y, order=6)
                + direct_bilinear_2d(th, space, dv, dv, lambda v, gv, u, gu: gv[0],
                                     coef=lambda x, y: np.sin(y), order=6))
        assert dv @ both == pytest.approx(want, rel=1e-11)

    def test_linear_components_concatenate_in_component_order(self):
        # entries given out of component order; a component without
        # entries reads zero
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        f = lambda p: 1 + p[:, 0]
        spaces = ["P2", "P1", "P3"]
        got = assemble_system(th, var_form([f, 2.0, f], ["v3.dy", "v1.val", "v3.val"]),
                              spaces, 5)
        n1, n2 = (th.dof_map(s).num_dofs for s in spaces[:2])
        one = assemble_system(th, var_form(2.0, "v.val"), ["P2"], 5)
        three = assemble_system(th, var_form([f, f], ["v.dy", "v.val"]), ["P3"], 5)
        assert np.array_equal(got, np.concatenate([one, np.zeros(n2), three]))
        assert n1 == len(one)

    @pytest.mark.parametrize("test, trial, message", [
        ("v.val", "u1.val", "bare symbol 'v' is ambiguous in a 2-component system"),
        ("w.val", "u1.val", "symbol 'w' is not standardized"),
        ("v1.val", "u3.val", "component of 'u3' exceeds the 2 available spaces")])
    def test_a_symbol_without_its_component_is_named(self, test, trial, message):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        with pytest.raises(FormError, match=message):
            assemble_system(th, var_form(1, test, trial), ["P1", "P1"], 3)

    @pytest.mark.parametrize("coef, test, message", [
        (lambda p: p, "v.dx", "vector shorthand requires Test = 'v.val'"),
        (2.0, "v.val", "must be a function or a sequence"),
        ([1.0, 2.0, 3.0], "v.val", "got 3 coefficient components for 2 test")])
    def test_a_bad_vector_shorthand_is_named(self, coef, test, message):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        with pytest.raises(FormError, match=message):
            assemble_system(th, var_form(coef, test), ["P1", "P1"], 3)

    def test_vector_shorthand_wrong_components(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        with pytest.raises(FormError):
            assemble_system(th, var_form(lambda p: p, "v.val"),
                            ["P2", "P2", "P1"], 4)

    def test_empty_region_zero_contribution(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==42"])
        region = th.partition[0]
        assert len(region.edge_idx) == 0
        ff = assemble_scalar_1d(th, region, var_form(1, "v.val"), "P1", None, 3)
        assert np.all(ff == 0.0)
        K = assemble_scalar_1d(th, region, var_form(1, "v.val", "u.val"),
                               "P1", "P1", 3)
        assert K.nnz == 0

    def test_mixed_test_trial_spaces(self):
        # rectangular block: P2 test against P1 trial
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        B = assemble_scalar_2d(th, var_form(1, "v.dx", "u.val"),
                               "P2", "P1", 4)
        n2 = th.dof_map("P2").num_dofs
        n1 = th.dof_map("P1").num_dofs
        assert B.shape == (n2, n1)
        # u = all-ones dofs is the constant 1, so B @ 1 = linear form of v.dx
        lin = assemble_scalar_2d(th, var_form(1, "v.dx"), "P2", None, 4)
        assert np.allclose(B @ np.ones(n1), lin, atol=1e-14, rtol=0)

    def test_boundary_system_accumulates_with_domain(self):
        # kk = int2d + int1d pattern for a scalar Robin problem
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
        kk2 = assemble_system(th, var_form(1, "v.grad", "u.grad"), ["P1"], 3)
        kk1 = assemble_system(th, var_form(1, "v.val", "u.val"), ["P1"], 3,
                              region=th.partition[0])
        kk = kk2 + kk1
        A2 = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                                "P1", "P1", 3)
        A1 = assemble_scalar_1d(th, th.partition[0],
                                var_form(1, "v.val", "u.val"),
                                "P1", "P1", 3)
        assert np.allclose(kk.matrix().toarray(), (A2 + A1).toarray(),
                           atol=1e-15, rtol=0)



# the two callers whose names promise edges: without a region they
# would integrate over every triangle
EDGE_CALLERS = {
    "assemble_scalar_1d": lambda th: assemble_scalar_1d(
        th, None, var_form(1, "v.val"), "P1"),
    "coef_matrix_on_edges": lambda th: coef_matrix_on_edges(
        lambda p: p[:, 0], th, None, 3),
}


@pytest.mark.parametrize("assemble", [assemble_scalar_2d, assemble_system])
def test_a_form_that_is_no_var_form_is_a_type_error(assemble):
    th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
    with pytest.raises(TypeError, match="expected a VarForm, got str"):
        assemble(th, "v.grad", ["P1"] if assemble is assemble_system else "P1")


@pytest.mark.parametrize("caller", EDGE_CALLERS)
def test_an_edge_integral_without_a_region_is_a_value_error(caller):
    th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
    with pytest.raises(ValueError, match="needs a boundary region"):
        EDGE_CALLERS[caller](th)


def refine3_th():
    mesh = square_mesh([0, 1, 0, 1], 0.5)
    for _ in range(3):
        mesh = uniform_refine(mesh)
    return fe_mesh(mesh)


class TestCompactTables:
    """tabulate_basis hands the kernel broadcast tables as zero-stride
    views, with the values of a dense stack of one table per (cell,
    point), and the cached derivative arrays without a copy."""

    def test_val_tables_are_one_block_broadcast_over_the_cells(self):
        th = refine3_th()
        tables = tabulate_basis("val", th, "P1", 3)
        rule = triangle_rule(3)
        dense = np.stack([np.tile(row, (th.mesh.num_elems, 1))
                          for row in shape_values("P1", rule.lam)])
        assert tables.shape == dense.shape and tables.strides[1] == 0
        assert np.array_equal(tables, dense)

    @pytest.mark.parametrize("tag", ["dx", "dy"])
    @pytest.mark.parametrize("space", ["P1", "P2"])
    def test_derivative_tables_equal_the_dense_stack(self, space, tag):
        th = refine3_th()
        tables = tabulate_basis(tag, th, space, 3)
        rule = triangle_rule(3)
        glam = lam_gradients(th.mesh)[:, :, "xy".index(tag[1])]
        dense = np.stack([np.einsum("pk,tk->tp", d, glam)
                          for d in shape_dlam(space, rule.lam)])
        assert tables.shape == dense.shape
        assert np.array_equal(tables, dense)
        if space == "P1":       # one value per element, broadcast over points
            assert tables.strides[2] == 0

    @pytest.mark.parametrize("tag", ["dx", "dy"])
    @pytest.mark.parametrize("space", ["P2", "P3"])
    def test_derivative_tables_are_the_cached_array(self, space, tag):
        th = refine3_th()
        tables = tabulate_basis(tag, th, space, 3)
        cached = th._cache[("tables", space, tag, 3)]
        assert tables.shape == cached.shape and np.shares_memory(tables, cached)


def _forms(th):
    """Poisson, Stokes and Navier-Stokes Jacobian forms with their spaces."""
    poisson = default_spec("poisson", degree=2)
    stokes = default_spec("stokes")
    newton = default_spec("ns-newton")
    spaces = _taylor_hood(newton.data)[0]
    u1 = interpolate_nodal(lambda p: np.sin(3 * p[:, 0]) * p[:, 1], th, "P2")
    u2 = interpolate_nodal(lambda p: p[:, 0] ** 2 - p[:, 1], th, "P2")
    coefs = tuple(coef_matrix_from_dofs(d, tag, th, space, newton.order)
                  for d, tag, space in ((u1, "dx", "P2"), (u1, "dy", "P2"),
                                        (u2, "dx", "P2"), (u2, "dy", "P2"),
                                        (u1, "val", "P2"), (u2, "val", "P2")))
    data = poisson.data
    return [
        (var_form([data.a, data.c], ["v.grad", "v.val"], ["u.grad", "u.val"]),
         ["P2"], poisson.order),
        (var_form(1, "v.grad", "u.grad"), ["P1"], 3),
        (stokes_form(stokes), spaces, stokes.order),
        (VarForm(entries=_convection_form(coefs).entries + stokes_form(newton).entries),
         spaces, newton.order),
    ]


def test_a_warm_level_cache_assembles_the_same_bits():
    th = refine3_th()
    for _ in range(2):          # the second pass reads every cached table
        warm = [assemble_system(th, *args).matrix() for args in _forms(th)]
    fresh = []
    for k in range(len(warm)):
        th = refine3_th()
        fresh.append(assemble_system(th, *_forms(th)[k]).matrix())
    for a, b in zip(warm, fresh):
        for attr in ("data", "indices", "indptr"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()


def test_planned_contraction_paths_assemble_the_same_bits(monkeypatch):
    import trifem.assembly

    th = refine3_th()
    forms = _forms(th) + [(var_form(1, f"v.{tag}", f"u.{tag}"), [space], 4)
                          for space in ("P1", "P2", "P3") for tag in ("val", "grad")]
    monkeypatch.setattr(trifem.assembly, "_PATHS", {})
    planned = [assemble_system(th, *args).matrix() for args in forms]
    paths = dict(trifem.assembly._PATHS)
    again = [assemble_system(th, *args).matrix() for args in forms]
    assert trifem.assembly._PATHS == paths          # each plan made once
    monkeypatch.setattr(trifem.assembly, "_path",
                        lambda subscripts, shapes: np.einsum_path(
                            subscripts, *(np.zeros(s) for s in shapes),
                            optimize=True)[0])
    replanned = [assemble_system(th, *args).matrix() for args in forms]
    for a, b, c in zip(planned, again, replanned):
        for attr in ("data", "indices", "indptr"):
            assert getattr(a, attr).tobytes() == getattr(b, attr).tobytes()
            assert getattr(a, attr).tobytes() == getattr(c, attr).tobytes()


def _dense_reference(th, coef, tags, spaces, order, region=None):
    """The assembled matrix (two tags) or load (one tag), dense, from one
    plain einsum over contiguous (nl, NC, ng) tables, scattered with
    np.add.at: no axis is squeezed."""
    cells = Cells(th, order, region)
    cc = np.ascontiguousarray(coef_to_matrix(coef, th, order, region))
    tables = [np.ascontiguousarray(tabulate_basis(tag, th, space, order, region))
              for tag, space in zip(tags, spaces)]
    subscripts = ("p,ep,iep->ei", "p,ep,iep,jep->eij")[len(tags) - 1]
    local = np.einsum(subscripts, cells.rule.weight, cc, *tables) \
        * cells.measure.reshape((-1,) + (1,) * len(tags))
    dofs = [cells.dofs(space) for space in spaces]
    out = np.zeros([th.dof_map(space).num_dofs for space in spaces])
    if len(tags) == 1:
        np.add.at(out, dofs[0], local)
    else:
        np.add.at(out, (dofs[0][:, :, None], dofs[1][:, None, :]), local)
    return out


def _coefficients(th, order, region=None):
    """A constant, a point function and a ready coefficient matrix."""
    shape = Cells(th, order, region).shape
    return {"constant": 2.5,
            "callable": lambda p: 1 + np.sin(3 * p[:, 0]) * p[:, 1],
            "matrix": np.random.default_rng(5).standard_normal(shape)}


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


TAGS = ("val", "dx", "dy")


class TestSqueezedContraction:
    """The kernel contracts each basis table without its constant axis;
    the result is the contraction over dense tables."""

    @pytest.mark.parametrize("space", ["P1", "P2", "P3"])
    @pytest.mark.parametrize("kind", ["constant", "callable", "matrix"])
    def test_every_table_pair_matches_the_dense_contraction(self, space, kind):
        th = fe_mesh(uniform_refine(uniform_refine(square_mesh([0, 1, 0, 1], 0.5))),
                     ["x==0"])
        order = 4
        coef = _coefficients(th, order)[kind]
        for a in TAGS:
            load = assemble_system(th, var_form(coef, f"v.{a}"), [space], order)
            _assert_close(load, _dense_reference(th, coef, [a], [space], order))
            for b in TAGS:
                got = assemble_system(th, var_form(coef, f"v.{a}", f"u.{b}"),
                                      [space], order).matrix().toarray()
                _assert_close(got, _dense_reference(th, coef, [a, b],
                                                    [space, space], order))
        region = th.partition[0]
        coef = _coefficients(th, order, region)[kind]
        got = assemble_system(th, var_form(coef, "v.val", "u.val"), [space],
                              order, region).matrix().toarray()
        _assert_close(got, _dense_reference(th, coef, ["val", "val"],
                                            [space, space], order, region))
        load = assemble_system(th, var_form(coef, "v.val"), [space], order,
                               region)
        _assert_close(load, _dense_reference(th, coef, ["val"], [space], order,
                                             region))

    def test_mixed_spaces_match_the_dense_contraction(self):
        th = refine3_th()
        coef = _coefficients(th, 4)["callable"]
        for a in TAGS:
            for b in TAGS:
                got = assemble_system(th, var_form(coef, f"v1.{a}", f"u2.{b}"),
                                      ["P2", "P1"], 4).matrix().toarray()
                n2 = th.dof_map("P2").num_dofs
                _assert_close(got[:n2, n2:], _dense_reference(
                    th, coef, [a, b], ["P2", "P1"], 4))

    @pytest.mark.parametrize("stride", [0, 8, 8 * 12345])
    @pytest.mark.parametrize("space", ["P1", "P2", "P3"])
    def test_a_one_triangle_mesh_assembles_whatever_its_cell_stride(
            self, monkeypatch, space, stride):
        import trifem.assembly

        # on one triangle (or one region edge) the cell axis has length
        # 1, so its stride is never used and may be anything, zero too
        def restrided(*args):
            table = tabulate_basis(*args)
            strides = list(table.strides)
            strides[1] = stride
            return np.lib.stride_tricks.as_strided(table, strides=strides,
                                                   writeable=False)
        monkeypatch.setattr(trifem.assembly, "tabulate_basis", restrided)
        th = fe_mesh(unit_triangle_th().mesh, ["y==0"])
        region = th.partition[0]
        assert len(region.edge_idx) == 1
        coef = _coefficients(th, 3)["callable"]
        for a in TAGS:
            load = assemble_system(th, var_form(coef, f"v.{a}"), [space], 3)
            _assert_close(load, _dense_reference(th, coef, [a], [space], 3))
            for b in TAGS:
                got = assemble_system(th, var_form(coef, f"v.{a}", f"u.{b}"),
                                      [space], 3).matrix().toarray()
                _assert_close(got, _dense_reference(th, coef, [a, b],
                                                    [space, space], 3))
        got = assemble_system(th, var_form(coef, "v.val", "u.val"), [space], 3,
                              region).matrix().toarray()
        _assert_close(got, _dense_reference(th, coef, ["val", "val"],
                                            [space, space], 3, region))


class TestTriplesWithoutCopies:
    def test_a_single_block_is_the_compressed_kernel_triples(self, monkeypatch):
        import trifem.assembly

        made = []
        original = trifem.assembly.compress

        def recorded(triples):
            made.append(triples)
            return original(triples)
        monkeypatch.setattr(trifem.assembly, "compress", recorded)
        th = refine3_th()
        matrix = assemble_system(th, var_form([1, 1], ["v.grad", "v.val"],
                                              ["u.grad", "u.val"]),
                                 ["P1"], 3).matrix()
        assert len(made) == 1
        assert matrix.has_canonical_format
        expected = original(made[0])
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(matrix, attr), getattr(expected, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("test, trial", [("P1", "P1"), ("P3", "P3"),
                                             ("P1", "P2")])
    def test_triples_are_int32_and_compress_as_int64_triples(self, monkeypatch,
                                                             test, trial):
        # int64 triples would be copied down to int32 by coo_matrix
        import trifem.assembly

        made = []
        original = trifem.assembly.compress

        def recorded(triples):
            made.append(triples)
            return original(triples)
        monkeypatch.setattr(trifem.assembly, "compress", recorded)
        matrix = assemble_scalar_2d(refine3_th(), var_form([1, 1], ["v.grad", "v.val"],
                                                           ["u.grad", "u.val"]),
                                    test, trial, 5)
        (triples,) = made
        assert triples.ii.dtype == triples.jj.dtype == np.int32
        wide = original(SparseTriples(ii=triples.ii.astype(np.int64),
                                      jj=triples.jj.astype(np.int64),
                                      ss=triples.ss, nrows=triples.nrows,
                                      ncols=triples.ncols))
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(matrix, attr), getattr(wide, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("components", [[(0, 0)], [(0, 0), (1, 1)]])
    def test_blocks_from_the_caller_are_copied(self, components):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        given = assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"), "P1")
        kk = system_from_blocks(th, ["P1", "P1"], {c: given for c in components})
        matrix = kk.matrix()
        for attr in ("data", "indices", "indptr"):
            for source in ("data", "indices", "indptr"):
                assert not np.shares_memory(getattr(matrix, attr),
                                            getattr(given, source))
        before = matrix.toarray()
        given.data[:] = 0.0
        assert np.array_equal(kk.matrix().toarray(), before)

    def test_each_block_is_dropped_before_the_next_is_made(self, monkeypatch):
        import weakref

        import trifem.assembly

        blocks, alive = [], []
        assemble, original = trifem.assembly._scalar_assemble, trifem.assembly.compress

        def made(*args):
            # earlier blocks whose triples are still alive as this one is made
            alive.append(sum(ref() is not None for ref in blocks))
            return assemble(*args)

        def recorded(triples):
            blocks.append(weakref.ref(triples.ii))
            return original(triples)
        monkeypatch.setattr(trifem.assembly, "_scalar_assemble", made)
        monkeypatch.setattr(trifem.assembly, "compress", recorded)
        th = refine3_th()
        spec = default_spec("stokes")
        kk = assemble_system(th, stokes_form(spec), _taylor_hood(spec.data)[0],
                             spec.order)
        assert len(blocks) > 1 and alive == [0] * len(blocks)
        assert all(ref() is None for ref in blocks)
        assert kk.matrix().shape == (kk.num_dofs, kk.num_dofs)

    def test_systems_add_as_their_matrices(self):
        # a domain and a boundary system add as canonical CSR matrices:
        # the compressed concatenation of both blocks' entries, without
        # the entries that sum to exactly zero; 0 + kk is kk, so sum() works
        th = fe_mesh(refine3_th().mesh, ["x==0"])
        region = th.partition[0]
        form = var_form([1, 1], ["v.grad", "v.val"], ["u.grad", "u.val"])
        edge = var_form(2, "v.val", "u.val")
        kk = assemble_system(th, form, ["P2"], 4)
        got = sum([kk, assemble_system(th, edge, ["P2"], 4, region)]).matrix()
        parts = [assemble_scalar_2d(th, form, "P2", quad_order=4).tocoo(),
                 assemble_scalar_1d(th, region, edge, "P2", quad_order=4).tocoo()]
        want = compress(SparseTriples(
            ii=np.concatenate([m.row for m in parts]),
            jj=np.concatenate([m.col for m in parts]),
            ss=np.concatenate([m.data for m in parts]), nrows=kk.num_dofs,
            ncols=kk.num_dofs))
        want.eliminate_zeros()
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()
        assert 0 + kk is kk
        with pytest.raises(ValueError, match="component layouts"):
            kk + assemble_system(th, form, ["P1"], 4)


def _unsorted_block(fmt, n):
    """An (n, n) block whose first row (CSR) or column (CSC) holds index
    2 twice, stored before and after index 1."""
    return fmt((np.array([1.0, 2.0, 4.0]), np.array([2, 1, 2]),
                np.array([0] + [3] * n)), shape=(n, n))


class TestSystemFromBlocks:
    def test_a_csc_block_stacks_as_its_csr_form(self):
        # the biharmonic block program passes B.T, a CSC matrix
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        B = assemble_scalar_2d(th, var_form(1, "v.dx", "u.val"), "P1")
        assert B.T.format == "csc"
        got = system_from_blocks(th, ["P1", "P1"], {(1, 0): B.T}).matrix()
        want = system_from_blocks(th, ["P1", "P1"], {(1, 0): B.T.tocsr()}).matrix()
        assert got.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))

    def test_a_block_with_duplicate_unsorted_entries_gives_a_canonical_system(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        n = th.dof_map("P1").num_dofs
        block = _unsorted_block(sp.csr_matrix, n)
        kk = system_from_blocks(th, ["P1", "P1"], {(0, 1): block, (1, 0): None})
        got = kk.matrix()
        assert got.has_canonical_format and got.nnz == 2
        assert np.array_equal(got.indices[:2], [n + 1, n + 2])
        assert np.array_equal(got.data[:2], [2.0, 5.0])

    @pytest.mark.parametrize("fmt", [sp.csr_matrix, sp.csc_matrix])
    def test_the_callers_block_is_left_unchanged(self, fmt):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        block = _unsorted_block(fmt, th.dof_map("P1").num_dofs)
        arrays = (block.data, block.indices, block.indptr)
        before = [a.tobytes() for a in arrays]
        system_from_blocks(th, ["P1"], {(0, 0): block})
        assert [a.tobytes() for a in arrays] == before
        assert all(a is b for a, b in zip((block.data, block.indices,
                                           block.indptr), arrays))
        assert not block.has_canonical_format

    def test_a_block_of_the_wrong_shape_is_a_value_error(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        B = assemble_scalar_2d(th, var_form(1, "v.dx", "u.val"), "P2", "P1")
        with pytest.raises(ValueError, match=r"block \(0, 1\) has shape"):
            system_from_blocks(th, ["P2", "P2"], {(0, 1): B})

    def test_triples_are_not_a_block(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        triples = SparseTriples(np.array([0]), np.array([0]), np.array([1.0]),
                                th.dof_map("P1").num_dofs,
                                th.dof_map("P1").num_dofs)
        with pytest.raises(TypeError, match="not a scipy sparse matrix"):
            system_from_blocks(th, ["P1"], {(0, 0): triples})
