"""Assembly kernels: local matrix oracles, sparse index handling,
random-dof equivalence with direct quadrature, block offsets."""

import numpy as np
import pytest

from trifem import (Mesh2d, SparseTriples, assemble_scalar_1d,
                    assemble_scalar_2d, assemble_system, coef_matrix_from_dofs,
                    coef_to_matrix, compress, fe_mesh, interpolate_nodal,
                    load_operator, square_mesh, tabulate_basis,
                    uniform_refine, var_form)
from trifem.assembly import _kernel_tables
from trifem.fespace import Cells, lam_gradients, shape_dlam, shape_values
from trifem.problems import (_ns_jacobian_form, _taylor_hood, default_spec,
                             stokes_form)
from trifem.quadrature import triangle_rule
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
        K = compress(assemble_scalar_2d(th, form, "P1", "P1", 2)).toarray()
        assert np.allclose(K, P1_STIFFNESS_UNIT, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_p1_mass(self, scale):
        th = scaled_triangle_th(scale)
        area = 0.5 * scale**2
        form = var_form(1, "v.val", "u.val")
        M = compress(assemble_scalar_2d(th, form, "P1", "P1", 3)).toarray()
        assert np.allclose(M, area * P1_MASS_PATTERN, atol=1e-12, rtol=0)

    def test_load_vector_sums_to_area(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        ff = assemble_scalar_2d(th, var_form(1, "v.val"), "P1", None, 3)
        assert ff.sum() == pytest.approx(1.0, abs=1e-14)

    def test_edge_mass_single_edge(self):
        # bottom edge of the unit triangle has length 1
        th = fe_mesh(unit_triangle_th().mesh, ["y==0"])
        form = var_form(1, "v.val", "u.val")
        K = compress(assemble_scalar_1d(th, th.partition[0], form,
                                        "P1", "P1", 3)).toarray()
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

    def test_triples_concatenate(self):
        a = SparseTriples(ii=np.array([0]), jj=np.array([0]),
                          ss=np.array([1.0]), nrows=2, ncols=2)
        b = SparseTriples(ii=np.array([0]), jj=np.array([1]),
                          ss=np.array([2.0]), nrows=2, ncols=2)
        M = compress(a + b)
        assert M[0, 0] == 1.0 and M[0, 1] == 2.0

    def test_sum_starts_from_zero(self):
        a = SparseTriples(ii=np.array([0]), jj=np.array([0]),
                          ss=np.array([1.0]), nrows=1, ncols=1)
        assert sum([a]).ss[0] == 1.0


class TestInvariants:
    def test_laplacian_annihilates_constants(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        for space in ["P1", "P2", "P3"]:
            A = compress(assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                                            space, space, 6))
            ones = np.ones(A.shape[1])
            assert np.abs(A @ ones).max() <= 1e-12

    def test_mass_total_is_domain_area(self):
        th = fe_mesh(square_mesh([0, 2, 0, 1], 0.5))
        for space in ["P1", "P2"]:
            M = compress(assemble_scalar_2d(th, var_form(1, "v.val", "u.val"),
                                            space, space, 5))
            ones = np.ones(M.shape[1])
            assert ones @ (M @ ones) == pytest.approx(2.0, abs=1e-12)

    def test_symmetric_form_gives_symmetric_matrix(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.25))
        A = compress(assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                                        "P2", "P2", 4))
        diff = (A - A.T)
        denom = np.sqrt((A.multiply(A)).sum())
        assert np.sqrt((diff.multiply(diff)).sum()) <= 1e-13 * denom

    def test_determinism(self):
        th1 = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        th2 = fe_mesh(square_mesh([0, 1, 0, 1], 0.25), ["x==0"])
        form = var_form([lambda p: 1 + p[:, 0], 1],
                        ["v.grad", "v.val"], ["u.grad", "u.val"])
        A1 = compress(assemble_scalar_2d(th1, form, "P2", "P2", 4))
        A2 = compress(assemble_scalar_2d(th2, form, "P2", "P2", 4))
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
        A = compress(assemble_scalar_2d(th, form, space, space, 6))
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
        A = compress(assemble_scalar_1d(th, region, form, space, space, 6))
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
        A = compress(assemble_scalar_2d(th, form, "P2", "P2", 6))
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
        A = compress(assemble_scalar_2d(th, form, "P2", "P2", 4))
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
        M = compress(assemble_scalar_2d(th, var_form(1, "v.val", "u.val"),
                                        "P1", "P1", 4)).toarray()
        S = compress(assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                                        "P1", "P1", 4)).toarray()
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

    def test_vector_shorthand_wrong_components(self):
        from trifem.vform import FormError
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
        assert compress(K).nnz == 0

    def test_mixed_test_trial_spaces(self):
        # rectangular block: P2 test against P1 trial
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        B = compress(assemble_scalar_2d(th, var_form(1, "v.dx", "u.val"),
                                        "P2", "P1", 4))
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
                              domain="1d", region=th.partition[0])
        kk = kk2 + kk1
        A2 = compress(assemble_scalar_2d(th, var_form(1, "v.grad", "u.grad"),
                                         "P1", "P1", 3))
        A1 = compress(assemble_scalar_1d(th, th.partition[0],
                                         var_form(1, "v.val", "u.val"),
                                         "P1", "P1", 3))
        assert np.allclose(kk.matrix().toarray(), (A2 + A1).toarray(),
                           atol=1e-15, rtol=0)



# every public caller of a (domain, region) pair; assemble_scalar_1d
# takes only the region
BAD_DOMAIN_CALLERS = {
    "assemble_system": lambda th, domain, region: assemble_system(
        th, var_form(1, "v.val", "u.val"), ["P1"], 3, domain=domain, region=region),
    "load_operator": lambda th, domain, region: load_operator(
        th, "P1", 3, domain, region),
    "tabulate_basis": lambda th, domain, region: tabulate_basis(
        "val", th, "P1", 3, domain=domain, region=region),
    "coef_to_matrix": lambda th, domain, region: coef_to_matrix(
        1.0, th, 3, domain, region),
    "assemble_scalar_1d": lambda th, domain, region: assemble_scalar_1d(
        th, region, var_form(1, "v.val"), "P1"),
}


@pytest.mark.parametrize("caller, domain, with_region", [
    *((name, domain, with_region)
      for name in BAD_DOMAIN_CALLERS if name != "assemble_scalar_1d"
      for domain, with_region in (("1d", False), ("3d", False), ("2d", True))),
    ("assemble_scalar_1d", "1d", False),
])
def test_a_bad_domain_or_region_is_a_value_error(caller, domain, with_region):
    th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==0"])
    region = th.partition[0] if with_region else None
    with pytest.raises(ValueError, match="domain"):
        BAD_DOMAIN_CALLERS[caller](th, domain, region)


def refine3_th():
    mesh = square_mesh([0, 1, 0, 1], 0.5)
    for _ in range(3):
        mesh = uniform_refine(mesh)
    return fe_mesh(mesh)


class TestCompactTables:
    """The kernel reads broadcast tables as zero-stride views, with the
    values of a dense stack of one table per (cell, point)."""

    def test_val_tables_are_one_block_broadcast_over_the_cells(self):
        th = refine3_th()
        tables = _kernel_tables(Cells(th, 3), "P1", "val")
        rule = triangle_rule(3)
        dense = np.stack([np.tile(row, (th.mesh.num_elems, 1))
                          for row in shape_values("P1", rule.lam)])
        assert tables.shape == dense.shape and tables.strides[1] == 0
        assert np.array_equal(tables, dense)

    @pytest.mark.parametrize("tag", ["dx", "dy"])
    @pytest.mark.parametrize("space", ["P1", "P2"])
    def test_derivative_tables_equal_the_dense_stack(self, space, tag):
        th = refine3_th()
        tables = _kernel_tables(Cells(th, 3), space, tag)
        rule = triangle_rule(3)
        glam = lam_gradients(th.mesh, th.topo)[:, :, "xy".index(tag[1])]
        dense = np.stack([np.einsum("pk,tk->tp", d, glam)
                          for d in shape_dlam(space, rule.lam)])
        assert tables.shape == dense.shape
        assert np.array_equal(tables, dense)
        if space == "P1":       # one value per element, broadcast over points
            assert tables.strides[2] == 0


def _forms(th):
    """Poisson, Stokes and Navier-Stokes Jacobian forms with their spaces."""
    poisson = default_spec("poisson", degree=2)
    stokes = default_spec("stokes")
    newton = default_spec("ns-newton")
    spaces = _taylor_hood(newton.data)[0]
    u1 = interpolate_nodal(lambda p: np.sin(3 * p[:, 0]) * p[:, 1], th, "P2")
    u2 = interpolate_nodal(lambda p: p[:, 0] ** 2 - p[:, 1], th, "P2")
    pp = interpolate_nodal(lambda p: np.cos(p[:, 0] + p[:, 1]), th, "P1")
    coefs = tuple(coef_matrix_from_dofs(d, tag, th, space, newton.order)
                  for d, tag, space in ((u1, "dx", "P2"), (u1, "dy", "P2"),
                                        (u2, "dx", "P2"), (u2, "dy", "P2"),
                                        (u1, "val", "P2"), (u2, "val", "P2"),
                                        (pp, "val", "P1")))
    data = poisson.data
    return [
        (var_form([data.a, data.c], ["v.grad", "v.val"], ["u.grad", "u.val"]),
         ["P2"], poisson.order),
        (var_form(1, "v.grad", "u.grad"), ["P1"], 3),
        (stokes_form(stokes), spaces, stokes.order),
        (_ns_jacobian_form(th, newton, coefs, newton.order), spaces, newton.order),
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
