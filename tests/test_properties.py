"""Property tests: invariants that hold on any valid mesh, checked on
randomized affine triangles and perturbed refined meshes over P1-P3."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import trifem.assembly
from oracles import row_unique_topology
from trifem import (FeFunction, Mesh2d, assemble_scalar_2d, assemble_system,
                    build_topology, coef_matrix_from_dofs, coef_to_matrix,
                    evaluate_at_points, fe_mesh, fe_space, interpolate_nodal,
                    load_operator, region_dofs, square_mesh, tabulate_basis,
                    uniform_refine, var_form)
from trifem.fespace import quad_points_2d
from trifem.mesh import prolongation, signed_area
from trifem.quadrature import triangle_rule

SPACES = st.sampled_from(["P1", "P2", "P3"])
COORD = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)
REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@st.composite
def affine_triangle(draw):
    """One ccw triangle: the unit triangle under x -> A x + b, det A >= 0.1."""
    a = np.array([[draw(COORD), draw(COORD)], [draw(COORD), draw(COORD)]])
    det = np.linalg.det(a)
    assume(abs(det) >= 0.1)
    if det < 0:
        a[:, [0, 1]] = a[:, [1, 0]]
    b = np.array([draw(COORD), draw(COORD)])
    return triangle_th(REF @ a.T + b)


def triangle_th(node):
    return fe_mesh(Mesh2d(node=node, elem=np.array([[0, 1, 2]])))


@st.composite
def perturbed_mesh(draw):
    """A refined rectangle whose interior nodes move by up to 0.15 h in
    each coordinate; a vertex then stays well inside its half-altitude
    (h / (2 sqrt 2)), so no triangle inverts."""
    width = draw(st.sampled_from([1.0, 2.0]))
    refine = draw(st.integers(0, 2))
    mesh = square_mesh([0.0, width, 0.0, 1.0], 0.5)
    for _ in range(refine):
        mesh = uniform_refine(mesh)
    h = 0.5 / 2**refine
    node = mesh.node.copy()
    x, y = node[:, 0], node[:, 1]
    interior = (x > 0) & (x < width) & (y > 0) & (y < 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    node[interior] += rng.uniform(-0.15 * h, 0.15 * h, (interior.sum(), 2))
    return fe_mesh(Mesh2d(node=node, elem=mesh.elem))


MESHES = st.one_of(affine_triangle(), perturbed_mesh())


def poly_coeffs(draw, degree):
    return {(i, j): draw(st.floats(-1.0, 1.0))
            for i in range(degree + 1) for j in range(degree + 1 - i)}


def poly(coeffs):
    return lambda p: sum(c * p[:, 0]**i * p[:, 1]**j
                         for (i, j), c in coeffs.items())


@PROPERTY
@given(th=MESHES, space=SPACES)
def test_constants_in_stiffness_null_space(th, space):
    K = assemble_system(th, var_form(1, "v.grad", "u.grad"), [space]).matrix()
    ones = np.ones(K.shape[1])
    assert np.abs(K @ ones).max() <= 1e-12 * abs(K).max()


@PROPERTY
@given(th=MESHES, space=SPACES)
def test_mass_matrix_symmetric(th, space):
    M = assemble_system(th, var_form(lambda p: 1 + p[:, 0]**2, "v.val", "u.val"),
                        [space]).matrix()
    assert abs(M - M.T).max() <= 1e-14 * abs(M).max()


@PROPERTY
@given(th=MESHES, space=SPACES, order=st.integers(1, 6))
def test_basis_partition_of_unity(th, space, order):
    vals = tabulate_basis("val", th, space, order)
    dx = tabulate_basis("dx", th, space, order)
    dy = tabulate_basis("dy", th, space, order)
    scale = 1 + max(abs(np.asarray(t)).max() for t in dx + dy)
    assert np.abs(sum(vals) - 1).max() <= 1e-13
    assert np.abs(sum(dx)).max() <= 1e-12 * scale
    assert np.abs(sum(dy)).max() <= 1e-12 * scale


@PROPERTY
@given(th=MESHES, degree=st.integers(1, 3), data=st.data())
def test_interpolation_exact_for_p_k(th, degree, data):
    f = poly(poly_coeffs(data.draw, degree))
    space = f"P{degree}"
    order = degree + 2
    uh = coef_matrix_from_dofs(interpolate_nodal(f, th, space), "val",
                               th, space, order)
    pts = quad_points_2d(th.mesh, triangle_rule(order))
    exact = f(pts.reshape(-1, 2)).reshape(uh.shape)
    assert np.abs(uh - exact).max() <= 1e-11 * (1 + np.abs(exact).max())


@PROPERTY
@given(th=MESHES, space=SPACES, c=st.floats(-10.0, 10.0))
def test_constant_load_is_mass_times_ones(th, space, c):
    # the linear and the bilinear side of the assembly kernel agree
    for region in (None, th.partition[0]):
        b = assemble_system(th, var_form(c, "v.val"), [space], region=region)
        M = assemble_system(th, var_form(1, "v.val", "u.val"), [space],
                            region=region).matrix()
        expected = c * (M @ np.ones(M.shape[1]))
        assert np.abs(b - expected).max() <= 1e-13 * (1 + np.abs(expected).max())


@PROPERTY
@given(th=affine_triangle(), space=SPACES, angle=st.floats(0.0, 2 * np.pi),
       shift=st.tuples(COORD, COORD))
def test_local_matrices_invariant_under_rigid_motion(th, space, angle, shift):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    moved = triangle_th(th.mesh.node @ rot.T + np.array(shift))
    for test, trial in (("v.grad", "u.grad"), ("v.val", "u.val")):
        form = var_form(1, test, trial)
        a = assemble_system(th, form, [space]).matrix().toarray()
        b = assemble_system(moved, form, [space]).matrix().toarray()
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()


@PROPERTY
@given(th=MESHES, space=SPACES, order=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_load_operator_applies_the_assembled_load(th, space, order, seed):
    # L @ c.ravel() is the load of a random coefficient matrix, a point
    # function and an FeFunction, on every triangle, the whole boundary
    # and an empty region
    rng = np.random.default_rng(seed)
    dofs = rng.standard_normal(th.dof_map(space).num_dofs)
    empty = fe_mesh(th.mesh, ("x==99",)).partition[0]
    for region in (None, th.partition[0], empty):
        L = load_operator(th, space, order, region)
        shape = coef_to_matrix(0.0, th, order, region).shape
        assert L.shape == (len(dofs), shape[0] * shape[1])
        for coef in (rng.standard_normal(shape),
                     lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, 1]),
                     FeFunction(dofs=dofs, space=fe_space(space))):
            expected = assemble_system(th, var_form(coef, "v.val"), [space],
                                       order, region=region)
            got = L @ coef_to_matrix(coef, th, order, region).ravel()
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
            if region is empty:
                assert not got.any()


@PROPERTY
@given(th=MESHES, data=st.data())
def test_divergence_theorem(th, data):
    # int div F over the triangles is the outward flux int F.n over the
    # whole boundary: 2d and 1d measures, points and normals agree
    c1, c2 = poly_coeffs(data.draw, 2), poly_coeffs(data.draw, 2)
    field = lambda p: np.column_stack([poly(c1)(p), poly(c2)(p)])
    div = lambda p: (sum(c * i * p[:, 0]**(i - 1) * p[:, 1]**j
                         for (i, j), c in c1.items() if i)
                     + sum(c * j * p[:, 0]**i * p[:, 1]**(j - 1)
                           for (i, j), c in c2.items() if j))
    inside = assemble_system(th, var_form(div, "v.val"), ["P1"])
    flux = assemble_system(th, var_form(field, "v.val"), ["P1"],
                           region=th.partition[0])
    assert abs(inside.sum() - flux.sum()) <= 1e-12 * np.abs(flux).sum()


def assert_topology_is_row_unique(mesh):
    topo = build_topology(mesh)
    got = (topo.edge, topo.elem2edge, topo.bd_edge, topo.bd_edge_idx)
    for name, a, b in zip(("edge", "elem2edge", "bd_edge", "bd_edge_idx"),
                          got, row_unique_topology(mesh)):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@PROPERTY
@given(th=perturbed_mesh(), data=st.data())
def test_a_nonconforming_edge_is_rejected_by_name(th, data):
    # a duplicated triangle puts its interior edges in three triangles;
    # a triangle moved across an interior edge, onto its neighbour's
    # side, traverses the edge the same way as that neighbour.  Both
    # used to build, the valid mesh itself still does.
    node, elem, topo = th.mesh.node, th.mesh.elem, build_topology(th.mesh)
    k = data.draw(st.integers(0, len(elem) - 1))
    with pytest.raises(ValueError, match=r"lies in 3 triangles"):
        build_topology(Mesh2d(node=node, elem=np.vstack([elem, elem[k:k + 1]])))
    interior = np.setdiff1d(np.arange(topo.num_edges), topo.bd_edge_idx)
    j = data.draw(st.sampled_from(interior.tolist()))
    (t, u), (i, _) = np.nonzero(topo.elem2edge == j)
    a, b = elem[t, (i + 1) % 3], elem[t, (i + 2) % 3]      # t runs a -> b
    moved = elem.copy()
    moved[u] = (a, b, len(node))               # u ran b -> a, now a -> b
    centroid = node[elem[t]].mean(axis=0, keepdims=True)
    with pytest.raises(ValueError, match=r"traverse it the same way"):
        build_topology(Mesh2d(node=np.vstack([node, centroid]), elem=moved))


@PROPERTY
@given(th=MESHES)
def test_topology_matches_row_unique_reference(th):
    assert_topology_is_row_unique(th.mesh)


@pytest.mark.parametrize("refines", range(1, 7))
def test_refined_square_topology_matches_row_unique_reference(refines):
    mesh = square_mesh([0, 1, 0, 1], 0.5)
    for _ in range(refines):
        mesh = uniform_refine(mesh)
    assert_topology_is_row_unique(mesh)


SELECTORS = ["x==0", "y==0", "x==1", "y==1", "x==2", "x<0.5", "y>=0.5",
             "x+y<1", "x>y", "x.^2 + y.^2 < 1", "abs(x-1)<=0.25 | y==0"]


@PROPERTY
@given(th=perturbed_mesh(), data=st.data())
def test_region_dofs_are_the_dofs_on_the_region_edges(th, data):
    # the P2/P3 edge-dof numbering is read from the trace map: checked
    # here against dof coordinates, which region_dofs never reads
    selectors = data.draw(st.lists(st.sampled_from(SELECTORS), max_size=4,
                                   unique=True))
    th = fe_mesh(th.mesh, selectors)
    for space in ("P1", "P2", "P3"):
        points = th.dof_map(space).dof_point
        seen = []
        for region in th.partition:
            a = th.mesh.node[region.edges[:, 0]]          # (NBE, 2)
            d = th.mesh.node[region.edges[:, 1]] - a
            rel = points[:, None, :] - a                    # (ndof, NBE, 2)
            cross = d[:, 0] * rel[..., 1] - d[:, 1] * rel[..., 0]
            along = np.einsum("ned,ed->ne", rel, d) / np.einsum("ed,ed->e", d, d)
            on = (np.abs(cross) <= 1e-12) & (along >= -1e-12) & (along <= 1 + 1e-12)
            got = region_dofs(th, space, region)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.flatnonzero(on.any(axis=1)))
            seen.append(got)
        # regions share end vertices only, never an edge-interior dof
        interior = np.concatenate(seen)
        interior = interior[interior >= th.mesh.num_nodes]
        assert len(np.unique(interior)) == len(interior)


@st.composite
def ladder(draw):
    """A random coarse mesh and one or two uniform refinements of it,
    coarsest first."""
    meshes = [draw(MESHES).mesh]
    for _ in range(draw(st.integers(1, 2))):
        meshes.append(uniform_refine(meshes[-1]))
    return meshes


def refinement_pairs(meshes):
    """(coarse, fine) per ladder step; each fine mesh links its parent."""
    for coarse, fine in zip(meshes, meshes[1:]):
        assert fine.parent is coarse
        yield coarse, fine


@PROPERTY
@given(meshes=ladder(), seed=st.integers(0, 2**32 - 1))
def test_prolongation_is_the_coarse_p1_function_at_the_fine_nodes(meshes, seed):
    rng = np.random.default_rng(seed)
    for coarse, fine in refinement_pairs(meshes):
        v = rng.standard_normal(coarse.num_nodes)
        want = evaluate_at_points(v, fe_mesh(coarse), "P1", fine.node)
        assert np.allclose(prolongation(fine) @ v, want, atol=1e-12, rtol=0)


@PROPERTY
@given(meshes=ladder(), coeffs=st.lists(COORD, min_size=3, max_size=3))
def test_prolongation_rows_sum_to_one_and_reproduce_linears(meshes, coeffs):
    a, b, c = coeffs
    linear = lambda z: a + b * z[:, 0] + c * z[:, 1]
    for coarse, fine in refinement_pairs(meshes):
        P = prolongation(fine)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-15, rtol=0)
        assert np.allclose(P @ linear(coarse.node), linear(fine.node),
                           atol=1e-13, rtol=0)


@PROPERTY
@given(meshes=ladder())
def test_children_4t_to_4t_plus_3_tile_their_parent_t(meshes):
    for coarse, fine in refinement_pairs(meshes):
        z = coarse.node[coarse.elem]                          # (NT, 3, 2)
        child = fine.node[fine.elem].reshape(len(z), 12, 2)   # 4 children
        # barycentric coordinates of every child vertex in its parent
        legs = np.stack([z[:, 1] - z[:, 0], z[:, 2] - z[:, 0]], axis=2)
        l12 = np.linalg.solve(legs[:, None], (child - z[:, None, 0])[..., None])
        lam = np.concatenate([1 - l12.sum(axis=2), l12[..., 0]], axis=2)
        assert lam.min() >= -1e-12
        area = signed_area(fine.node, fine.elem).reshape(-1, 4).sum(axis=1)
        assert np.allclose(area, signed_area(coarse.node, coarse.elem),
                           rtol=1e-12, atol=0)


@PROPERTY
@given(th=perturbed_mesh())
def test_jacobi_scaled_p1_mass_spectrum_lies_in_half_to_two(th):
    # Wathen's element bounds, which the Stokes pressure preconditioner's
    # Chebyshev steps assume: D^-1 M_e has eigenvalues 1/2, 1/2 and 2
    M = assemble_system(th, var_form(1, "v.val", "u.val"), ["P1"]).matrix().toarray()
    d = np.sqrt(np.diag(M))
    lam = np.linalg.eigvalsh(M / np.outer(d, d))
    assert 0.5 - 1e-12 <= lam.min() and lam.max() <= 2.0 + 1e-12


@PROPERTY
@given(th=perturbed_mesh(), data=st.data())
def test_a_system_is_its_blocks_concatenated_then_compressed(th, data):
    # random bilinear forms over 1-3 components of P1-P3: the system
    # has the pattern of the blocks' triples, offset, concatenated and
    # compressed in one go, its values to rounding, and canonical storage
    spaces = data.draw(st.lists(SPACES, min_size=1, max_size=3))
    ncomp, order = len(spaces), max(int(s[1]) for s in spaces) + 2
    blocks = {}
    for _ in range(data.draw(st.integers(1, 6))):
        ci, cj = (data.draw(st.integers(0, ncomp - 1)) for _ in range(2))
        a, b = (data.draw(st.sampled_from(["val", "dx", "dy"])) for _ in range(2))
        coef = data.draw(st.floats(-1.0, 1.0))
        blocks.setdefault((ci, cj), []).append((coef, a, b))
    form = var_form(*zip(*((coef, f"v{ci + 1}.{a}", f"u{cj + 1}.{b}")
                           for (ci, cj), entries in blocks.items()
                           for coef, a, b in entries)))
    got = assemble_system(th, form, spaces, order).matrix()

    # each scalar block's triples, as the kernel hands them to compress
    made = []
    original = trifem.assembly.compress

    def recorded(triples):
        made.append(triples)
        return original(triples)

    offsets = np.cumsum([0] + [th.dof_map(s).num_dofs for s in spaces])
    ii, jj, ss = [], [], []
    for (ci, cj), entries in blocks.items():
        coefs, tests, trials = zip(*((coef, f"v.{a}", f"u.{b}")
                                     for coef, a, b in entries))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trifem.assembly, "compress", recorded)
            assemble_scalar_2d(th, var_form(list(coefs), list(tests),
                                            list(trials)),
                               spaces[ci], spaces[cj], order)
        triples = made.pop()
        ii.append(triples.ii + offsets[ci])
        jj.append(triples.jj + offsets[cj])
        ss.append(triples.ss)
    want = sp.coo_matrix((np.concatenate(ss),
                          (np.concatenate(ii), np.concatenate(jj))),
                         shape=(offsets[-1], offsets[-1])).tocsr()
    want.sum_duplicates()
    want.sort_indices()
    assert got.shape == want.shape and got.has_canonical_format
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()
