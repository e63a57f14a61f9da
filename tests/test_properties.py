"""Property tests: invariants that hold on any valid mesh, checked on
randomized affine triangles and perturbed refined meshes over P1-P3."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trifem import (FeFunction, Mesh2d, assemble_system, coef_matrix_from_dofs,
                    coef_to_matrix, fe_mesh, fe_space, interpolate_nodal,
                    load_operator, square_mesh, tabulate_basis,
                    uniform_refine, var_form)
from trifem.fespace import quad_points_2d
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
    for domain, region in (("2d", None), ("1d", th.partition[0])):
        b = assemble_system(th, var_form(c, "v.val"), [space],
                            domain=domain, region=region)
        M = assemble_system(th, var_form(1, "v.val", "u.val"), [space],
                            domain=domain, region=region).matrix()
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
    # function and an FeFunction, on the 2d domain, the whole boundary
    # and an empty region
    rng = np.random.default_rng(seed)
    dofs = rng.standard_normal(th.dof_map(space).num_dofs)
    empty = fe_mesh(th.mesh, ("x==99",)).partition[0]
    for domain, region in (("2d", None), ("1d", th.partition[0]), ("1d", empty)):
        L = load_operator(th, space, order, domain, region)
        shape = coef_to_matrix(0.0, th, order, domain, region).shape
        assert L.shape == (len(dofs), shape[0] * shape[1])
        for coef in (rng.standard_normal(shape),
                     lambda p: np.exp(p[:, 0]) * np.cos(3 * p[:, 1]),
                     FeFunction(dofs=dofs, space=fe_space(space))):
            expected = assemble_system(th, var_form(coef, "v.val"), [space],
                                       order, domain=domain, region=region)
            got = L @ coef_to_matrix(coef, th, order, domain, region).ravel()
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
            if region is empty:
                assert not got.any()
