"""Independent slow-path oracles used by the assembly and topology tests.

Everything here recomputes values from first principles with per-element
scalar loops: barycentric coordinates come from solving the local 3x3
linear system, shape functions and their gradients are written out
inline, and form values are integrated pointwise.  Only the quadrature
tables (validated against closed-form integrals elsewhere) are shared
with the package.
"""

import numpy as np

from trifem.quadrature import segment_rule, triangle_rule


def barycentric_system(z):
    """Coefficients (a_i, b_i, c_i) with lam_i(x, y) = a_i + b_i x + c_i y."""
    A = np.array([[1.0, z[0, 0], z[0, 1]],
                  [1.0, z[1, 0], z[1, 1]],
                  [1.0, z[2, 0], z[2, 1]]])
    return np.linalg.solve(A, np.eye(3)).T  # row i: coefficients of lam_i


def shape_and_grad(space_name, lam, grad_lam):
    """Values and gradients of the local basis at one barycentric point."""
    l0, l1, l2 = lam
    g0, g1, g2 = grad_lam
    if space_name == "P1":
        vals = [l0, l1, l2]
        grads = [g0, g1, g2]
    elif space_name == "P2":
        vals = [l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1]
        grads = [(4 * l0 - 1) * g0, (4 * l1 - 1) * g1, (4 * l2 - 1) * g2,
                 4 * (l1 * g2 + l2 * g1), 4 * (l2 * g0 + l0 * g2),
                 4 * (l0 * g1 + l1 * g0)]
    elif space_name == "P3":
        def vert(l, g):
            return (0.5 * l * (3 * l - 1) * (3 * l - 2),
                    0.5 * (27 * l * l - 18 * l + 2) * g)

        def edge(la, ga, lb, gb):
            return (4.5 * la * lb * (3 * la - 1),
                    4.5 * (lb * (6 * la - 1) * ga + la * (3 * la - 1) * gb))

        v0, dv0 = vert(l0, g0)
        v1, dv1 = vert(l1, g1)
        v2, dv2 = vert(l2, g2)
        e0a, de0a = edge(l1, g1, l2, g2)
        e0b, de0b = edge(l2, g2, l1, g1)
        e1a, de1a = edge(l2, g2, l0, g0)
        e1b, de1b = edge(l0, g0, l2, g2)
        e2a, de2a = edge(l0, g0, l1, g1)
        e2b, de2b = edge(l1, g1, l0, g0)
        c = 27 * l0 * l1 * l2
        dc = 27 * (l1 * l2 * g0 + l0 * l2 * g1 + l0 * l1 * g2)
        vals = [v0, v1, v2, e0a, e0b, e1a, e1b, e2a, e2b, c]
        grads = [dv0, dv1, dv2, de0a, de0b, de1a, de1b, de2a, de2b, dc]
    else:
        raise ValueError(space_name)
    return np.array(vals), np.array(grads)


def fe_at_point(th, space, dofs, elem_idx, lam, grad_lam):
    """(value, gradient) of a FE function at one barycentric point."""
    from trifem import fe_space
    dm = th.dof_map(fe_space(space))
    vals, grads = shape_and_grad(fe_space(space).name, lam, grad_lam)
    local = dofs[dm.elem2dof[elem_idx]]
    return float(local @ vals), local @ grads


def direct_bilinear_2d(th, space, dofs_v, dofs_u, kernel, coef=None, order=8):
    """Direct quadrature of a scalar bilinear form on two FE functions.

    kernel(v, gv, u, gu) combines values and gradients pointwise, e.g.
    mass: v*u, stiffness: gv.gu, mixed: gv[0]*u.
    """
    rule = triangle_rule(order)
    node, elem = th.mesh.node, th.mesh.elem
    total = 0.0
    for t in range(len(elem)):
        z = node[elem[t]]
        coeffs = barycentric_system(z)
        grad_lam = coeffs[:, 1:]
        d1, d2 = z[1] - z[0], z[2] - z[0]
        area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        acc = 0.0
        for p in range(rule.npoints):
            lam = rule.lam[p]
            x = lam @ z
            v, gv = fe_at_point(th, space, dofs_v, t, lam, grad_lam)
            u, gu = fe_at_point(th, space, dofs_u, t, lam, grad_lam)
            c = 1.0 if coef is None else coef(x[0], x[1])
            acc += rule.weight[p] * c * kernel(v, gv, u, gu)
        total += area * acc
    return total


def direct_boundary_mass(th, space, region, dofs_v, dofs_u, order=8):
    """Direct line integral of v*u over a boundary region.

    The trace values come from evaluating the 2D basis in the unique
    adjacent triangle of each boundary edge.
    """
    rule = segment_rule(order)
    node = th.mesh.node
    total = 0.0
    for k in region.edge_idx:
        # find the owning triangle and integrate along the edge
        owners = np.nonzero((th.topo.elem2edge == k).any(axis=1))[0]
        assert len(owners) == 1
        t = owners[0]
        a, b = th.topo.edge[k]
        za, zb = node[a], node[b]
        length = float(np.hypot(*(zb - za)))
        z = node[th.mesh.elem[t]]
        coeffs = barycentric_system(z)
        grad_lam = coeffs[:, 1:]
        acc = 0.0
        for p in range(rule.npoints):
            x = za + rule.point[p] * (zb - za)
            lam = coeffs @ np.array([1.0, x[0], x[1]])
            v, _ = fe_at_point(th, space, dofs_v, t, lam, grad_lam)
            u, _ = fe_at_point(th, space, dofs_u, t, lam, grad_lam)
            acc += rule.weight[p] * v * u
        total += length * acc
    return total


def row_unique_topology(mesh):
    """(edge, elem2edge, bd_edge, bd_edge_idx) from a row-wise np.unique
    over the sorted vertex pairs of every local edge (local edge i is
    opposite vertex i); boundary edges keep their triangle's ccw row."""
    elem = mesh.elem
    all_edges = np.vstack([elem[:, [1, 2]], elem[:, [2, 0]], elem[:, [0, 1]]])
    edge, inverse, counts = np.unique(np.sort(all_edges, axis=1), axis=0,
                                      return_inverse=True, return_counts=True)
    inverse = inverse.ravel()
    rows = np.nonzero(counts[inverse] == 1)[0]
    rows = rows[np.argsort(inverse[rows])]
    return edge, inverse.reshape(3, -1).T, all_edges[rows], inverse[rows]
