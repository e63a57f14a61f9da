"""P1/P2/P3 Lagrange spaces on triangles.

Provides the global dof numbering, tabulation of basis values and first
derivatives at quadrature points (both over elements and restricted to
boundary edges), nodal interpolation, coefficient matrices, integrals
of finite element functions, and point evaluation.

Global numbering: vertex dofs first, then edge dofs by global edge
index (two per edge for P3, ordered from the smaller to the larger
endpoint index), then one interior dof per triangle for P3.  The P3
edge-dof orientation is resolved inside elem2dof, so the local basis
tabulation itself never depends on the element.
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import segment_rule, triangle_rule
from .terms import parse_term_sum

__all__ = ["FeSpace", "DofMap", "FeFunction", "fe_space", "build_dof_map",
           "tabulate_basis", "interpolate_nodal", "coef_matrix_from_dofs",
           "coef_matrix_on_edges", "integrate_fe", "evaluate_at_points",
           "quad_points_2d", "edge_quad_points", "trace_dof_map",
           "region_dofs", "eval_pointwise"]


@dataclass(frozen=True)
class FeSpace:
    """A Lagrange space of degree 1, 2 or 3 ('P1', 'P2', 'P3')."""

    name: str
    degree: int
    ndof_local: int


_SPACES = {
    "P1": FeSpace(name="P1", degree=1, ndof_local=3),
    "P2": FeSpace(name="P2", degree=2, ndof_local=6),
    "P3": FeSpace(name="P3", degree=3, ndof_local=10),
}


def fe_space(name):
    """Look up a space by its name; accepts an FeSpace unchanged."""
    if isinstance(name, FeSpace):
        return name
    try:
        return _SPACES[name]
    except KeyError:
        raise ValueError(f"unknown finite element space {name!r} "
                         "(expected 'P1', 'P2' or 'P3')") from None


@dataclass(frozen=True)
class DofMap:
    """Per-element global dof indices, dof total, and dof coordinates."""

    elem2dof: np.ndarray
    num_dofs: int
    dof_point: np.ndarray


@dataclass(frozen=True)
class FeFunction:
    """A finite element function given by its dof vector and space.

    Usable directly as a form coefficient.
    """

    dofs: np.ndarray
    space: FeSpace


def build_dof_map(mesh, topo, space):
    """Global dof numbering for a space on a triangulated mesh."""
    space = fe_space(space)
    node, elem = mesh.node, mesh.elem
    n, nt = len(node), len(elem)

    if space.degree == 1:
        return DofMap(elem2dof=elem.copy(), num_dofs=n, dof_point=node.copy())

    edge = topo.edge
    ne = len(edge)
    if space.degree == 2:
        elem2dof = np.column_stack([elem, n + topo.elem2edge])
        mid = 0.5 * (node[edge[:, 0]] + node[edge[:, 1]])
        return DofMap(elem2dof=elem2dof, num_dofs=n + ne,
                      dof_point=np.vstack([node, mid]))

    # P3: two dofs per edge ordered along the global edge direction,
    # plus a centroid dof per triangle.
    p = elem[:, [1, 2, 0]]   # start of local edge i in ccw order
    q = elem[:, [2, 0, 1]]   # end of local edge i
    base = n + 2 * topo.elem2edge
    forward = p < q          # True when local direction matches sorted edge
    col_a = np.where(forward, base, base + 1)
    col_b = np.where(forward, base + 1, base)
    center = n + 2 * ne + np.arange(nt)
    elem2dof = np.column_stack([elem,
                                col_a[:, 0], col_b[:, 0],
                                col_a[:, 1], col_b[:, 1],
                                col_a[:, 2], col_b[:, 2],
                                center])
    za, zb = node[edge[:, 0]], node[edge[:, 1]]
    third = np.empty((2 * ne, 2))
    third[0::2] = za + (zb - za) / 3.0
    third[1::2] = za + 2.0 * (zb - za) / 3.0
    centroid = node[elem].mean(axis=1)
    return DofMap(elem2dof=elem2dof, num_dofs=n + 2 * ne + nt,
                  dof_point=np.vstack([node, third, centroid]))


# ---------------------------------------------------------------------------
# reference shape functions in barycentric coordinates

def shape_values(space, lam):
    """Values of the local basis at barycentric points; shape (nl, ng)."""
    space = fe_space(space)
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    if space.degree == 1:
        return np.stack([l0, l1, l2])
    if space.degree == 2:
        return np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                         4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1])

    def vert(l):
        return 0.5 * l * (3 * l - 1) * (3 * l - 2)

    def edge(la, lb):
        return 4.5 * la * lb * (3 * la - 1)

    return np.stack([vert(l0), vert(l1), vert(l2),
                     edge(l1, l2), edge(l2, l1),
                     edge(l2, l0), edge(l0, l2),
                     edge(l0, l1), edge(l1, l0),
                     27 * l0 * l1 * l2])


def shape_dlam(space, lam):
    """Partials of the local basis w.r.t. barycentric coords; (nl, ng, 3)."""
    space = fe_space(space)
    ng = len(lam)
    l = [lam[:, 0], lam[:, 1], lam[:, 2]]
    if space.degree == 1:
        out = np.zeros((3, ng, 3))
        for i in range(3):
            out[i, :, i] = 1.0
        return out
    if space.degree == 2:
        out = np.zeros((6, ng, 3))
        for i in range(3):
            out[i, :, i] = 4 * l[i] - 1
        # local edge i joins vertices i+1, i+2
        for i, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            out[3 + i, :, a] = 4 * l[b]
            out[3 + i, :, b] = 4 * l[a]
        return out

    out = np.zeros((10, ng, 3))
    for i in range(3):
        out[i, :, i] = 0.5 * (27 * l[i] ** 2 - 18 * l[i] + 2)
    # pairs (a, b): the function 4.5*la*lb*(3la-1) sits at slot 3+j
    pairs = ((1, 2), (2, 1), (2, 0), (0, 2), (0, 1), (1, 0))
    for j, (a, b) in enumerate(pairs):
        out[3 + j, :, a] = 4.5 * l[b] * (6 * l[a] - 1)
        out[3 + j, :, b] = 4.5 * l[a] * (3 * l[a] - 1)
    out[9, :, 0] = 27 * l[1] * l[2]
    out[9, :, 1] = 27 * l[0] * l[2]
    out[9, :, 2] = 27 * l[0] * l[1]
    return out


def trace_values(space, t):
    """Values on an edge of the local trace basis; shape (k+1, ng).

    The parameter t runs from the smaller-index endpoint to the larger.
    Order: the two endpoint functions, then the edge-interior ones.
    """
    space = fe_space(space)
    s = 1.0 - t
    if space.degree == 1:
        return np.stack([s, t])
    if space.degree == 2:
        return np.stack([s * (2 * s - 1), t * (2 * t - 1), 4 * s * t])

    def vert(l):
        return 0.5 * l * (3 * l - 1) * (3 * l - 2)

    return np.stack([vert(s), vert(t),
                     4.5 * s * t * (3 * s - 1), 4.5 * s * t * (3 * t - 1)])


def lam_gradients(mesh, topo):
    """Cartesian gradients of the barycentric coordinates; (NT, 3, 2)."""
    z = mesh.node[mesh.elem]
    rot = np.empty((len(mesh.elem), 3, 2))
    for i in range(3):
        d = z[:, (i + 1) % 3] - z[:, (i + 2) % 3]
        rot[:, i, 0] = d[:, 1]
        rot[:, i, 1] = -d[:, 0]
    return rot / (2.0 * topo.area)[:, None, None]


def quad_points_2d(mesh, rule):
    """Physical quadrature points on every triangle; (NT, ng, 2)."""
    z = mesh.node[mesh.elem]
    return np.einsum("pk,tkd->tpd", rule.lam, z)


# ---------------------------------------------------------------------------
# tabulation

def tabulate_basis(tag, th, space, quad_order, domain="2d", region=None):
    """Tabulate values of a derivative of every local basis function.

    2d: list of (NT, ng) tables, one per local dof; tag 'grad' returns
    the pair (dx tables, dy tables).  1d trace (tag 'val' only): list of
    (NBE, ng) tables over the region's boundary edges, one per trace dof.
    ``tag`` may be a bare tag, a parsed Term, or a 'sym.tag' string.
    """
    if hasattr(tag, "tag"):
        tag = tag.tag
    elif "." in str(tag):
        tag = parse_term_sum(tag).terms[0].tag
    space = fe_space(space)
    if domain == "1d":
        if region is None:
            raise ValueError("1d tabulation needs an active boundary region")
        if tag != "val":
            raise ValueError(f"boundary-trace tabulation supports only 'val', got {tag!r}")
        rule = segment_rule(quad_order)
        vals = trace_values(space, rule.point)
        nbe = len(region.edge_idx)
        return [np.broadcast_to(vals[i], (nbe, rule.npoints)) for i in range(len(vals))]

    if domain != "2d":
        raise ValueError(f"unknown tabulation domain {domain!r}")
    rule = triangle_rule(quad_order)
    nt = len(th.mesh.elem)
    if tag == "val":
        vals = shape_values(space, rule.lam)
        return [np.broadcast_to(vals[i], (nt, rule.npoints)) for i in range(len(vals))]
    if tag == "grad":
        return (tabulate_basis("dx", th, space, quad_order),
                tabulate_basis("dy", th, space, quad_order))
    if tag not in ("dx", "dy"):
        raise ValueError(f"unknown derivative tag {tag!r}")
    comp = 0 if tag == "dx" else 1
    dl = shape_dlam(space, rule.lam)             # (nl, ng, 3)
    glam = lam_gradients(th.mesh, th.topo)       # (NT, 3, 2)
    return [np.einsum("pk,tk->tp", dl[i], glam[:, :, comp])
            for i in range(len(dl))]


def trace_dof_map(th, space, region):
    """Global dofs of the trace basis on each region edge; (NBE, k+1)."""
    space = fe_space(space)
    n = len(th.mesh.node)
    ab = th.topo.edge[region.edge_idx]          # sorted endpoints
    if space.degree == 1:
        return ab.copy()
    if space.degree == 2:
        return np.column_stack([ab, n + region.edge_idx])
    return np.column_stack([ab, n + 2 * region.edge_idx, n + 2 * region.edge_idx + 1])


def region_dofs(th, space, region):
    """Global dofs of a space lying on a boundary region.

    Vertex dofs come from the region's endpoint vertices; edge-interior
    dofs (P2 midpoints, P3 third-points) from its global edge indices,
    so edges are matched by identity, never by coordinates.
    """
    space = fe_space(space)
    n = len(th.mesh.node)
    parts = [region.node_idx]
    if space.degree == 2:
        parts.append(n + region.edge_idx)
    elif space.degree == 3:
        parts.append(n + 2 * region.edge_idx)
        parts.append(n + 2 * region.edge_idx + 1)
    return np.sort(np.concatenate(parts)).astype(np.int64)


def edge_quad_points(th, region, rule):
    """Physical quadrature points on region edges; (NBE, ng, 2)."""
    ab = th.topo.edge[region.edge_idx]
    za, zb = th.mesh.node[ab[:, 0]], th.mesh.node[ab[:, 1]]
    t = rule.point
    return za[:, None, :] + t[None, :, None] * (zb - za)[:, None, :]


def outward_normals(th, region):
    """Outward unit normals of the region's boundary edges; (NBE, 2)."""
    d = th.mesh.node[region.edges[:, 1]] - th.mesh.node[region.edges[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    return np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]


# ---------------------------------------------------------------------------
# interpolation / evaluation

def _eval_pointfun(f, points):
    """Evaluate a point function on an (m, 2) point array.

    A scalar return is broadcast to (m,) and an (m, 1) column squeezed
    to (m,); any other shape is returned as is for the caller to check.
    """
    out = np.asarray(f(points), dtype=float)
    if out.ndim == 0:
        out = np.full(len(points), float(out))
    if out.ndim == 2 and out.shape[1] == 1:
        out = out[:, 0]
    return out


def interpolate_nodal(f, th, space):
    """Dof vector of the nodal interpolant: f evaluated at dof points."""
    dofmap = th.dof_map(fe_space(space))
    vals = _eval_pointfun(f, dofmap.dof_point)
    if vals.shape != (dofmap.num_dofs,):
        raise ValueError(f"interpolated function returned shape {vals.shape}, "
                         f"expected ({dofmap.num_dofs},)")
    return vals


def coef_matrix_from_dofs(dofs, term, th, space, quad_order):
    """Coefficient matrix of a finite element function's value/derivative.

    Entry (e, p) sums dof * basis over the local dofs of element e at
    quadrature point p.  ``term`` is 'sym.tag' (the symbol is ignored)
    or a bare tag.
    """
    space = fe_space(space)
    tag = term if term in ("val", "dx", "dy") else parse_term_sum(term).terms[0].tag
    if tag == "grad":
        raise ValueError("a coefficient matrix holds one scalar component; "
                         "use 'dx' or 'dy' instead of 'grad'")
    dofs = np.asarray(dofs, dtype=float)
    dofmap = th.dof_map(space)
    if dofs.shape != (dofmap.num_dofs,):
        raise ValueError(f"dof vector has length {dofs.shape}, "
                         f"expected ({dofmap.num_dofs},)")
    tables = tabulate_basis(tag, th, space, quad_order)
    local = dofs[dofmap.elem2dof]               # (NT, nl)
    out = np.zeros(tables[0].shape)
    for i, tab in enumerate(tables):
        out += local[:, i, None] * tab
    return out


def coef_matrix_on_edges(f, th, region, quad_order):
    """Boundary coefficient matrix (NBE, ng) from a point function.

    A scalar-valued f is evaluated at the edge quadrature points; a
    2-component f is contracted with the outward unit normal, yielding
    f1*n1 + f2*n2 (flux data such as a*du/dn or the rows of sigma*n).
    """
    rule = segment_rule(quad_order)
    pts = edge_quad_points(th, region, rule)
    nbe, ng = pts.shape[:2]
    vals = _eval_pointfun(f, pts.reshape(-1, 2))
    if vals.shape == (nbe * ng,):
        return vals.reshape(nbe, ng)
    if vals.shape == (nbe * ng, 2):
        vals = vals.reshape(nbe, ng, 2)
        normals = outward_normals(th, region)
        return np.einsum("epd,ed->ep", vals, normals)
    raise ValueError("boundary coefficient function must return 1 or 2 "
                     f"components per point, got shape {vals.shape}")


def integrate_fe(dofs, th, space, quad_order):
    """Integral of the finite element function over the whole mesh."""
    rule = triangle_rule(quad_order)
    cc = coef_matrix_from_dofs(dofs, "val", th, space, quad_order)
    return float(th.topo.area @ (cc @ rule.weight))


def eval_pointwise(dofs, space, lam, elem_idx, dofmap):
    """Evaluate a finite element function at barycentric points inside
    given elements (one (point, element) pair per row)."""
    vals = shape_values(space, lam)             # (nl, npts)
    local = dofs[dofmap.elem2dof[elem_idx]]     # (npts, nl)
    return np.einsum("pi,ip->p", local, vals)


def evaluate_at_points(dofs, th, space, points, tol=1e-12):
    """Evaluate a finite element function at arbitrary points.

    Points outside every triangle yield NaN rather than extrapolating.
    Cost: each point scans every triangle (barycentric coordinates of the
    point in all NT triangles), so m points take O(m * NT) time; for
    values at dofs, read the dof vector instead.
    """
    space = fe_space(space)
    dofs = np.asarray(dofs, dtype=float)
    dofmap = th.dof_map(space)
    points = np.atleast_2d(np.asarray(points, dtype=float))
    z = th.mesh.node[th.mesh.elem]              # (NT, 3, 2)
    twoa = 2.0 * th.topo.area
    out = np.full(len(points), np.nan)
    for m, pt in enumerate(points):
        d = z - pt                              # (NT, 3, 2)
        cross = d[:, :, 0] * np.roll(d[:, :, 1], -1, axis=1) \
            - d[:, :, 1] * np.roll(d[:, :, 0], -1, axis=1)
        # lam_i = cross of the two edge vectors opposite vertex i
        lam = np.column_stack([cross[:, 1], cross[:, 2], cross[:, 0]]) / twoa[:, None]
        inside = np.nonzero(lam.min(axis=1) >= -tol)[0]
        if len(inside):
            t = inside[0]
            out[m] = eval_pointwise(dofs, space, lam[t][None, :],
                                    np.array([t]), dofmap)[0]
    return out
