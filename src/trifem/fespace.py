"""P1/P2/P3 Lagrange spaces on triangles.

Provides the global dof numbering, tabulation of basis values and first
derivatives at quadrature points (both over elements and restricted to
boundary edges), nodal interpolation, coefficient matrices, integrals
of finite element functions, and point evaluation.

``Cells`` is the domain of one integral, read from its region as
FreeFEM reads int2d(Th) and int1d(Th, label): no region means every
triangle, a region means its boundary edges.  It is the only code that
tells the two apart, and an edge's basis is its triangle's.  It also
holds the one evaluator of a finite element function at quadrature
points (``Cells.fe_values``), which coefficient matrices, FeFunction
coefficients and error norms share.  ``Cells.blocks`` cuts an integral
into blocks of at most ``BLOCK_CELLS`` consecutive cells, each a Cells
whose arrays are views of the integral's: the assembly kernel and the
error norms hold their per-point temporaries for one block at a time.

What a mesh level needs is tabulated once per FeMesh, in its private
cache beside the dof maps, and handed out read-only: the quadrature
points per order (and per set of region edges), the barycentric
gradients, and the 'dx'/'dy' tables per (space, tag, order).  Only
``tabulate_basis`` lays out basis tables: one (nl, NC, ng) array, where
an axis the tables do not vary along has stride zero ('val': one (nl,
ng) block for every cell; P1 derivatives: one value per element).

Global numbering: vertex dofs first, then edge dofs by global edge
index (two per edge for P3, ordered from the smaller to the larger
endpoint index), then one interior dof per triangle for P3.  The P3
edge-dof orientation is resolved inside elem2dof, so the local basis
tabulation itself never depends on the element.
"""

from dataclasses import dataclass, field

import numpy as np

from .mesh import _cached
from .quadrature import segment_rule, triangle_rule
from .terms import parse_term_sum

__all__ = ["FeSpace", "DofMap", "FeFunction", "fe_space", "build_dof_map",
           "tabulate_basis", "interpolate_nodal", "coef_matrix_from_dofs",
           "coef_matrix_on_edges", "integrate_fe", "evaluate_at_points",
           "quad_points_2d", "edge_quad_points", "trace_dof_map",
           "region_dofs"]


class FormError(ValueError):
    """Inconsistent variational form or coefficient."""


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


@dataclass(frozen=True, eq=False)
class DofMap:
    """Per-element global dof indices and the coordinates of each dof."""

    elem2dof: np.ndarray
    dof_point: np.ndarray

    @property
    def num_dofs(self):
        """The dof total: one dof_point per dof."""
        return len(self.dof_point)


@dataclass(frozen=True, eq=False)
class FeFunction:
    """A finite element function given by its dof vector and space.

    Usable directly as a form coefficient.
    """

    dofs: np.ndarray
    space: FeSpace


def build_dof_map(mesh, space):
    """Global dof numbering for a space on a triangulated mesh; P2 and
    P3 number the edges of the mesh's own topology."""
    space = fe_space(space)
    node, elem = mesh.node, mesh.elem
    n, nt = len(node), len(elem)

    if space.degree == 1:
        return DofMap(elem2dof=elem.copy(), dof_point=node.copy())

    topo = mesh.topology
    edge = topo.edge
    ne = len(edge)
    if space.degree == 2:
        elem2dof = np.column_stack([elem, n + topo.elem2edge])
        mid = 0.5 * (node[edge[:, 0]] + node[edge[:, 1]])
        return DofMap(elem2dof=elem2dof, dof_point=np.vstack([node, mid]))

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
    return DofMap(elem2dof=elem2dof, dof_point=np.vstack([node, third, centroid]))


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

    def vertex(l):
        return 0.5 * l * (3 * l - 1) * (3 * l - 2)

    def edge(la, lb):
        return 4.5 * la * lb * (3 * la - 1)

    return np.stack([vertex(l0), vertex(l1), vertex(l2),
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


# the rows of shape_values that live on the side lam2 = 0, from vertex
# 0 to vertex 1: its two endpoint functions, then the edge-interior ones
_SIDE_ROWS = {1: [0, 1], 2: [0, 1, 5], 3: [0, 1, 7, 8]}


def lam_gradients(mesh):
    """Cartesian gradients of the barycentric coordinates; (NT, 3, 2).

    The opposite edge, rotated by -90 degrees, over twice the area.  Each
    component is one difference, so a zero component is 0.0, never -0.0.
    """
    z = mesh.node[mesh.elem]
    rot = np.empty((len(mesh.elem), 3, 2))
    for i in range(3):
        a, b = z[:, (i + 1) % 3], z[:, (i + 2) % 3]
        rot[:, i, 0] = a[:, 1] - b[:, 1]
        rot[:, i, 1] = b[:, 0] - a[:, 0]
    return rot / (2.0 * mesh.area)[:, None, None]


def quad_points_2d(mesh, rule):
    """Physical quadrature points on every triangle; (NT, ng, 2)."""
    return rule.lam @ mesh.node[mesh.elem]


# ---------------------------------------------------------------------------
# integration domain

# Most cells one block holds (see Cells.blocks).  A power of two: BLAS
# handles the rows of a matrix product in groups whose size divides it,
# so each block's rows are grouped as the whole array's rows are, and a
# block's numbers are the whole array's bit for bit.  Blocks of 333
# cells moved the biharmonic and heat P3 errors at refine 3 by up to
# 1.5e6 ulp.
BLOCK_CELLS = 2 ** 14


@dataclass(frozen=True, eq=False)
class Cells:
    """The cells of one integral: every triangle when there is no
    region (FreeFEM's int2d(Th)), the boundary edges of the region when
    there is one (int1d(Th, label)).  ``rule`` is their quadrature rule
    and ``measure`` their areas or edge lengths; an array over the
    cells is (NC, ng), one column per quadrature point.

    ``block``, a slice of the integral's cells, narrows every array of
    a Cells to those cells; ``blocks()`` cuts the integral into blocks
    of at most ``BLOCK_CELLS`` consecutive cells, so the kernel and the
    error norms hold their per-point temporaries for one block at a
    time.
    """

    th: object
    order: int
    region: object = None
    block: slice | None = None
    rule: object = field(init=False, repr=False)
    measure: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.region is None:
            rule, measure = triangle_rule(self.order), self.th.mesh.area
        else:
            rule = segment_rule(self.order)
            measure = self.th.topo.edge_length[self.region.edge_idx]
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "measure", self.part(measure))

    @property
    def shape(self):
        return (len(self.measure), self.rule.npoints)

    def blocks(self):
        """The cells as consecutive blocks of at most BLOCK_CELLS: this
        Cells itself when they fit in one."""
        n = len(self.measure)
        if n <= BLOCK_CELLS:
            return [self]
        return [Cells(self.th, self.order, self.region,
                      slice(start, min(start + BLOCK_CELLS, n)))
                for start in range(0, n, BLOCK_CELLS)]

    def part(self, arr, axis=0):
        """This block's cells of an array over all the integral's cells
        (along axis), a view; the array itself without a block."""
        if self.block is None:
            return arr
        return arr[(slice(None),) * axis + (self.block,)]

    def points(self):
        """Physical quadrature points, (NC, ng, 2), read-only; built once
        per FeMesh, order and set of edges."""
        th, rule = self.th, self.rule
        if self.region is None:
            pts = _cached(th, ("points", self.order),
                          lambda: quad_points_2d(th.mesh, rule))
        else:
            pts = _cached(th, ("edge_points", self.order,
                               self.region.edge_idx.tobytes()),
                          lambda: edge_quad_points(th, self.region, rule))
        return self.part(pts)

    def dofs(self, space):
        """Global dofs of a space on every cell: (NC, nl) element dofs,
        or (NC, k+1) trace dofs on edges."""
        if self.region is None:
            return self.part(self.th.dof_map(space).elem2dof)
        return self.part(trace_dof_map(self.th, space, self.region))

    def basis(self, space):
        """Local basis values at the rule's points, (nl, ng): the shape
        functions on triangles; on edges those of a triangle's side at
        barycentric (1 - t, t, 0), t from the smaller endpoint."""
        if self.region is None:
            return shape_values(space, self.rule.lam)
        t = self.rule.point
        lam = np.column_stack([1.0 - t, t, np.zeros_like(t)])
        return shape_values(space, lam)[_SIDE_ROWS[fe_space(space).degree]]

    def values(self, f, ncomp=1):
        """A point function at the quadrature points: (NC, ng), or
        (NC, ng, ncomp) for ncomp > 1.

        On edges a 2-component f asked for one value is flux data: the
        result is f.n with the outward unit normals.
        """
        pts = self.points()
        vals = _eval_pointfun(f, pts.reshape(-1, 2))
        want = (pts.shape[0] * pts.shape[1],) + ((ncomp,) if ncomp > 1 else ())
        if self.region is not None and ncomp == 1 and vals.shape == want + (2,):
            return np.einsum("epd,ed->ep", vals.reshape(pts.shape),
                             self.part(outward_normals(self.th, self.region)))
        return _check_shape(vals, want).reshape(self.shape + want[1:])

    def components(self, f, ncomp):
        """values(f, ncomp) as (ncomp, NC, ng), each component contiguous:
        a strided component handed to the kernel as a coefficient raised
        the peak memory of Stokes at refine 5 by 2 MiB."""
        return np.ascontiguousarray(np.moveaxis(self.values(f, ncomp), -1, 0))

    def fe_values(self, dofs, space, tag="val"):
        """A finite element function, or its 'dx' or 'dy' derivative, at
        the quadrature points: (NC, ng)."""
        space = fe_space(space)
        tables = tabulate_basis(tag, self.th, space, self.order, self.region)
        return self._fe_sum(_check_dofs(dofs, self.th, space), space, tables)

    def _fe_sum(self, dofs, space, tables):
        """fe_values from the integral's (nl, NC, ng) tables: sums dof *
        table over the local dofs in their order; a table constant over
        the points (P1 derivatives) is summed once per cell, then
        repeated."""
        tables = self.part(tables, axis=1)
        local = dofs[self.dofs(space)]          # (NC, nl)
        per_cell = tables.strides[2] == 0
        if per_cell:
            tables = tables[:, :, :1]
        out = np.zeros(tables.shape[1:])
        for i, tab in enumerate(tables):
            out += local[:, i, None] * tab
        return np.repeat(out, self.shape[1], axis=1) if per_cell else out

    def integrate_fe(self, integrand, dofs, space, tags):
        """Sum over the cells of measure * sum_p w_p * q[:, p], where q
        = integrand(block, *fe) is (nc, ng) on each block and fe holds a
        finite element function's tags (see fe_values) at the block's
        points.  Each tag is tabulated once; each block's q @ w goes into
        one per-cell vector, summed once."""
        space = fe_space(space)
        dofs = _check_dofs(dofs, self.th, space)
        tables = [tabulate_basis(tag, self.th, space, self.order, self.region)
                  for tag in tags]
        per_cell = np.empty(len(self.measure))
        for blk in self.blocks():
            fe = [blk._fe_sum(dofs, space, t) for t in tables]
            blk.part(per_cell)[...] = integrand(blk, *fe) @ self.rule.weight
        return self.measure @ per_cell


# ---------------------------------------------------------------------------
# tabulation

def tabulate_basis(tag, th, space, quad_order, region=None):
    """Tabulate values of a derivative of every local basis function.

    One read-only (nl, NC, ng) array, row i local dof i's table over the
    cells: every triangle, or with a region (tag 'val' of the trace
    basis only) the region's edges.  'grad' gives the pair (dx, dy).
    ``tag`` may be a bare tag, a Term or a 'sym.tag' string.  Constant axes have stride
    zero; 'dx'/'dy' return the FeMesh's cached array itself, no copy.
    """
    tag = _tag(tag)
    space = fe_space(space)
    cells = Cells(th, quad_order, region)
    if tag == "val":
        basis = cells.basis(space)
        return np.broadcast_to(basis[:, None, :], (len(basis),) + cells.shape)
    if region is not None:
        raise ValueError(f"boundary-trace tabulation supports only 'val', got {tag!r}")
    if tag == "grad":
        return (tabulate_basis("dx", th, space, quad_order),
                tabulate_basis("dy", th, space, quad_order))
    if tag not in ("dx", "dy"):
        raise ValueError(f"unknown derivative tag {tag!r}")
    return _cached(th, ("tables", space.name, tag, quad_order),
                   lambda: _derivative_tables(th, space, tag, cells.rule))


def _tag(term):
    """The tag of a Term, of a 'sym.tag' string, or a bare tag as is.
    A sum of terms names no single table: a ValueError."""
    if hasattr(term, "tag"):
        return term.tag
    if "." in str(term):
        terms = parse_term_sum(term).terms
        if len(terms) > 1:
            raise ValueError(f"{str(term)!r} is a sum of {len(terms)} terms; "
                             "a table or coefficient matrix takes one")
        return terms[0].tag
    return term


def _derivative_tables(th, space, tag, rule):
    """(nl, NT, ng) tables of the x (tag 'dx') or y derivative of the
    local basis at the rule's points, from the cached barycentric
    gradients.  P1's derivatives are the gradients themselves at every
    point: its tables are a view of them, broadcast over the points."""
    glam = _cached(th, ("lam_gradients",), lambda: lam_gradients(th.mesh))
    glam = glam[:, :, 0 if tag == "dx" else 1]             # (NT, 3)
    if space.degree == 1:
        tables = glam.T[:, :, None]
    else:
        tables = np.stack([np.einsum("pk,tk->tp", d, glam)
                           for d in shape_dlam(space, rule.lam)])
    return np.broadcast_to(tables, tables.shape[:2] + (rule.npoints,))


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
    """Global dofs of a space lying on a boundary region, ascending: the
    trace dofs of its edges, so edges are matched by their global index,
    never by coordinates."""
    return np.unique(trace_dof_map(th, space, region))


def edge_quad_points(th, region, rule):
    """Physical quadrature points on region edges; (NBE, ng, 2)."""
    ab = th.topo.edge[region.edge_idx]
    za, zb = th.mesh.node[ab[:, 0]], th.mesh.node[ab[:, 1]]
    t = rule.point
    return za[:, None, :] + t[None, :, None] * (zb - za)[:, None, :]


def outward_normals(th, region):
    """Outward unit normals of the region's boundary edges; (NBE, 2)."""
    d = th.mesh.node[region.edges[:, 1]] - th.mesh.node[region.edges[:, 0]]
    length = th.topo.edge_length[region.edge_idx]
    return np.column_stack([d[:, 1], -d[:, 0]]) / length[:, None]


# ---------------------------------------------------------------------------
# interpolation / evaluation

def _eval_pointfun(f, points):
    """Evaluate a point function on an (m, 2) point array.

    A scalar return is broadcast to (m,) and an (m, 1) column squeezed
    to (m,); any other shape is returned as is for the caller to check
    with ``_check_shape``.
    """
    out = np.asarray(f(points), dtype=float)
    if out.ndim == 0:
        out = np.full(len(points), float(out))
    if out.ndim == 2 and out.shape[1] == 1:
        out = out[:, 0]
    return out


def _check_dofs(dofs, th, space):
    """dofs as a float array, if it is one value per dof of space on th."""
    dofs, want = np.asarray(dofs, dtype=float), (th.dof_map(space).num_dofs,)
    if dofs.shape != want:
        raise FormError(f"dof vector of shape {dofs.shape} does not fit "
                        f"{space.name} on this mesh (expected {want})")
    return dofs


def _check_shape(vals, want, name="point function"):
    """vals, the values of a point function, if their shape is want."""
    if vals.shape != want:
        raise FormError(f"{name} returned shape {vals.shape}, expected {want}")
    return vals


def interpolate_nodal(f, th, space):
    """Dof vector of the nodal interpolant: f evaluated at dof points."""
    dofmap = th.dof_map(fe_space(space))
    return _check_shape(_eval_pointfun(f, dofmap.dof_point),
                        (dofmap.num_dofs,), "interpolated function")


def coef_matrix_from_dofs(dofs, term, th, space, quad_order):
    """Coefficient matrix of a finite element function's value/derivative.

    Entry (e, p) sums dof * basis over the local dofs of element e at
    quadrature point p.  ``term`` is a Term, 'sym.tag' (the symbol is
    ignored) or a bare tag.
    """
    tag = _tag(term)
    if tag == "grad":
        raise ValueError("a coefficient matrix holds one scalar component; "
                         "use 'dx' or 'dy' instead of 'grad'")
    return Cells(th, quad_order).fe_values(dofs, space, tag)


def coef_matrix_on_edges(f, th, region, quad_order):
    """Boundary coefficient matrix (NBE, ng) from a point function.

    A scalar-valued f is evaluated at the edge quadrature points; a
    2-component f is contracted with the outward unit normal, yielding
    f1*n1 + f2*n2 (flux data such as a*du/dn or the rows of sigma*n).
    """
    if region is None:
        raise ValueError("coef_matrix_on_edges needs a boundary region")
    return Cells(th, quad_order, region).values(f)


def integrate_fe(dofs, th, space, quad_order):
    """Integral of the finite element function over the whole mesh."""
    return float(Cells(th, quad_order).integrate_fe(lambda blk, uh: uh, dofs,
                                                    space, ("val",)))


def evaluate_at_points(dofs, th, space, points, tol=1e-12):
    """Evaluate a finite element function at arbitrary points.

    Points outside every triangle yield NaN rather than extrapolating.
    Cost: each point scans every triangle (barycentric coordinates of the
    point in all NT triangles), so m points take O(m * NT) time; for
    values at dofs, read the dof vector instead.
    """
    space = fe_space(space)
    dofs = _check_dofs(dofs, th, space)
    elem2dof = th.dof_map(space).elem2dof
    points = np.atleast_2d(np.asarray(points, dtype=float))
    z = th.mesh.node[th.mesh.elem]              # (NT, 3, 2)
    twoa = 2.0 * th.mesh.area
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
            out[m] = dofs[elem2dof[t]] @ shape_values(space, lam[t:t + 1])[:, 0]
    return out
