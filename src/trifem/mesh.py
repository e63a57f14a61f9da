"""Triangular meshes: construction, refinement, topology and boundary
partitioning.

A mesh is the pair (node, elem): vertex coordinates and counterclockwise
vertex-index triples.  ``build_topology`` derives the deduplicated edge
list (each row sorted ascending), the element-to-edge map with the
convention that local edge i is opposite local vertex i, the boundary
edges (edges used by exactly one triangle, stored counterclockwise so
the domain lies on their left) and edge lengths.  A mesh keeps its own
(``Mesh2d.topology``, built on first use) beside its areas, as FreeFEM's
``Th`` keeps its edges, so every function takes the mesh alone.

``classify_boundary`` splits the boundary edges into regions using
selector strings evaluated at edge midpoints; the first matching
selector wins and unmatched edges form a trailing catch-all region.

``uniform_refine`` links each fine mesh to the mesh it refined, so a
ladder of refinements is a multigrid hierarchy: ``prolongation`` reads
the P1 interpolation between two levels off that link.
"""

from dataclasses import dataclass, field, is_dataclass

import numpy as np
import scipy.sparse as sp

from .selector import parse_selector

__all__ = ["Mesh2d", "MeshTopology", "BoundaryRegion", "BoundaryPartition",
           "FeMesh", "square_mesh", "uniform_refine", "prolongation",
           "build_topology", "classify_boundary", "classify_boundary_by_labels",
           "fe_mesh"]


@dataclass(frozen=True, eq=False)
class Mesh2d:
    """Vertex coordinates (N, 2) and ccw triangle connectivity (NT, 3).

    ``area`` holds the triangles' signed areas, computed from node and
    elem once to check the orientation, and read-only.  It is the one
    copy of the areas: integrals and point evaluation read it here.

    A mesh made by ``uniform_refine`` remembers the mesh it refined
    (``parent``, else None): its node n + e is the midpoint of parent
    edge e.  ``topology`` and the P1 ``prolongation`` are built on first
    use and kept in a private cache.
    """

    node: np.ndarray
    elem: np.ndarray
    area: np.ndarray = field(init=False, repr=False)
    parent: "Mesh2d" = field(default=None, init=False, repr=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        node = np.ascontiguousarray(np.asarray(self.node, dtype=float))
        elem = np.ascontiguousarray(_indices(self.elem, "elem"))
        if node.ndim != 2 or node.shape[1] != 2:
            raise ValueError("node must have shape (N, 2)")
        if elem.ndim != 2 or elem.shape[1] != 3:
            raise ValueError("elem must have shape (NT, 3)")
        if elem.size and (elem.min() < 0 or elem.max() >= len(node)):
            raise ValueError("elem contains vertex indices out of range")
        bad = np.nonzero(~np.isfinite(node).all(axis=1))[0]
        if len(bad):
            raise ValueError(f"node {bad[0]} has a non-finite coordinate "
                             f"{tuple(node[bad[0]].tolist())}")
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "elem", elem)
        area = signed_area(node, elem)
        bad = np.nonzero(area <= 0)[0]
        if len(bad):
            raise ValueError(f"triangle {bad[0]} has non-positive signed area "
                             f"({area[bad[0]]:.3e}); vertices must be counterclockwise")
        area.flags.writeable = False
        object.__setattr__(self, "area", area)

    @property
    def num_nodes(self):
        return len(self.node)

    @property
    def num_elems(self):
        return len(self.elem)

    @property
    def topology(self):
        """The mesh's MeshTopology, made by build_topology on first use."""
        return _cached(self, "topology", lambda: build_topology(self))


def _cached(owner, key, build):
    """owner._cache[key], made by build() on first use; its arrays are read-only."""
    try:
        return owner._cache[key]
    except KeyError:
        value = build()
        for a in vars(value).values() if is_dataclass(value) else (value,):
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        owner._cache[key] = value
        return value


def _indices(values, name):
    """values as an int64 array of at least one dimension, with no copy
    if they are one already.  Any other integer dtype is cast, and an
    empty array may have any dtype (numpy reads [] as float64); other
    values are an error, not truncated."""
    values = np.atleast_1d(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got {values}")
    return values.astype(np.int64, copy=False)


def signed_area(node, elem):
    """Signed areas of the triangles (positive for ccw orientation)."""
    z = node[elem]
    d1 = z[:, 1] - z[:, 0]
    d2 = z[:, 2] - z[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


@dataclass(frozen=True, eq=False)
class MeshTopology:
    """Derived edge/adjacency data of a mesh.

    edge : (NE, 2) vertex pairs, each sorted ascending, rows in
        lexicographic order.
    elem2edge : (NT, 3) global index of the edge opposite each local vertex.
    bd_edge : (NBE, 2) boundary edges, oriented ccw along the boundary.
    bd_edge_idx : (NBE,) rows of ``edge`` that are boundary edges.
    edge_length : (NE,) edge lengths; the areas are ``Mesh2d.area``.
    """

    edge: np.ndarray
    elem2edge: np.ndarray
    bd_edge: np.ndarray
    bd_edge_idx: np.ndarray
    edge_length: np.ndarray

    @property
    def num_edges(self):
        return len(self.edge)


@dataclass(frozen=True, eq=False)
class BoundaryRegion:
    """One boundary part: its ccw edges and their global edge indices (rows
    of ``MeshTopology.edge``); its vertices are ``np.unique(edges)``."""

    edges: np.ndarray
    edge_idx: np.ndarray


@dataclass(frozen=True, eq=False)
class BoundaryPartition:
    """Ordered boundary regions plus the selector strings that made them.

    With S selectors there are S+1 regions; the last one holds the edges
    no selector matched.  Without selectors the single region is the
    whole boundary.
    """

    regions: tuple
    selectors: tuple

    def __len__(self):
        return len(self.regions)

    def __getitem__(self, i):
        return self.regions[i]


def _grid_lines(bbox, h):
    """x and y grid lines of spacing h on the box (x0, x1, y0, y1); a
    ValueError unless h is finite, > 0 and divides both box sides."""
    x0, x1, y0, y1 = map(float, bbox)
    # NaN fails every comparison, so it fails both tests
    if not 0 < h < np.inf:
        raise ValueError(f"grid spacing must be a finite number > 0, got {h}")
    if not (-np.inf < x0 < x1 < np.inf and -np.inf < y0 < y1 < np.inf):
        raise ValueError(f"bounding box must be finite with x0 < x1 and "
                         f"y0 < y1, got {bbox}")
    nx = (x1 - x0) / h
    ny = (y1 - y0) / h
    if abs(nx - round(nx)) > 1e-9 * max(1.0, nx) or abs(ny - round(ny)) > 1e-9 * max(1.0, ny):
        raise ValueError(f"spacing {h} does not divide the box sides {x1 - x0} x {y1 - y0}")
    nx, ny = int(round(nx)), int(round(ny))
    return np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1)


def square_mesh(bbox, h):
    """Uniform triangulation of the rectangle [x0,x1] x [y0,y1].

    Each grid cell is split by its lower-left to upper-right diagonal
    into two ccw triangles.  h must divide both side lengths.
    """
    xs, ys = _grid_lines(bbox, h)
    nx, ny = len(xs) - 1, len(ys) - 1
    xx, yy = np.meshgrid(xs, ys)  # row-major over y then x
    node = np.column_stack([xx.ravel(), yy.ravel()])

    iy, ix = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    ll = (iy * (nx + 1) + ix).ravel()      # lower-left vertex of each cell
    lr = ll + 1
    ul = ll + (nx + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])  # diagonal ll -> ur
    upper = np.column_stack([ll, ur, ul])
    elem = np.empty((2 * len(ll), 3), dtype=np.int64)
    elem[0::2] = lower
    elem[1::2] = upper
    return Mesh2d(node=node, elem=elem)


def uniform_refine(mesh):
    """Split every triangle into 4 via edge midpoints (red refinement)."""
    topo = mesh.topology
    node, elem = mesh.node, mesh.elem
    n = len(node)
    mid = 0.5 * (node[topo.edge[:, 0]] + node[topo.edge[:, 1]])
    new_node = np.vstack([node, mid])

    m = n + topo.elem2edge  # midpoint vertex of the edge opposite vertex i
    v0, v1, v2 = elem[:, 0], elem[:, 1], elem[:, 2]
    m0, m1, m2 = m[:, 0], m[:, 1], m[:, 2]
    children = [
        np.column_stack([v0, m2, m1]),
        np.column_stack([v1, m0, m2]),
        np.column_stack([v2, m1, m0]),
        np.column_stack([m0, m1, m2]),
    ]
    new_elem = np.empty((4 * len(elem), 3), dtype=np.int64)
    for k, child in enumerate(children):
        new_elem[k::4] = child
    fine = Mesh2d(node=new_node, elem=new_elem)
    object.__setattr__(fine, "parent", mesh)
    return fine


def prolongation(mesh):
    """P1 prolongation from mesh.parent to mesh, (N, N_c) CSR, or None
    for a mesh that refines none: [I; (e_a + e_b) / 2], since node
    n_c + e is the midpoint of parent edge (a, b).  Built once per mesh
    and kept on it."""
    if mesh.parent is None:
        return None
    return _cached(mesh, "prolongation", lambda: _midpoint_prolongation(mesh))


def _midpoint_prolongation(mesh):
    """The CSR matrix ``prolongation`` keeps, built from the parent link."""
    n_c, edge = mesh.parent.num_nodes, mesh.parent.topology.edge
    ne = len(edge)
    rows = np.concatenate([np.arange(n_c), np.repeat(n_c + np.arange(ne), 2)])
    cols = np.concatenate([np.arange(n_c), edge.ravel()])
    vals = np.concatenate([np.ones(n_c), np.full(2 * ne, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_c + ne, n_c))


def build_topology(mesh):
    """Derive edges, elem2edge, boundary edges and edge lengths.
    Each call builds them anew; ``mesh.topology`` is the kept copy.

    Raises ValueError where the triangles do not form a conforming mesh
    at an edge: an edge in more than two triangles, or an interior edge
    that both of its triangles traverse the same way (they overlap).
    Not caught: triangles that overlap without sharing an edge (one
    nested in another, say), and hanging nodes, a vertex inside another
    triangle's edge.
    """
    node, elem = mesh.node, mesh.elem

    # local edge i is opposite local vertex i
    all_edges = np.vstack([elem[:, [1, 2]], elem[:, [2, 0]], elem[:, [0, 1]]])
    sorted_edges = np.sort(all_edges, axis=1)
    # one int64 key per edge, a*N + b, orders like its row (a, b)
    n = len(node)
    key, inverse, counts = np.unique(sorted_edges[:, 0] * n + sorted_edges[:, 1],
                                     return_inverse=True, return_counts=True)
    edge = np.column_stack([key // n, key % n])
    crowded = np.nonzero(counts > 2)[0]
    if len(crowded):
        k = crowded[0]
        raise ValueError(f"edge {tuple(edge[k].tolist())} lies in {counts[k]} "
                         "triangles; a conforming mesh has at most two")
    # ccw neighbours traverse their shared edge opposite ways: once forward
    forward = np.bincount(inverse, weights=all_edges[:, 0] < all_edges[:, 1],
                          minlength=len(key))
    same_way = np.nonzero((counts == 2) & (forward != 1))[0]
    if len(same_way):
        raise ValueError(f"both triangles of edge {tuple(edge[same_way[0]].tolist())} "
                         "traverse it the same way, so they overlap")
    nt = len(elem)
    elem2edge = inverse.reshape(3, nt).T.copy()

    # a boundary edge has one row, in its triangle's ccw orientation;
    # ordered by edge index
    rows = np.nonzero(counts[inverse] == 1)[0]
    rows = rows[np.argsort(inverse[rows])]
    bd_edge = all_edges[rows]
    bd_edge_idx = inverse[rows]

    vec = node[edge[:, 1]] - node[edge[:, 0]]
    edge_length = np.hypot(vec[:, 0], vec[:, 1])
    return MeshTopology(edge=edge, elem2edge=elem2edge, bd_edge=bd_edge,
                        bd_edge_idx=bd_edge_idx.astype(np.int64),
                        edge_length=edge_length)


def classify_boundary(mesh, selectors=()):
    """Partition the mesh's boundary edges by selector strings.

    Every boundary edge goes to the first selector whose predicate holds
    at the edge midpoint; leftovers form the final region.  With no
    selectors the single region is the entire boundary.  A bare string
    is one selector.
    """
    topo = mesh.topology
    selectors = (selectors,) if isinstance(selectors, str) else tuple(selectors)
    predicates = [parse_selector(s) for s in selectors]
    mids = 0.5 * (mesh.node[topo.bd_edge[:, 0]] + mesh.node[topo.bd_edge[:, 1]])

    region = np.full(len(mids), len(selectors), dtype=np.int64)
    for e, (x, y) in enumerate(mids):
        for r, pred in enumerate(predicates):
            if pred(x, y):
                region[e] = r
                break
    return _partition(topo, region, len(selectors) + 1, selectors)


def classify_boundary_by_labels(mesh, labeled_edges, edge_labels):
    """Partition the mesh's boundary edges by the labels a mesh file carries.

    labeled_edges are vertex pairs (as read from the file), edge_labels
    their labels; one region per distinct label, in ascending label
    order.  Boundary edges without a label fall into a trailing region.
    """
    topo = mesh.topology
    labeled_edges = _indices(labeled_edges, "labeled edges")
    edge_labels = np.asarray(edge_labels)
    lookup = {(int(a), int(b)): lab
              for (a, b), lab in zip(np.sort(labeled_edges, axis=1), edge_labels)}

    labels = [lookup.get((int(a), int(b))) for a, b in topo.edge[topo.bd_edge_idx]]
    found = sorted({lab for lab in labels if lab is not None})
    rank = {lab: r for r, lab in enumerate(found)}
    region = np.array([rank.get(lab, len(found)) for lab in labels], dtype=np.int64)
    return _partition(topo, region, len(found) + 1, ())


def _partition(topo, region, nregions, selectors):
    """Region r holds the boundary-edge rows e with region[e] == r, in order."""
    regions = []
    for r in range(nregions):
        rows = np.nonzero(region == r)[0]
        regions.append(BoundaryRegion(edges=topo.bd_edge[rows],
                                      edge_idx=topo.bd_edge_idx[rows]))
    return BoundaryPartition(regions=tuple(regions), selectors=selectors)


@dataclass
class FeMesh:
    """Mesh bundle handed around by assembly routines and drivers: the
    mesh itself and the boundary partition (``topo`` reads the mesh's).

    What the spaces derive from the mesh is built once per FeMesh and
    kept in one private cache: the dof maps, and (see fespace) the
    quadrature points, the barycentric gradients and the derivative
    tables.  Cached arrays are read-only.
    """

    mesh: Mesh2d
    partition: BoundaryPartition
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def topo(self):
        return self.mesh.topology

    def dof_map(self, space):
        """Cached DofMap for a finite element space."""
        from .fespace import build_dof_map, fe_space
        space = fe_space(space)
        return _cached(self, ("dof_map", space.name),
                       lambda: build_dof_map(self.mesh, space))


def fe_mesh(mesh, selectors=()):
    """Build the FeMesh bundle: the mesh and its boundary partition; a
    bare string is one selector."""
    return FeMesh(mesh=mesh, partition=classify_boundary(mesh, selectors))
