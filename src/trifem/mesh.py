"""Triangular meshes: construction, refinement, topology and boundary
partitioning.

A mesh is the pair (node, elem): vertex coordinates and counterclockwise
vertex-index triples.  ``build_topology`` derives the deduplicated edge
list (each row sorted ascending), the element-to-edge map with the
convention that local edge i is opposite local vertex i, the boundary
edges (edges used by exactly one triangle, stored counterclockwise so
the domain lies on their left), triangle areas and edge lengths.

``classify_boundary`` splits the boundary edges into regions using
selector strings evaluated at edge midpoints; the first matching
selector wins and unmatched edges form a trailing catch-all region.
"""

from dataclasses import dataclass, field

import numpy as np

from .selector import parse_selector

__all__ = ["Mesh2d", "MeshTopology", "BoundaryRegion", "BoundaryPartition",
           "FeMesh", "square_mesh", "uniform_refine", "build_topology",
           "classify_boundary", "classify_boundary_by_labels", "fe_mesh"]


@dataclass(frozen=True)
class Mesh2d:
    """Vertex coordinates (N, 2) and ccw triangle connectivity (NT, 3)."""

    node: np.ndarray
    elem: np.ndarray

    def __post_init__(self):
        node = np.ascontiguousarray(np.asarray(self.node, dtype=float))
        elem = np.ascontiguousarray(np.asarray(self.elem, dtype=np.int64))
        if node.ndim != 2 or node.shape[1] != 2:
            raise ValueError("node must have shape (N, 2)")
        if elem.ndim != 2 or elem.shape[1] != 3:
            raise ValueError("elem must have shape (NT, 3)")
        if elem.size and (elem.min() < 0 or elem.max() >= len(node)):
            raise ValueError("elem contains vertex indices out of range")
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "elem", elem)
        area = signed_area(node, elem)
        bad = np.nonzero(area <= 0)[0]
        if len(bad):
            raise ValueError(f"triangle {bad[0]} has non-positive signed area "
                             f"({area[bad[0]]:.3e}); vertices must be counterclockwise")

    @property
    def num_nodes(self):
        return len(self.node)

    @property
    def num_elems(self):
        return len(self.elem)


def signed_area(node, elem):
    """Signed areas of the triangles (positive for ccw orientation)."""
    z = node[elem]
    d1 = z[:, 1] - z[:, 0]
    d2 = z[:, 2] - z[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


@dataclass(frozen=True)
class MeshTopology:
    """Derived edge/adjacency data of a mesh.

    edge : (NE, 2) vertex pairs, each sorted ascending, rows in
        lexicographic order.
    elem2edge : (NT, 3) global index of the edge opposite each local vertex.
    bd_edge : (NBE, 2) boundary edges, oriented ccw along the boundary.
    bd_edge_idx : (NBE,) rows of ``edge`` that are boundary edges.
    area : (NT,) triangle areas.
    edge_length : (NE,) edge lengths.
    """

    edge: np.ndarray
    elem2edge: np.ndarray
    bd_edge: np.ndarray
    bd_edge_idx: np.ndarray
    area: np.ndarray
    edge_length: np.ndarray

    @property
    def num_edges(self):
        return len(self.edge)


@dataclass(frozen=True)
class BoundaryRegion:
    """One boundary part: oriented edges, their global edge indices, and
    the endpoint vertex indices."""

    edges: np.ndarray
    edge_idx: np.ndarray
    node_idx: np.ndarray


@dataclass(frozen=True)
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


def square_mesh(bbox, h):
    """Uniform triangulation of the rectangle [x0,x1] x [y0,y1].

    Each grid cell is split by its lower-left to upper-right diagonal
    into two ccw triangles.  h must divide both side lengths.
    """
    x0, x1, y0, y1 = map(float, bbox)
    if h <= 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if x1 <= x0 or y1 <= y0:
        raise ValueError(f"degenerate bounding box {bbox}")
    nx = (x1 - x0) / h
    ny = (y1 - y0) / h
    if abs(nx - round(nx)) > 1e-9 * max(1.0, nx) or abs(ny - round(ny)) > 1e-9 * max(1.0, ny):
        raise ValueError(f"spacing {h} does not divide the box sides {x1 - x0} x {y1 - y0}")
    nx, ny = int(round(nx)), int(round(ny))

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
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
    topo = build_topology(mesh)
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
    return Mesh2d(node=new_node, elem=new_elem)


def build_topology(mesh):
    """Derive edges, elem2edge, boundary edges, areas and edge lengths."""
    node, elem = mesh.node, mesh.elem
    area = signed_area(node, elem)
    bad = np.nonzero(area <= 0)[0]
    if len(bad):
        raise ValueError(f"triangle {bad[0]} has non-positive area; "
                         "inconsistent orientation")

    # local edge i is opposite local vertex i
    all_edges = np.vstack([elem[:, [1, 2]], elem[:, [2, 0]], elem[:, [0, 1]]])
    sorted_edges = np.sort(all_edges, axis=1)
    edge, inverse, counts = np.unique(sorted_edges, axis=0,
                                      return_inverse=True, return_counts=True)
    nt = len(elem)
    elem2edge = inverse.reshape(3, nt).T.copy()

    bd_edge_idx = np.nonzero(counts == 1)[0]
    # recover boundary rows in their ccw orientation (as stored per triangle)
    is_bd = counts[inverse] == 1
    oriented = {}
    for row in np.nonzero(is_bd)[0]:
        oriented[inverse[row]] = all_edges[row]
    bd_edge = (np.array([oriented[k] for k in bd_edge_idx], dtype=np.int64)
               if len(bd_edge_idx) else np.empty((0, 2), dtype=np.int64))

    vec = node[edge[:, 1]] - node[edge[:, 0]]
    edge_length = np.hypot(vec[:, 0], vec[:, 1])
    return MeshTopology(edge=edge, elem2edge=elem2edge, bd_edge=bd_edge,
                        bd_edge_idx=np.asarray(bd_edge_idx, dtype=np.int64),
                        area=area, edge_length=edge_length)


def classify_boundary(mesh, topo, selectors=()):
    """Partition the boundary edges by selector strings.

    Every boundary edge goes to the first selector whose predicate holds
    at the edge midpoint; leftovers form the final region.  With no
    selectors the single region is the entire boundary.
    """
    selectors = tuple(selectors)
    predicates = [parse_selector(s) for s in selectors]
    mids = 0.5 * (mesh.node[topo.bd_edge[:, 0]] + mesh.node[topo.bd_edge[:, 1]])

    region = np.full(len(mids), len(selectors), dtype=np.int64)
    for e, (x, y) in enumerate(mids):
        for r, pred in enumerate(predicates):
            if pred(x, y):
                region[e] = r
                break
    return _partition(topo, region, len(selectors) + 1, selectors)


def classify_boundary_by_labels(topo, labeled_edges, edge_labels):
    """Partition the boundary edges by the labels a mesh file carries.

    labeled_edges are vertex pairs (as read from the file), edge_labels
    their labels; one region per distinct label, in ascending label
    order.  Boundary edges without a label fall into a trailing region.
    """
    labeled_edges = np.asarray(labeled_edges, dtype=np.int64)
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
        edges = topo.bd_edge[rows]
        regions.append(BoundaryRegion(edges=edges, edge_idx=topo.bd_edge_idx[rows],
                                      node_idx=np.unique(edges)))
    return BoundaryPartition(regions=tuple(regions), selectors=selectors)


@dataclass
class FeMesh:
    """Mesh bundle handed around by assembly routines and drivers: the
    mesh itself, its topology, and the boundary partition."""

    mesh: Mesh2d
    topo: MeshTopology
    partition: BoundaryPartition
    _dofmaps: dict = field(default_factory=dict, repr=False)

    @property
    def node(self):
        return self.mesh.node

    @property
    def elem(self):
        return self.mesh.elem

    def dof_map(self, space):
        """Cached DofMap for a finite element space."""
        from .fespace import build_dof_map, fe_space
        space = fe_space(space)
        if space.name not in self._dofmaps:
            self._dofmaps[space.name] = build_dof_map(self.mesh, self.topo, space)
        return self._dofmaps[space.name]


def fe_mesh(mesh, selectors=()):
    """Build the FeMesh bundle: topology plus boundary partition."""
    if isinstance(selectors, str):
        selectors = (selectors,)
    topo = build_topology(mesh)
    partition = classify_boundary(mesh, topo, selectors)
    return FeMesh(mesh=mesh, topo=topo, partition=partition)
