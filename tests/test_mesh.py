"""Mesh construction, refinement, topology and boundary classification."""

import numpy as np
import pytest

import trifem
from trifem import (FeFunction, Mesh2d, SparseTriples, build_dof_map,
                    build_topology, classify_boundary, fe_mesh, square_mesh,
                    uniform_refine)


def unit_triangle():
    return Mesh2d(node=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                  elem=np.array([[0, 1, 2]]))


class TestSquareMesh:
    def test_counts_h_half(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(m)
        assert m.num_nodes == 9
        assert m.num_elems == 8
        assert topo.num_edges == 16
        assert len(topo.bd_edge) == 8

    def test_single_cell(self):
        m = square_mesh([0, 1, 0, 1], 1.0)
        assert m.num_nodes == 4
        assert m.num_elems == 2

    def test_rectangle(self):
        m = square_mesh([0, 2, 0, 1], 0.5)
        assert m.num_nodes == 15
        assert m.num_elems == 16

    def test_all_ccw(self):
        m = square_mesh([0, 1, 0, 1], 0.25)
        assert np.all(m.area > 0)

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            square_mesh([0, 1, 0, 1], 0.3)
        with pytest.raises(ValueError):
            square_mesh([0, 1, 0, 1], -0.5)

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            square_mesh([0, 0, 0, 1], 0.5)

    @pytest.mark.parametrize("bbox, h", [
        ([0, 1, 0, 1], float("inf")), ([0, 1, 0, 1], float("nan")),
        ([0, float("inf"), 0, 1], 0.5), ([float("-inf"), 1, 0, 1], 0.5),
        ([0, 1, float("nan"), 1], 0.5)])
    def test_non_finite_spacing_or_box(self, bbox, h):
        # h = inf used to return a mesh with no triangle
        with pytest.raises(ValueError, match="must be"):
            square_mesh(bbox, h)

    def test_deterministic(self):
        a = square_mesh([0, 1, 0, 1], 0.25)
        b = square_mesh([0, 1, 0, 1], 0.25)
        assert np.array_equal(a.node, b.node)
        assert np.array_equal(a.elem, b.elem)


class TestUniformRefine:
    def test_counts(self):
        m = uniform_refine(square_mesh([0, 1, 0, 1], 0.5))
        assert m.num_nodes == 25      # N + NE = 9 + 16
        assert m.num_elems == 32      # 4 * 8

    def test_single_triangle(self):
        m = uniform_refine(unit_triangle())
        assert m.num_elems == 4
        assert m.num_nodes == 6

    def test_h_formula(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        m = uniform_refine(uniform_refine(m))
        assert 1.0 / (np.sqrt(m.num_nodes) - 1) == pytest.approx(0.125, abs=0)

    def test_area_preserved(self):
        m = square_mesh([0, 2, 0, 1], 0.5)
        for _ in range(3):
            before = m.area.sum()
            m = uniform_refine(m)
            after = m.area.sum()
            assert after == pytest.approx(before, rel=1e-12)

    def test_orientation_preserved(self):
        m = uniform_refine(uniform_refine(unit_triangle()))
        assert np.all(m.area > 0)

    def test_the_ladder_builds_each_level_topology_once(self, monkeypatch):
        import trifem.mesh
        from trifem.problems import default_spec, run_problem
        built = []
        original = trifem.mesh.build_topology

        def counted(mesh):
            built.append(mesh.num_elems)
            return original(mesh)
        monkeypatch.setattr(trifem.mesh, "build_topology", counted)
        run_problem(default_spec("poisson", degree=1, refinements=3))
        assert built == [8, 32, 128, 512]   # the base mesh, then each level
        del built[:]
        # every reader of a level's topology after the first reuses it
        from trifem.problems import _levels
        for th, _ in _levels(default_spec("poisson", refinements=3)):
            th.dof_map("P3")
            assert th.topo is th.mesh.topology
            trifem.mesh.prolongation(th.mesh)
            uniform_refine(th.mesh.parent)
        assert built == [8, 32, 128, 512]


    def test_an_unrefined_mesh_has_no_prolongation(self):
        from trifem.mesh import prolongation
        coarse = square_mesh([0, 1, 0, 1], 0.5)
        assert coarse.parent is None and prolongation(coarse) is None
        assert prolongation(uniform_refine(coarse)).shape == (25, 9)


class TestKeptTopology:
    """A mesh keeps its topology; no function takes one beside its mesh."""

    def test_the_mesh_keeps_what_build_topology_builds(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = m.topology
        assert m.topology is topo
        fresh = build_topology(m)       # public and uncached: a new build
        assert fresh is not topo
        for name in ("edge", "elem2edge", "bd_edge", "bd_edge_idx", "edge_length"):
            assert np.array_equal(getattr(fresh, name), getattr(topo, name))

    def test_the_bundle_reads_its_mesh_topology(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        th = fe_mesh(m, "x==0")
        assert th.topo is m.topology and fe_mesh(m).topo is m.topology
        with pytest.raises(AttributeError):
            th.topo = build_topology(m)

    @pytest.mark.parametrize("call", [
        lambda m, t: uniform_refine(m, t),
        lambda m, t: build_dof_map(m, t, "P2"),
        lambda m, t: trifem.fespace.lam_gradients(m, t),
        lambda m, t: classify_boundary(m, t, ["x==0"]),
        lambda m, t: classify_boundary(m, t),
        lambda m, t: trifem.FeMesh(mesh=m, topo=t, partition=classify_boundary(m)),
    ], ids=["uniform_refine", "build_dof_map", "lam_gradients",
            "classify_boundary", "classify_boundary-no-selectors", "FeMesh"])
    def test_a_topology_beside_its_mesh_is_a_type_error(self, call):
        m = square_mesh([0, 1, 0, 1], 0.5)
        with pytest.raises(TypeError):
            call(m, build_topology(square_mesh([0, 2, 0, 0.5], 0.5)))


class TestTopology:
    def test_edge_ordering(self):
        topo = build_topology(square_mesh([0, 1, 0, 1], 0.25))
        assert np.all(topo.edge[:, 0] < topo.edge[:, 1])

    def test_single_triangle(self):
        m = unit_triangle()
        topo = build_topology(m)
        assert m.area[0] == pytest.approx(0.5, abs=0)
        assert len(topo.bd_edge) == 3

    def test_multiplicity(self):
        m = square_mesh([0, 1, 0, 1], 0.25)
        topo = build_topology(m)
        counts = np.bincount(topo.elem2edge.ravel(), minlength=topo.num_edges)
        interior = np.setdiff1d(np.arange(topo.num_edges), topo.bd_edge_idx)
        assert np.all(counts[interior] == 2)
        assert np.all(counts[topo.bd_edge_idx] == 1)

    @pytest.mark.parametrize("h,refines", [(0.5, 0), (0.5, 1), (0.25, 1), (1.0, 2)])
    def test_euler_formula(self, h, refines):
        # simply connected disc: NE = N + NT - 1
        m = square_mesh([0, 1, 0, 1], h)
        for _ in range(refines):
            m = uniform_refine(m)
        topo = build_topology(m)
        assert topo.num_edges == m.num_nodes + m.num_elems - 1

    def test_elem2edge_opposite_convention(self):
        m = unit_triangle()
        topo = build_topology(m)
        # local edge i must not contain vertex i
        for i in range(3):
            e = topo.edge[topo.elem2edge[0, i]]
            assert m.elem[0, i] not in e

    def test_bad_orientation_reports_triangle(self):
        node = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="triangle 0"):
            Mesh2d(node=node, elem=np.array([[0, 2, 1]]))

    def test_triangles_on_the_same_side_of_an_edge_are_named(self):
        # the unit square's two triangles plus a third over edge (0, 1)
        # used to build, with a total area of 1.5
        node = square_mesh([0, 1, 0, 1], 1.0).node
        with pytest.raises(ValueError, match=r"both triangles of edge \(0, 1\) "
                                             "traverse it the same way"):
            build_topology(Mesh2d(node=node, elem=[[0, 1, 2], [1, 3, 2], [0, 1, 3]]))
        with pytest.raises(ValueError, match=r"edge \(0, 3\) lies in 3 triangles"):
            build_topology(Mesh2d(node=node, elem=[[0, 1, 3], [0, 3, 2], [0, 1, 3]]))

    @pytest.mark.parametrize("node, elem, match", [
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], "node must have shape"),
        ([[0, 0], [1, 0], [0, 1]], [0, 1, 2], "elem must have shape"),
        ([[0, 0], [1, 0], [0, 1]], [[0, 1, 3]], "out of range"),
        ([[0, 0], [1, 0], [0, 1]], [[-1, 1, 2]], "out of range")])
    def test_a_bad_shape_or_vertex_index_is_named(self, node, elem, match):
        with pytest.raises(ValueError, match=match):
            Mesh2d(node=node, elem=elem)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_node_is_named(self, bad):
        # a NaN area passed the area <= 0 test; an unused node has no area
        node = [[0, 0], [1, 0], [bad, 1]]
        with pytest.raises(ValueError, match="node 2 has a non-finite coordinate"):
            Mesh2d(node=node, elem=[[0, 1, 2]])
        with pytest.raises(ValueError, match="node 3 has a non-finite coordinate"):
            Mesh2d(node=[[0, 0], [1, 0], [0, 1], [bad, 0]], elem=[[0, 1, 2]])

    @pytest.mark.parametrize("elem", [[[0, 1, 2.7]], [[0.0, 1.0, 2.0]],
                                      np.array([[0, 1, 2]], dtype=np.float32),
                                      [[True, True, False]]])
    def test_non_integer_elem_is_named(self, elem):
        # [[0, 1, 2.7]] used to build a mesh with elem [[0, 1, 2]]
        with pytest.raises(ValueError, match="elem must be integers"):
            Mesh2d(node=[[0, 0], [1, 0], [0, 1]], elem=elem)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_integer_elem_is_read_as_int64_without_a_copy(self, dtype):
        elem = np.array([[0, 1, 2]], dtype=dtype)
        mesh = Mesh2d(node=[[0, 0], [1, 0], [0, 1]], elem=elem)
        assert mesh.elem.dtype == np.int64 and mesh.elem.tolist() == [[0, 1, 2]]
        assert (mesh.elem is elem) == (dtype == np.int64)

    @pytest.mark.parametrize("bbox,h0,refines", [([0, 2, 0, 1], 0.5, 3),
                                                 ([0, 1, 0, 1], 0.25, 2),
                                                 ([-1, 3, 0, 1], 1.0, 0)])
    def test_boundary_orientation_matches_loop_reference(self, bbox, h0, refines):
        m = square_mesh(bbox, h0)
        for _ in range(refines):
            m = uniform_refine(m)
        topo = build_topology(m)
        # reference: each boundary edge's one row as stored by its triangle
        oriented = {}
        for a, b in np.vstack([m.elem[:, [1, 2]], m.elem[:, [2, 0]],
                               m.elem[:, [0, 1]]]):
            oriented.setdefault((min(a, b), max(a, b)), []).append((a, b))
        bd = sorted(k for k, rows in oriented.items() if len(rows) == 1)
        edge_index = {tuple(e): i for i, e in enumerate(topo.edge)}
        assert np.array_equal(topo.bd_edge_idx, [edge_index[k] for k in bd])
        assert np.array_equal(topo.bd_edge, [oriented[k][0] for k in bd])
        assert topo.bd_edge.dtype == topo.bd_edge_idx.dtype == np.int64

    def test_edge_lengths(self):
        topo = build_topology(unit_triangle())
        assert sorted(topo.edge_length) == pytest.approx([1.0, 1.0, np.sqrt(2)])

    def test_the_mesh_alone_keeps_the_area_it_checked(self, monkeypatch):
        import trifem.mesh
        from trifem.mesh import signed_area
        sizes = []

        def counted(node, elem):
            sizes.append(len(elem))
            return signed_area(node, elem)
        monkeypatch.setattr(trifem.mesh, "signed_area", counted)
        coarse = square_mesh([0, 2, 0, 1], 0.5)
        fine = uniform_refine(coarse)       # builds the coarse topology
        topo = build_topology(fine)
        assert sizes == [16, 64]            # once per mesh, at validation
        assert not hasattr(topo, "area") and not fine.area.flags.writeable
        assert fine.area.tobytes() == signed_area(fine.node, fine.elem).tobytes()


class TestClassifyBoundary:
    def test_single_selector(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        part = classify_boundary(m, ["x==1"])
        assert len(part) == 2
        assert len(part[0].edge_idx) == 2
        assert len(part[1].edge_idx) == 6

    @pytest.mark.parametrize("selector", ["x==1", "y"])
    def test_a_bare_string_is_one_selector(self, selector):
        # a string is not iterated character by character: 'x==1' parses
        # whole, and 'y' names one selector, not the selector y
        m = square_mesh([0, 1, 0, 1], 0.5)
        part = classify_boundary(m, selector)
        listed = classify_boundary(m, [selector])
        assert part.selectors == (selector,)
        assert [r.edge_idx.tolist() for r in part] == \
            [r.edge_idx.tolist() for r in listed]

    def test_two_selectors(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        part = classify_boundary(m, ["x==1", "y==0"])
        assert [len(r.edge_idx) for r in part] == [2, 2, 4]

    def test_no_selectors(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        part = classify_boundary(m)
        assert len(part) == 1
        assert len(part[0].edge_idx) == 8

    def test_partition_is_exact(self):
        m = square_mesh([0, 1, 0, 1], 0.25)
        topo = build_topology(m)
        part = classify_boundary(m, ["x==1", "y>0.99"])
        combined = np.concatenate([r.edge_idx for r in part])
        assert len(combined) == len(set(combined))
        assert set(combined) == set(topo.bd_edge_idx)

    def test_first_match_wins(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        # both selectors match the whole boundary; everything goes to the first
        part = classify_boundary(m, ["x<2", "y<2"])
        assert len(part[0].edge_idx) == 8
        assert len(part[1].edge_idx) == 0
        assert len(part[2].edge_idx) == 0

    def test_region_nodes_are_its_edge_endpoints(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        part = classify_boundary(m, ["x==1"])
        nodes = np.unique(part[0].edges)
        assert np.all(m.node[nodes, 0] == 1.0)
        assert len(nodes) == 3
        assert not hasattr(part[0], "node_idx")

    def test_empty_regions_keep_their_shapes(self):
        from trifem import classify_boundary_by_labels
        m = square_mesh([0, 1, 0, 1], 0.5)
        by_selector = classify_boundary(m, ["x<2"])[1]
        by_label = classify_boundary_by_labels(m, m.topology.bd_edge,
                                               np.ones(8, dtype=int))[1]
        for region in (by_selector, by_label):
            assert region.edges.shape == (0, 2)
            assert region.edge_idx.shape == (0,)
            assert region.edges.dtype == region.edge_idx.dtype == np.int64

    def test_fractional_labeled_edge_is_named(self):
        # the pair (0.9, 1.9) used to label edge (0, 1)
        from trifem import classify_boundary_by_labels
        m = square_mesh([0, 1, 0, 1], 0.5)
        labeled = m.topology.bd_edge.astype(float)
        labeled[0] += 0.9
        with pytest.raises(ValueError, match="labeled edges must be integers"):
            classify_boundary_by_labels(m, labeled, np.ones(8, dtype=int))


class TestFeMesh:
    def test_bundle(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), "x==0")
        assert len(th.partition) == 2
        assert th.topo.num_edges == 16

    def test_dof_map_cache(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        assert th.dof_map("P2") is th.dof_map("P2")


def _unit_square():
    return square_mesh([0, 1, 0, 1], 0.5)


ARRAY_RECORDS = {
    "Mesh2d": _unit_square,
    "MeshTopology": lambda: build_topology(_unit_square()),
    "BoundaryPartition": lambda: classify_boundary(_unit_square(), ["x==0"]),
    "BoundaryRegion": lambda: classify_boundary(_unit_square())[0],
    "DofMap": lambda: build_dof_map(_unit_square(), "P2"),
    "FeFunction": lambda: FeFunction(np.arange(9.0), "P1"),
    "SparseTriples": lambda: SparseTriples(np.array([0, 1]), np.array([1, 0]),
                                           np.array([2.0, 3.0]), 2, 2),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False and a == a
    assert hash(a) == hash(a)
