"""Mesh construction, refinement, topology and boundary classification."""

import numpy as np
import pytest

from trifem import (Mesh2d, build_topology, classify_boundary, fe_mesh,
                    square_mesh, uniform_refine)


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
        assert np.all(build_topology(m).area > 0)

    def test_bad_spacing(self):
        with pytest.raises(ValueError):
            square_mesh([0, 1, 0, 1], 0.3)
        with pytest.raises(ValueError):
            square_mesh([0, 1, 0, 1], -0.5)

    def test_degenerate_box(self):
        with pytest.raises(ValueError):
            square_mesh([0, 0, 0, 1], 0.5)

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
            before = build_topology(m).area.sum()
            m = uniform_refine(m)
            after = build_topology(m).area.sum()
            assert after == pytest.approx(before, rel=1e-12)

    def test_orientation_preserved(self):
        m = uniform_refine(uniform_refine(unit_triangle()))
        assert np.all(build_topology(m).area > 0)


class TestTopology:
    def test_edge_ordering(self):
        topo = build_topology(square_mesh([0, 1, 0, 1], 0.25))
        assert np.all(topo.edge[:, 0] < topo.edge[:, 1])

    def test_single_triangle(self):
        topo = build_topology(unit_triangle())
        assert topo.area[0] == pytest.approx(0.5, abs=0)
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

    def test_edge_lengths(self):
        topo = build_topology(unit_triangle())
        assert sorted(topo.edge_length) == pytest.approx([1.0, 1.0, np.sqrt(2)])


class TestClassifyBoundary:
    def test_single_selector(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(m)
        part = classify_boundary(m, topo, ["x==1"])
        assert len(part) == 2
        assert len(part[0].edge_idx) == 2
        assert len(part[1].edge_idx) == 6

    def test_two_selectors(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(m)
        part = classify_boundary(m, topo, ["x==1", "y==0"])
        assert [len(r.edge_idx) for r in part] == [2, 2, 4]

    def test_no_selectors(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(m)
        part = classify_boundary(m, topo)
        assert len(part) == 1
        assert len(part[0].edge_idx) == 8

    def test_partition_is_exact(self):
        m = square_mesh([0, 1, 0, 1], 0.25)
        topo = build_topology(m)
        part = classify_boundary(m, topo, ["x==1", "y>0.99"])
        combined = np.concatenate([r.edge_idx for r in part])
        assert len(combined) == len(set(combined))
        assert set(combined) == set(topo.bd_edge_idx)

    def test_first_match_wins(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(m)
        # both selectors match the whole boundary; everything goes to the first
        part = classify_boundary(m, topo, ["x<2", "y<2"])
        assert len(part[0].edge_idx) == 8
        assert len(part[1].edge_idx) == 0
        assert len(part[2].edge_idx) == 0

    def test_node_idx_collects_endpoints(self):
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(m)
        part = classify_boundary(m, topo, ["x==1"])
        xs = m.node[part[0].node_idx, 0]
        assert np.all(xs == 1.0)
        assert len(part[0].node_idx) == 3

    def test_empty_regions_keep_their_shapes(self):
        from trifem import classify_boundary_by_labels
        m = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(m)
        by_selector = classify_boundary(m, topo, ["x<2"])[1]
        by_label = classify_boundary_by_labels(topo, topo.bd_edge,
                                               np.ones(8, dtype=int))[1]
        for region in (by_selector, by_label):
            assert region.edges.shape == (0, 2)
            assert region.edge_idx.shape == (0,)
            assert region.node_idx.shape == (0,)
            assert region.edges.dtype == region.edge_idx.dtype == np.int64


class TestFeMesh:
    def test_bundle(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), "x==0")
        assert len(th.partition) == 2
        assert th.topo.num_edges == 16

    def test_dof_map_cache(self):
        th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5))
        assert th.dof_map("P2") is th.dof_map("P2")
