"""FreeFEM mesh/solution ingestion and CSV result tables."""

import csv
import re

import numpy as np
import pytest

import trifem.io
import trifem.mesh
from trifem import (Mesh2d, build_topology, fe_mesh, read_freefem_msh,
                    read_freefem_solution, square_mesh, write_freefem_msh,
                    write_results)
from trifem.io import MshFormatError, format_real
from trifem.mesh import signed_area


# two copies of one triangle: they overlap along every edge
OVERLAPPING_MSH = "4 2 0\n0 0 1\n1 0 1\n0 1 1\n1 1 1\n1 2 3 0\n1 2 3 0\n"


class TestReadMsh:
    def test_a_nonconforming_file_is_named_with_its_path(self, tmp_path):
        path = tmp_path / "dup.msh"
        path.write_text(OVERLAPPING_MSH)
        with pytest.raises(MshFormatError,
                           match=f"^{re.escape(str(path))}: both triangles of edge "
                                 r"\(0, 1\) traverse it the same way"):
            read_freefem_msh(path)

    def test_the_reader_keeps_the_topology_it_checked(self, tmp_path, monkeypatch):
        path = tmp_path / "square.msh"
        mesh = square_mesh([0, 1, 0, 1], 0.5)
        write_freefem_msh(path, mesh, boundary=mesh.topology.bd_edge)
        built = []
        original = trifem.mesh.build_topology
        monkeypatch.setattr(trifem.mesh, "build_topology",
                            lambda m: built.append(m) or original(m))
        back, _ = read_freefem_msh(path)
        assert built == [back]
        assert fe_mesh(back).topo is back.topology and built == [back]

    def test_hand_written_single_triangle(self, tmp_path):
        path = tmp_path / "tri.msh"
        path.write_text("3 1 3\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        "0.0 1.0 1\n"
                        "1 2 3 0\n"
                        "1 2 1\n"
                        "2 3 1\n"
                        "3 1 1\n")
        mesh, labels = read_freefem_msh(path)
        assert mesh.num_nodes == 3
        assert mesh.num_elems == 1
        assert np.array_equal(mesh.elem[0], [0, 1, 2])
        assert np.array_equal(labels.edge, [[0, 1], [1, 2], [2, 0]])

    def test_round_trip_of_generated_mesh(self, tmp_path):
        mesh = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(mesh)
        path = tmp_path / "square.msh"
        write_freefem_msh(path, mesh, boundary=topo.bd_edge)
        header = path.read_text().splitlines()[0]
        assert header == "9 8 8"
        back, labels = read_freefem_msh(path)
        assert np.array_equal(back.node, mesh.node)
        assert np.array_equal(back.elem, mesh.elem)
        assert len(labels.edge) == 8

    def test_clockwise_triangle_reoriented(self, tmp_path):
        path = tmp_path / "cw.msh"
        path.write_text("3 1 0\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        "0.0 1.0 1\n"
                        "1 3 2 0\n")
        mesh, _ = read_freefem_msh(path)
        assert mesh.area[0] > 0

    def test_a_read_mesh_computes_its_own_area(self, tmp_path, monkeypatch):
        # the reader decides the flips; the mesh computes and checks the
        # areas of what it is given.  A flipped triangle's signed area is
        # the exact negation of its clockwise one, so the bits match a
        # mesh written counterclockwise
        mesh = square_mesh([0, 1, 0, 1], 0.25)
        node = mesh.node + 0.01 * np.sin(7 * mesh.node[:, ::-1])
        elem = mesh.elem.copy()
        elem[::3] = elem[::3][:, [0, 2, 1]]     # every third triangle clockwise
        ccw_path, cw_path = tmp_path / "ccw.msh", tmp_path / "mixed.msh"
        write_freefem_msh(ccw_path, Mesh2d(node=node, elem=mesh.elem))
        text = ccw_path.read_text().splitlines()
        for t in range(0, len(elem), 3):
            i, j, k = elem[t] + 1
            text[1 + len(node) + t] = f"{i} {j} {k} 0"
        cw_path.write_text("\n".join(text) + "\n")
        ccw, _ = read_freefem_msh(ccw_path)
        sizes = []

        def counted(node, elem):
            sizes.append(len(elem))
            return signed_area(node, elem)

        monkeypatch.setattr(trifem.io, "signed_area", counted)
        monkeypatch.setattr(trifem.mesh, "signed_area", counted)
        back, _ = read_freefem_msh(cw_path)
        assert sizes == [32, 32]                # the reader's flips, the mesh's check
        assert np.array_equal(back.node, ccw.node)
        assert np.array_equal(back.elem, mesh.elem)
        assert np.array_equal(back.area, ccw.area)
        assert np.array_equal(back.area, signed_area(node, mesh.elem))
        assert np.all(back.area > 0) and not back.area.flags.writeable

    def test_orientation_error_is_unchanged(self, tmp_path):
        path = tmp_path / "flat.msh"
        path.write_text("4 2 0\n"
                        "0.0 0.0 1\n1.0 0.0 1\n0.0 1.0 1\n2.0 0.0 1\n"
                        "1 3 2 0\n"       # clockwise, reoriented
                        "1 2 4 0\n")      # collinear
        with pytest.raises(ValueError) as fresh:
            Mesh2d(node=[[0, 0], [1, 0], [0, 1], [2, 0]], elem=[[0, 1, 2], [0, 1, 3]])
        with pytest.raises(MshFormatError) as read:
            read_freefem_msh(path)
        assert str(read.value) == f"{path}: {fresh.value}"

    def test_topology_invariants_on_read_mesh(self, tmp_path):
        mesh = square_mesh([0, 2, 0, 1], 0.25)
        topo = build_topology(mesh)
        path = tmp_path / "rect.msh"
        write_freefem_msh(path, mesh, boundary=topo.bd_edge)
        back, _ = read_freefem_msh(path)
        t2 = build_topology(back)
        assert np.all(t2.edge[:, 0] < t2.edge[:, 1])
        assert t2.num_edges == back.num_nodes + back.num_elems - 1
        assert np.all(back.area > 0)

    def test_truncated_file_names_missing_section(self, tmp_path):
        path = tmp_path / "trunc.msh"
        path.write_text("3 1 3\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        "0.0 1.0 1\n"
                        "1 2 3 0\n"
                        "1 2 1\n")
        with pytest.raises(MshFormatError, match="edge"):
            read_freefem_msh(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.msh"
        path.write_text("3 1\n")
        with pytest.raises(MshFormatError, match="header"):
            read_freefem_msh(path)

    @pytest.mark.parametrize("text, match", [
        ("", r"bad\.msh: empty file"),
        ("\n  \n", r"bad\.msh: empty file"),
        ("3 1 x\n", r"bad\.msh:1: non-integer header '3 1 x'"),
        ("3 0 0\n0.0 0.0\n", r"bad\.msh:2: expected 3 fields on vertex line, got 2"),
        ("3 1 1\n0 0 1\n1 0 1\n0 1 1\n1 2 3 0\n1 4 1\n",
         r"bad\.msh: edge vertex index out of range 1\.\.3")])
    def test_a_malformed_file_is_named(self, tmp_path, text, match):
        path = tmp_path / "bad.msh"
        path.write_text(text)
        with pytest.raises(MshFormatError, match=match):
            read_freefem_msh(path)

    @pytest.mark.parametrize("header", ["-1 0 0", "3 -1 0", "0 0 -2"])
    def test_negative_header_count_names_the_line(self, tmp_path, header):
        # "-1 0 0" reached np.empty and raised numpy's bare "negative
        # dimensions are not allowed"
        path = tmp_path / "neg.msh"
        path.write_text(header + "\n")
        with pytest.raises(MshFormatError, match=r"neg\.msh:1: negative count"):
            read_freefem_msh(path)

    def test_index_out_of_range_with_line(self, tmp_path):
        path = tmp_path / "oob.msh"
        path.write_text("3 1 0\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        "0.0 1.0 1\n"
                        "1 2 9 0\n")
        with pytest.raises(MshFormatError, match="out of range"):
            read_freefem_msh(path)

    @pytest.mark.parametrize("record", ["1 2 3.9 0", "1 2 3 0.5", "1.0 2 3 0",
                                        "1 2 3 1e1", "1 2 3 99999999999999999999"])
    def test_fractional_triangle_field_names_the_line(self, tmp_path, record):
        # every field was read as a float and truncated: '1 2 3.9 0'
        # loaded as the triangle (0, 1, 2)
        path = tmp_path / "frac.msh"
        path.write_text("3 1 0\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        "0.0 1.0 1\n"
                        f"{record}\n")
        with pytest.raises(MshFormatError,
                           match=rf"frac.msh:5: bad triangle record '{record}'"):
            read_freefem_msh(path)

    def test_indices_and_labels_are_read_as_integers(self, tmp_path):
        path = tmp_path / "big.msh"
        path.write_text("3 1 1\n"
                        "0.0 0.0 9007199254740993\n"
                        "1.0 0.0 -2\n"
                        "0.0 1.0 1\n"
                        "1 2 3 9007199254740995\n"
                        "1 2 7\n")
        mesh, labels = read_freefem_msh(path)
        # 2**53 + 1 and + 3 have no float64; a float read rounded them
        assert labels.vertex_label.tolist() == [2**53 + 1, -2, 1]
        assert labels.tri_region.tolist() == [2**53 + 3]
        for array in (mesh.elem, labels.vertex_label, labels.tri_region,
                      labels.edge, labels.edge_label):
            assert array.dtype == np.int64

    @pytest.mark.parametrize("lines,lineno", [
        (["0.0 0.0 1.5", "1.0 0.0 1", "0.0 1.0 1", "1 2 3 0", "1 2 1"], 2),
        (["0.0 0.0 1", "1.0 0.0 1", "0.0 1.0 1", "1 2 3 0", "1 2.5 1"], 6),
        (["0.0 0.0 1", "1.0 0.0 1", "0.0 1.0 1", "1 2 3 0", "1 2 0.1"], 6)])
    def test_fractional_label_or_edge_index_names_the_line(self, tmp_path, lines,
                                                           lineno):
        path = tmp_path / "frac.msh"
        path.write_text("3 1 1\n" + "\n".join(lines) + "\n")
        with pytest.raises(MshFormatError, match=rf"frac.msh:{lineno}: bad"):
            read_freefem_msh(path)

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_rejected(self, tmp_path, coord):
        path = tmp_path / "nan.msh"
        path.write_text("3 1 0\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        f"{coord} 1.0 1\n"
                        "1 2 3 0\n")
        with pytest.raises(MshFormatError,
                           match="nan.msh: node 2 has a non-finite coordinate"):
            read_freefem_msh(path)

    def test_degenerate_triangle_reported_with_path(self, tmp_path):
        path = tmp_path / "degen.msh"
        path.write_text("3 1 0\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        "2.0 0.0 1\n"      # collinear
                        "1 2 3 0\n")
        with pytest.raises(MshFormatError, match="degen.msh"):
            read_freefem_msh(path)

    def test_extra_data_rejected(self, tmp_path):
        path = tmp_path / "extra.msh"
        path.write_text("3 1 0\n"
                        "0.0 0.0 1\n"
                        "1.0 0.0 1\n"
                        "0.0 1.0 1\n"
                        "1 2 3 0\n"
                        "7 7 7\n")
        with pytest.raises(MshFormatError, match="extra"):
            read_freefem_msh(path)

    def test_labels_preserved(self, tmp_path):
        mesh = square_mesh([0, 1, 0, 1], 0.5)
        topo = build_topology(mesh)
        path = tmp_path / "lab.msh"
        write_freefem_msh(path, mesh,
                          vertex_label=np.arange(9),
                          tri_region=np.arange(8) % 2,
                          boundary=topo.bd_edge,
                          boundary_label=np.full(8, 3))
        _, labels = read_freefem_msh(path)
        assert np.array_equal(labels.vertex_label, np.arange(9))
        assert np.array_equal(labels.tri_region, np.arange(8) % 2)
        assert np.all(labels.edge_label == 3)

    @pytest.mark.parametrize("labels", [
        {"boundary_label": [1, 2]},
        {"boundary_label": np.ones(9, dtype=int)},
        {"vertex_label": np.zeros(5, dtype=int)},
        {"tri_region": np.zeros(9, dtype=int)},
    ])
    def test_a_label_array_of_the_wrong_length_is_a_value_error(self, tmp_path,
                                                                labels):
        # zip wrote 2 edge lines under a header of 8: a file its reader rejects
        mesh = square_mesh([0, 1, 0, 1], 0.5)
        path = tmp_path / "short.msh"
        name = next(iter(labels))
        with pytest.raises(ValueError, match=f"^{name} has .* entries for"):
            write_freefem_msh(path, mesh, boundary=mesh.topology.bd_edge, **labels)

    def test_boundary_labels_without_edges_are_a_value_error(self, tmp_path):
        mesh = square_mesh([0, 1, 0, 1], 0.5)
        with pytest.raises(ValueError, match="without the boundary edges"):
            write_freefem_msh(tmp_path / "none.msh", mesh,
                              boundary_label=np.ones(8, dtype=int))


class TestReadSolution:
    def test_basic(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("3\n1 2 3\n")
        assert np.array_equal(read_freefem_solution(path), [1.0, 2.0, 3.0])

    def test_wrapped_lines(self, tmp_path):
        path = tmp_path / "sol.txt"
        vals = np.linspace(0, 1, 12)
        body = "\n".join(" ".join(repr(float(v)) for v in vals[i:i + 5])
                         for i in range(0, 12, 5))
        path.write_text(f"12\n{body}\n")
        assert np.array_equal(read_freefem_solution(path), vals)

    def test_round_trip_bit_equal(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(7)
        path = tmp_path / "sol.txt"
        path.write_text(f"{len(vals)}\n" + " ".join(repr(float(v)) for v in vals) + "\n")
        assert np.array_equal(read_freefem_solution(path), vals)

    @pytest.mark.parametrize("text, match", [
        ("", r"sol\.txt: empty solution file"),
        ("three 1 2 3\n", r"sol\.txt: first token 'three' is not the value count"),
        ("2\n1 x\n", r"sol\.txt: non-numeric value")])
    def test_a_malformed_solution_is_named(self, tmp_path, text, match):
        path = tmp_path / "sol.txt"
        path.write_text(text)
        with pytest.raises(MshFormatError, match=match):
            read_freefem_solution(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "sol.txt"
        path.write_text("4\n1 2 3\n")
        with pytest.raises(MshFormatError, match="declared 4"):
            read_freefem_solution(path)


class TestWriteResults:
    def test_table_layout(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results(path, ["#Dof", "h", "L2", "H1"],
                      [[32, 128, 512, 2048, 8192],
                       [0.25, 0.125, 0.0625, 0.03125, 0.015625],
                       [2.53816e-05, 1.53744e-06, 9.46298e-08, 5.87001e-09, 3.65444e-10],
                       [5.28954e-04, 6.50683e-05, 8.07922e-06, 1.00695e-06, 1.25698e-07]])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0] == "#Dof,h,L2,H1"
        assert lines[1].split(",")[2] == "2.53816e-05"

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results(path, ["a", "b"], [[], []])
        assert path.read_text().strip() == "a,b"

    def test_round_trip_at_written_precision(self, tmp_path):
        path = tmp_path / "rt.csv"
        vals = [1 / 3, 2.53816e-05, 123456.789]
        write_results(path, ["v"], [vals])
        with open(path) as f:
            rows = list(csv.reader(f))
        parsed = [float(r[0]) for r in rows[1:]]
        assert parsed == [float(format_real(v)) for v in vals]

    def test_ragged_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_results(tmp_path / "x.csv", ["a", "b"], [[1], [1, 2]])

    def test_a_header_per_column(self, tmp_path):
        with pytest.raises(ValueError, match="1 headers for 2 columns"):
            write_results(tmp_path / "x.csv", ["a"], [[1], [2]])
        assert not (tmp_path / "x.csv").exists()


def test_read_mesh_usable_for_assembly(tmp_path):
    mesh = square_mesh([0, 1, 0, 1], 0.5)
    topo = build_topology(mesh)
    path = tmp_path / "mesh.msh"
    write_freefem_msh(path, mesh, boundary=topo.bd_edge)
    back, _ = read_freefem_msh(path)
    th = fe_mesh(back, ["x==1"])
    assert len(th.partition[0].edge_idx) == 2


def test_label_based_boundary_partition(tmp_path):
    from trifem import FeMesh, classify_boundary_by_labels
    mesh = square_mesh([0, 1, 0, 1], 0.5)
    topo = build_topology(mesh)
    # label the x==0 edges 2, everything else 1 (as a mesh generator would)
    mids = 0.5 * (mesh.node[topo.bd_edge[:, 0]] + mesh.node[topo.bd_edge[:, 1]])
    labels = np.where(mids[:, 0] == 0.0, 2, 1)
    path = tmp_path / "lab.msh"
    write_freefem_msh(path, mesh, boundary=topo.bd_edge, boundary_label=labels)
    back, raw = read_freefem_msh(path)

    part = classify_boundary_by_labels(back, raw.edge, raw.edge_label)
    assert [len(r.edge_idx) for r in part] == [6, 2, 0]  # label 1, label 2, rest
    left = back.node[np.unique(part[1].edges)]
    assert np.all(left[:, 0] == 0.0)

    # a label partition drops into the usual solve pipeline
    th = FeMesh(mesh=back, partition=part)
    from trifem import DirichletSpec, apply_dirichlet_and_solve, assemble_system, var_form
    kk = assemble_system(th, var_form(1, "v.grad", "u.grad"), ["P1"], 3)
    uh = apply_dirichlet_and_solve(
        th, kk, np.zeros(kk.num_dofs),
        DirichletSpec((0, 1), (lambda p: np.full(len(p), 20.0),
                               lambda p: np.full(len(p), 100.0))))
    # interior of the left side carries label 2; the corners belong to
    # the first-listed region
    left_interior = (back.node[:, 0] == 0.0) & (back.node[:, 1] % 1.0 != 0.0)
    assert np.all(uh[left_interior] == 100.0)
    corners = (back.node[:, 0] == 0.0) & ((back.node[:, 1] == 0.0) | (back.node[:, 1] == 1.0))
    assert np.all(uh[corners] == 20.0)


def test_conduction_pipeline_from_msh(tmp_path):
    # read a mesh file, assemble a piecewise-conductivity Laplacian, and
    # hold the two boundary regions at different temperatures
    from trifem import (DirichletSpec, apply_dirichlet_and_solve,
                        assemble_system, uniform_refine, var_form)
    mesh = uniform_refine(square_mesh([0, 2, 0, 1], 0.25))
    topo = build_topology(mesh)
    path = tmp_path / "cond.msh"
    write_freefem_msh(path, mesh, boundary=topo.bd_edge)
    back, _ = read_freefem_msh(path)
    th = fe_mesh(back, ["x==0"])

    kappa = lambda p: 1.0 + 2.0 * ((p[:, 0] > 0.5) & (p[:, 0] < 1.5))
    kk = assemble_system(th, var_form(kappa, "v.grad", "u.grad"), ["P1"], 5)
    ff = np.zeros(kk.num_dofs)
    hot = lambda p: np.full(len(p), 100.0)
    cold = lambda p: np.full(len(p), 20.0)
    uh = apply_dirichlet_and_solve(th, kk, ff, DirichletSpec((0, 1), (hot, cold)))
    assert uh.min() >= 20.0 - 1e-10
    assert uh.max() <= 100.0 + 1e-10
    left = back.node[:, 0] == 0.0
    assert np.all(uh[left] == 100.0)
