"""A stiffness matrix is compressed one chunk of ``assembly._CHUNK_CELLS``
cells at a time, and the chunks' entries are compressed once more.  The
chunks, not the kernel's blocks of ``fespace.BLOCK_CELLS``, group each
entry's sum: any block length gives the same bits, a matrix of several
chunks has the one-chunk pattern and values to rounding, and only one
chunk's triples are held at a time."""

import tracemalloc

import numpy as np

import trifem.assembly
import trifem.fespace
from trifem import (FeFunction, assemble_system, fe_mesh, fe_space,
                    interpolate_nodal, square_mesh, var_form)
from trifem.fespace import Cells
from trifem.problems import poisson_data

# 338 triangles: chunks of 128 cells cut them into 128, 128 and 82
TH = fe_mesh(square_mesh([0, 1, 0, 1], 1 / 13))
DATA = poisson_data()


def _forms():
    """(form, space, order): P1/P2/P3 bilinear forms with a point
    function, a ready matrix and a finite element function as
    coefficients."""
    ready = np.random.default_rng(5).standard_normal(Cells(TH, 5).shape)
    fe = FeFunction(interpolate_nodal(DATA.exact, TH, "P2"), fe_space("P2"))
    return [(form, space, 5)
            for space in ("P1", "P2", "P3")
            for form in (var_form([DATA.a, DATA.c], ["v.grad", "v.val"],
                                  ["u.grad", "u.val"]),
                         var_form([ready, fe], ["v.dx + v.dy", "v.val"],
                                  ["u.dy", "u.dx"]))]


def _matrices():
    return [assemble_system(TH, form, [space], order).matrix()
            for form, space, order in _forms()]


def _bits(matrix):
    return tuple(getattr(matrix, attr).tobytes()
                 for attr in ("data", "indices", "indptr"))


def test_the_block_length_moves_no_bit_of_a_chunked_matrix(monkeypatch):
    monkeypatch.setattr(trifem.assembly, "_CHUNK_CELLS", 128)
    want = [_bits(m) for m in _matrices()]      # one block, cut at the chunks
    for block in (16, 64, 128):
        monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", block)
        assert [_bits(m) for m in _matrices()] == want, block


def test_each_compress_takes_one_chunk_of_triples(monkeypatch):
    made = []
    original = trifem.assembly.compress

    def recorded(triples):
        made.append(len(triples.ii))
        return original(triples)

    monkeypatch.setattr(trifem.assembly, "_CHUNK_CELLS", 128)
    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", 64)
    monkeypatch.setattr(trifem.assembly, "compress", recorded)
    assemble_system(TH, var_form(DATA.a, "v.grad", "u.grad"), ["P2"], 4)
    assert made == [128 * 36, 128 * 36, 82 * 36]


def test_a_chunked_matrix_has_the_one_chunk_pattern(monkeypatch):
    whole = _matrices()
    monkeypatch.setattr(trifem.assembly, "_CHUNK_CELLS", 128)
    for got, want in zip(_matrices(), whole):
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-15 * np.abs(want.data).max()


def test_an_empty_region_assembles_a_zero_block(monkeypatch):
    monkeypatch.setattr(trifem.assembly, "_CHUNK_CELLS", 4)
    th = fe_mesh(square_mesh([0, 1, 0, 1], 0.5), ["x==2"])
    block = assemble_system(th, var_form(1, "v.val", "u.val"), ["P1"], 3,
                            region=th.partition[0]).matrix()
    assert block.shape == (9, 9) and block.nnz == 0


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_chunked_stiffness_assembly_holds_one_chunk_of_triples():
    """P1 on 131,072 triangles, 8 chunks.  Compressed in one call, the
    triples peaked at 4.4 times the values of every triple (the local
    arrays); chunk by chunk, at 1.9, while the chunks' entries are
    joined and compressed once more."""
    th = fe_mesh(square_mesh([0, 1, 0, 1], 1 / 256))
    form = var_form([DATA.a, DATA.c], ["v.grad", "v.val"], ["u.grad", "u.val"])

    def assemble():
        assemble_system(th, form, ["P1"], 3)

    assemble()                                  # the level's caches
    cells = len(th.mesh.elem)
    assert cells == 131_072                     # 8 chunks of 2**14
    assert _peak(assemble) < 2.5 * cells * 9 * np.dtype(float).itemsize
