"""Blocked per-point work: the kernel and the error norms run one block
of at most ``fespace.BLOCK_CELLS`` cells at a time.  A small
power-of-two block, patched in, must give the one-block numbers bit
for bit, evaluate each coefficient once per block, and keep the peak
memory of a call to a few (NC, ng) arrays."""

import tracemalloc

import numpy as np
import pytest

import trifem.fespace
from trifem import (FeFunction, assemble_system, error_H1_semi, error_L2,
                    fe_mesh, fe_space, integrate_fe, interpolate_nodal,
                    square_mesh, var_form)
from trifem.fespace import Cells
from trifem.problems import poisson_data

# 338 triangles and 52 boundary edges: neither is a multiple of a block
TH = fe_mesh(square_mesh([0, 1, 0, 1], 1 / 13))
DATA = poisson_data()


def _flux(p):
    return np.column_stack([p[:, 0] * p[:, 1], 1 + p[:, 1] ** 2])


def _forms(th):
    """(form, space, order, region): P1/P2/P3 bilinear forms with a point
    function, a ready matrix and a finite element function as
    coefficients, loads, and forms on the whole boundary."""
    cells = Cells(th, 5)
    ready = np.random.default_rng(3).standard_normal(cells.shape)
    fe = FeFunction(interpolate_nodal(DATA.exact, th, "P2"), fe_space("P2"))
    region = th.partition[0]
    out = []
    for space in ("P1", "P2", "P3"):
        out += [
            (var_form([DATA.a, DATA.c], ["v.grad", "v.val"], ["u.grad", "u.val"]),
             space, 5, None),
            (var_form([ready, fe], ["v.dx + v.dy", "v.val"], ["u.dy", "u.dx"]),
             space, 5, None),
            (var_form(DATA.f, "v.val"), space, 5, None),
            (var_form(DATA.a, "v.val", "u.val"), space, 5, region),
            (var_form(_flux, "v.val"), space, 5, region),
        ]
    return out


def _assembled(form, space, order, region):
    out = assemble_system(TH, form, [space], order, region=region)
    return out if isinstance(out, np.ndarray) else out.matrix()


def _integrals():
    """The error norms and the integral of P1/P2/P3 functions."""
    out = []
    for space in ("P1", "P2", "P3"):
        dofs = interpolate_nodal(lambda p: DATA.exact(p) + 0.1 * p[:, 0] ** 4,
                                 TH, space)
        out += [error_L2(TH, space, 6, DATA.exact, dofs),
                error_H1_semi(TH, space, 6, DATA.exact_grad, dofs),
                integrate_fe(dofs, TH, space, 6)]
    return out


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return all(np.array_equal(getattr(a, attr), getattr(b, attr))
               for attr in ("data", "indices", "indptr"))


def test_blocks_cover_the_cells_in_order(monkeypatch):
    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", 64)
    cells = Cells(TH, 3)
    blocks = cells.blocks()
    assert [len(b.measure) for b in blocks] == [64] * 5 + [18]
    assert np.array_equal(np.concatenate([b.points() for b in blocks]),
                          cells.points())
    assert np.array_equal(np.concatenate([b.dofs("P3") for b in blocks]),
                          cells.dofs("P3"))
    edges = Cells(TH, 3, TH.partition[0])
    assert edges.blocks() == [edges]                 # 52 edges fit in one
    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", 338)
    assert cells.blocks() == [cells]


@pytest.mark.parametrize("block", [16, 64])
def test_a_small_block_assembles_the_one_block_bits(monkeypatch, block):
    whole = [_assembled(*args) for args in _forms(TH)]
    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", block)
    assert len(Cells(TH, 5).blocks()) >= 4
    for args, want in zip(_forms(TH), whole):
        assert _same(_assembled(*args), want), args


@pytest.mark.parametrize("block", [16, 64])
def test_a_small_block_gives_the_one_block_integrals(monkeypatch, block):
    whole = _integrals()
    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", block)
    assert _integrals() == whole


def test_each_coefficient_is_evaluated_once_per_block(monkeypatch):
    calls = []

    def a(p):
        calls.append(len(p))
        return DATA.a(p)

    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", 64)
    assemble_system(TH, var_form(a, "v.grad", "u.grad"), ["P1"], 3)
    # the dx and dy entries of grad.grad share a: one call per block
    assert calls == [64 * 6] * 5 + [18 * 6]


@pytest.mark.parametrize("shape", ["scalar", "column"])
def test_a_constant_point_function_assembles_like_the_constant(monkeypatch, shape):
    # _eval_pointfun broadcasts a scalar and squeezes an (m, 1) column
    def f(p):
        return 2.5 if shape == "scalar" else np.full((len(p), 1), 2.5)

    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", 64)
    for space in ("P1", "P2"):
        for test, trial in (("v.grad", "u.grad"), ("v.val", None)):
            got = assemble_system(TH, var_form(f, test, trial), [space], 4)
            want = assemble_system(TH, var_form(2.5, test, trial), [space], 4)
            if trial is not None:
                got, want = got.matrix(), want.matrix()
            assert _same(got, want)


def _peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_stays_a_few_point_arrays(monkeypatch):
    """One Poisson stiffness assembly and one H1 error on 8,192
    triangles in blocks of 512 cells.  All at once, the per-point
    temporaries peaked at 3.6 (assembly) and 7.0 (error) times one
    (NC, ng) float64 array; blocked, 2.5 (in compress, which is not
    blocked) and 0.6."""
    monkeypatch.setattr(trifem.fespace, "BLOCK_CELLS", 512)
    th = fe_mesh(square_mesh([0, 1, 0, 1], 1 / 64))
    order = 7                                   # 16 points per triangle
    form = var_form([DATA.a, DATA.c], ["v.grad", "v.val"], ["u.grad", "u.val"])
    dofs = interpolate_nodal(DATA.exact, th, "P1")

    def assemble():
        assemble_system(th, form, ["P1"], order)

    def error():
        error_H1_semi(th, "P1", order, DATA.exact_grad, dofs)

    assemble(), error()                         # the level's caches
    nc, ng = Cells(th, order).shape
    array = nc * ng * np.dtype(float).itemsize
    assert _peak(assemble) < 3.0 * array
    assert _peak(error) < 2.0 * array
