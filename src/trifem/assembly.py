"""Assembly of sparse matrices and load vectors from variational forms.

One kernel serves linear and bilinear forms.  Per element e it
accumulates, over the elementary entries of a form,

    K[e, i, j] += |K_e| * sum_p w_p * cc[e, p] * vi[e, p] * uj[e, p]

for a bilinear form, and the same contraction without the trial table,
F[e, i], for a linear one.  The per-point work runs one block of at
most ``fespace.BLOCK_CELLS`` consecutive cells at a time: per block each
distinct coefficient is evaluated once (the dx and dy entries of a
grad.grad pair share it) and one einsum per entry contracts the
block's cells, writing its local arrays into the one (NC, ...) result.
A mesh of one block runs one einsum per entry over all its cells.  The
tables are tabulated once per call, and every block contracts on the
path planned for the shapes of all the cells (once per subscripts and
shapes), so the result is the one-block result bit for bit.  The
local arrays scatter through the dof maps into a load vector (bincount)
or into (ii, jj, ss) index triples.  The cells of an integral (every
triangle, or the edges of one boundary region) are one
``fespace.Cells``: it gives the kernel its quadrature weights, measure
(areas or edge lengths), dof columns and point values, so boundary
assembly runs the same kernel with the trace basis.  Each side's basis
tables are the one (nl, NC, ng) array ``tabulate_basis`` returns (for
'dx'/'dy' the FeMesh's cached array), where an axis the tables do not
vary along has stride zero.  The kernel drops that axis and its
subscript letter before contracting: 'val' enters as (nl, ng) 'ip', a
P1 derivative as (nl, NC) 'ie'; the coefficient matrix cc keeps both e
and p.  The planned path then contracts the small operands first: a
'val'/'val' entry is one matrix product of w * cc with the (nl, nl, ng)
table products, and a P1 derivative pair sums w * cc over the points
once per cell.  A table that varies on both axes (P2/P3 derivatives)
keeps 'iep'; nothing is expanded to one value per (cell, point).

A bilinear block's triples exist only inside the scalar kernel call:
it hands them to ``compress`` and returns the canonical CSR matrix, so
past the kernel there is one sparse type, scipy's.  Scalar blocks
combine with scipy's +, scalar * and transpose, as the paper's block
programs combine Matlab sparse matrices.  One rule groups the entries of
a multi-component form: by test component, and for a bilinear form by
trial component too.  A linear form's loads are concatenated; each
block is compressed before the next block's kernel runs, and one
routine stacks the compressed blocks at the cumulative dof offsets into
one CSR matrix, for assemble_system and system_from_blocks alike.  No
triples are kept or concatenated: doing so held each triple twice at
the peak (Taylor-Hood at refine 5 grew from 105 to 134 MiB in the join).

A load 'v.val' is linear in its coefficient values, so
``load_operator`` builds it once as a sparse operator L with entries
|K_e| * w_p * phi_i(x_p), from the same basis tables and Cells:
L @ c.ravel() is the load of any coefficient matrix c.  A time loop
that reloads one form every step applies L instead of assembling again.
"""

import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fespace import Cells, fe_space, tabulate_basis
from .terms import Term, TermSum
from .vform import (FormEntry, FormError, VarForm, _aslist, coef_to_matrix,
                    expand_extended)

__all__ = ["SparseTriples", "AssembledSystem", "assemble_scalar_2d",
           "assemble_scalar_1d", "assemble_system", "compress",
           "load_operator", "system_from_blocks"]


@dataclass(frozen=True, eq=False)
class SparseTriples:
    """Sparse index (ii, jj, ss) of a matrix, the argument of compress;
    duplicate positions sum."""

    ii: np.ndarray
    jj: np.ndarray
    ss: np.ndarray
    nrows: int
    ncols: int

    def __post_init__(self):
        if not (len(self.ii) == len(self.jj) == len(self.ss)):
            raise ValueError("ii, jj, ss must have equal lengths")


def compress(triples):
    """Sum duplicates into a CSR matrix with canonical storage order."""
    ii, jj = triples.ii, triples.jj
    if len(ii) and (ii.min() < 0 or ii.max() >= triples.nrows
                    or jj.min() < 0 or jj.max() >= triples.ncols):
        raise ValueError("sparse index out of range")
    # tocsr sums a non-canonical COO's duplicates, which sorts the indices
    return sp.coo_matrix((triples.ss, (ii, jj)),
                         shape=(triples.nrows, triples.ncols)).tocsr()


@dataclass
class AssembledSystem:
    """Assembled multi-component system: one canonical CSR matrix, no
    triples, and its layout of nndofu dofs per component of spaces.
    Two systems add as scipy adds CSR matrices: a sum that is exactly
    zero is not stored."""

    _csr: sp.csr_matrix
    nndofu: tuple
    spaces: tuple

    @property
    def num_dofs(self):
        return int(sum(self.nndofu))

    @property
    def offsets(self):
        return np.concatenate([[0], np.cumsum(self.nndofu)])

    def matrix(self):
        return self._csr

    def __add__(self, other):
        if isinstance(other, (int, float)) and other == 0:
            return self
        if self.nndofu != other.nndofu:
            raise ValueError("cannot add systems with different component layouts")
        return AssembledSystem(_csr=self._csr + other._csr, nndofu=self.nndofu,
                               spaces=self.spaces)

    __radd__ = __add__


def _component_index(symbol, prefix, ncomp):
    if symbol == prefix:
        if ncomp == 1:
            return 0
        raise FormError(f"bare symbol {symbol!r} is ambiguous in a "
                        f"{ncomp}-component system; use {prefix}1..{prefix}{ncomp}")
    m = re.fullmatch(re.escape(prefix) + r"(\d+)", symbol)
    if m is None:
        raise FormError(f"symbol {symbol!r} is not standardized; expected "
                        f"{prefix} or {prefix}1..{prefix}{ncomp} "
                        "(see standardize_symbols)")
    idx = int(m.group(1)) - 1
    if not 0 <= idx < ncomp:
        raise FormError(f"component of {symbol!r} exceeds the "
                        f"{ncomp} available spaces")
    return idx


def _local_kernel(cells, entries, spaces):
    """Local arrays (NC, nlv) or (NC, nlv, nlu) for elementary entries on
    the cells; spaces is [test] for a linear form, [test, trial] for a
    bilinear one.  The per-point work runs one block of cells at a time
    (see Cells.blocks), each block's local arrays written into the one
    result; each entry's tables are tabulated and its contraction
    planned once, from the shapes of all the cells."""
    output = "->e" + "ij"[:len(spaces)]
    plans = []
    for entry in entries:
        tables, inputs = [], ["p", "ep"]
        for letter, space, side in zip("ij", spaces, (entry.test, entry.trial)):
            table = tabulate_basis(side.terms[0].tag, cells.th, space, cells.order,
                                   cells.region)
            table, axes = _squeezed(table, letter + "ep")
            tables.append((table, axes.find("e")))
            inputs.append(axes)
        subscripts = ",".join(inputs) + output
        shapes = [cells.rule.weight.shape, cells.shape] + [t.shape for t, _ in tables]
        plans.append((subscripts, _path(subscripts, shapes), tables))
    local = None
    for blk in cells.blocks():
        part = _block_kernel(blk, entries, plans)
        if blk is cells:                # one block: its array is the result
            return part
        if local is None:
            local = np.empty((len(cells.measure),) + part.shape[1:])
        blk.part(local)[...] = part
    return local


def _block_kernel(blk, entries, plans):
    """The local arrays of one block of cells; each distinct coefficient
    (the dx and dy entries of a grad.grad pair share theirs) is
    evaluated once."""
    coefs = {}
    local = None
    for entry, (subscripts, path, tables) in zip(entries, plans):
        cc = coefs.get(id(entry.coef))
        if cc is None:
            cc = coefs[id(entry.coef)] = coef_to_matrix(
                entry.coef, blk.th, blk.order, blk.region, blk.block)
        # a table without a cell axis (find gives -1) serves every block
        val = np.einsum(subscripts, blk.rule.weight, cc,
                        *(table if axis < 0 else blk.part(table, axis)
                          for table, axis in tables), optimize=path)
        local = val if local is None else np.add(local, val, out=local)
    local *= blk.measure.reshape((-1,) + (1,) * (local.ndim - 1))
    return local


def _squeezed(table, axes):
    """An (nl, NC, ng) basis table without its zero-stride cell or point
    axis, and the subscript letters of the axes it keeps: 'val' becomes
    (nl, ng), a P1 derivative (nl, NC).  The coefficient matrix keeps
    both letters in the contraction, so any axis may go."""
    keep = [0] + [k for k in (1, 2) if table.strides[k] != 0]
    index = tuple(slice(None) if k in keep else 0 for k in range(3))
    return table[index], "".join(axes[k] for k in keep)


# einsum's contraction path per (subscripts, operand shapes)
_PATHS = {}


def _path(subscripts, shapes):
    """The path np.einsum's optimize=True plans for operands of these
    shapes, planned once per subscripts and shapes.  Every block of a
    call contracts on the path of all its cells, as one call did."""
    key = (subscripts,) + tuple(shapes)
    path = _PATHS.get(key)
    if path is None:
        dummies = [np.broadcast_to(0.0, shape) for shape in shapes]
        path = _PATHS[key] = np.einsum_path(subscripts, *dummies, optimize=True)[0]
    return path


def load_operator(th, space, quad_order, region=None):
    """The load 'v.val' as a sparse operator on coefficient values.

    Returns the CSR matrix L of shape (ndof, NE * ng) with entries
    |K_e| * w_p * phi_i(x_p), scattered through the dof columns; NE
    counts the elements (no region) or the region's edges, ng the
    quadrature points per element.  For any (NE, ng) coefficient matrix
    c, L @ c.ravel() equals
    assemble_system(th, var_form(c, "v.val"), [space], quad_order,
    region) up to rounding.  An empty region gives NE = 0.
    """
    space = fe_space(space)
    cells = Cells(th, quad_order, region)
    tables = tabulate_basis("val", th, space, quad_order, region)
    dofs = cells.dofs(space)                                # (NE, nl)
    nl, ne, ng = tables.shape
    # row e * ng + p of L^T holds the nl entries of element e at point p
    vals = (cells.measure[:, None] * cells.rule.weight)[:, :, None] \
        * tables.transpose(1, 2, 0)
    cols = np.broadcast_to(dofs[:, None, :], vals.shape)
    transposed = sp.csr_matrix(
        (vals.ravel(), cols.ravel(), np.arange(0, vals.size + 1, nl)),
        shape=(ne * ng, th.dof_map(space).num_dofs))
    return transposed.T.tocsr()


def _scalar_assemble(cells, form, test_space, trial_space=None):
    """The load vector or the compressed CSR block of a form of
    elementary entries (see expand_extended); a block's triples are
    dropped once compress returns."""
    spaces = [fe_space(test_space)]
    if not form.is_linear:
        spaces.append(fe_space(trial_space if trial_space is not None
                               else test_space))
    dofs = [cells.dofs(s) for s in spaces]
    sizes = [cells.th.dof_map(s).num_dofs for s in spaces]
    if len(dofs[0]) == 0:           # empty region: a zero contribution
        local = np.zeros((0,) + tuple(d.shape[1] for d in dofs))
    else:
        local = _local_kernel(cells, form.entries, spaces)
    if form.is_linear:
        # bincount over an empty index would return integers
        return np.bincount(dofs[0].ravel(), weights=local.ravel(),
                           minlength=sizes[0]).astype(float, copy=False)
    # the (NC, nl) dof arrays are cast, not the triples: coo_matrix would
    # copy int64 triples down to the int32 it stores when the sizes fit
    index = np.int32 if max(sizes) < 2**31 else np.int64
    rows, cols = (d.astype(index, copy=False) for d in dofs)
    ii = np.broadcast_to(rows[:, :, None], local.shape).ravel()
    jj = np.broadcast_to(cols[:, None, :], local.shape).ravel()
    return compress(SparseTriples(ii=ii, jj=jj, ss=local.ravel(),
                                  nrows=sizes[0], ncols=sizes[1]))


def assemble_scalar_2d(th, form, test_space, trial_space=None, quad_order=None):
    """Assemble a scalar form over all elements.

    Bilinear forms return a canonical CSR matrix (duplicates summed,
    indices sorted), linear forms (trial absent) a dense load vector.
    Test and trial spaces may differ.  Blocks combine as scipy sparse
    matrices (A + B, c * A, A.T) and stack with system_from_blocks.
    """
    form = expand_extended(_as_form(form))
    quad_order = _default_order(quad_order, test_space, trial_space)
    return _scalar_assemble(Cells(th, quad_order), form, test_space,
                            trial_space)


def assemble_scalar_1d(th, region, form, test_space, trial_space=None,
                       quad_order=None):
    """Assemble a scalar form over the boundary edges of one region.

    Returns what assemble_scalar_2d does; an empty region yields an
    all-zero contribution.
    """
    if region is None:
        raise ValueError("assemble_scalar_1d needs a boundary region")
    form = expand_extended(_as_form(form))
    quad_order = _default_order(quad_order, test_space, trial_space)
    return _scalar_assemble(Cells(th, quad_order, region), form,
                            test_space, trial_space)


def _as_form(form):
    if isinstance(form, VarForm):
        return form
    raise TypeError(f"expected a VarForm, got {type(form).__name__}; "
                    "build one with var_form(coef, test, trial)")


def _default_order(quad_order, *spaces):
    if quad_order is not None:
        return quad_order
    return max(fe_space(s).degree for s in spaces if s is not None) + 2


def _expand_vector_shorthand(form, cells, ncomp):
    """Rewrite linear entries 'v.val' against a multi-component
    coefficient into per-component entries (f1*v1 + f2*v2 + ...)."""
    out = []
    for entry in form:
        test = entry.test.terms[0]
        if entry.trial is not None or ncomp == 1 or test.symbol != "v":
            out.append(entry)
            continue
        if test.tag != "val":
            raise FormError("vector shorthand requires Test = 'v.val'")
        coefs = entry.coef
        if callable(coefs):
            coefs = cells.components(coefs, ncomp)
        elif not isinstance(coefs, (list, tuple)):
            raise FormError("vector shorthand coefficient must be a function or a "
                            "sequence of per-component coefficients")
        if len(coefs) != ncomp:
            raise FormError(f"vector shorthand got {len(coefs)} coefficient "
                            f"components for {ncomp} test components")
        out.extend(FormEntry(cc, TermSum((Term(f"v{c + 1}", "val"),)), None)
                   for c, cc in enumerate(coefs))
    return VarForm(entries=tuple(out))


def assemble_system(th, form, spaces, quad_order=None, region=None):
    """Assemble a (possibly multi-component) form over every triangle,
    or over the boundary edges of a region when one is given.

    Entries are grouped by test component, and for a bilinear form by
    trial component too; each group runs the scalar kernel once.  A
    linear form returns the per-component loads concatenated, a
    component without entries reading zero.  A bilinear form returns an
    AssembledSystem: each block is compressed before the next one runs,
    then placed at the cumulative dof offsets.
    """
    form = _as_form(form)
    spaces = tuple(fe_space(s) for s in _aslist(spaces))
    ncomp = len(spaces)
    quad_order = _default_order(quad_order, *spaces)
    cells = Cells(th, quad_order, region)
    nndofu = tuple(th.dof_map(s).num_dofs for s in spaces)

    form = _expand_vector_shorthand(expand_extended(form), cells, ncomp)
    groups = {}
    for entry in form:
        key = (_component_index(entry.test.terms[0].symbol, "v", ncomp),)
        if entry.trial is not None:
            key += (_component_index(entry.trial.terms[0].symbol, "u", ncomp),)
        groups.setdefault(key, []).append(entry)
    parts = {key: _scalar_assemble(cells, VarForm(entries=tuple(entries)),
                                   *(spaces[c] for c in key))
             for key, entries in groups.items()}
    if form.is_linear:
        return np.concatenate([parts.get((c,), np.zeros(n))
                               for c, n in enumerate(nndofu)])
    return AssembledSystem(_csr=_stacked(parts, nndofu), nndofu=nndofu,
                           spaces=spaces)


def system_from_blocks(th, spaces, blocks):
    """Build an AssembledSystem from scalar blocks.

    blocks maps (row component, column component) to a scipy sparse
    matrix of any format (a sum of assemble_scalar_2d results, the CSC
    transpose B.T, ...) or to None for a zero block.  Each block is
    shape-checked, a canonical CSR copy of it is made (the caller's
    matrix is not sorted in place), and the copies are stacked at the
    cumulative dof offsets.  The system shares no memory with the blocks.
    """
    spaces = tuple(fe_space(s) for s in _aslist(spaces))
    nndofu = tuple(th.dof_map(s).num_dofs for s in spaces)
    compressed = {}
    for (ci, cj), block in blocks.items():
        if block is None:
            continue
        if not sp.issparse(block):
            raise TypeError(f"block ({ci}, {cj}) is a {type(block).__name__}, "
                            "not a scipy sparse matrix")
        expected = (nndofu[ci], nndofu[cj])
        if block.shape != expected:
            raise ValueError(f"block ({ci}, {cj}) has shape {block.shape}, "
                             f"expected {expected}")
        block = block.tocsr(copy=True)
        block.sum_duplicates()          # sorts the indices too
        compressed[ci, cj] = block
    return AssembledSystem(_csr=_stacked(compressed, nndofu), nndofu=nndofu,
                           spaces=spaces)


def _stacked(blocks, nndofu):
    """The CSR blocks at their dof offsets, popped as their row is stacked."""
    return sp.vstack([sp.hstack([blocks.pop((i, j)) if (i, j) in blocks
                                 else sp.csr_matrix((ni, nj))
                                 for j, nj in enumerate(nndofu)], format="csr")
                      for i, ni in enumerate(nndofu)], format="csr")
