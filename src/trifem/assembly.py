"""Assembly of sparse matrices and load vectors from variational forms.

One kernel serves linear and bilinear forms.  Per element e it
accumulates, over the elementary entries of a form,

    K[e, i, j] += |K_e| * sum_p w_p * cc[e, p] * vi[e, p] * uj[e, p]

for a bilinear form, and the same contraction without the trial table,
F[e, i], for a linear one; one einsum covers all elements at once.  The
local arrays scatter through the dof maps into a load vector (bincount)
or into (ii, jj, ss) index triples.  Boundary (1d) assembly runs the
same kernel over a region's edges with edge lengths as the measure and
the trace basis.  Multi-component forms are grouped into blocks by
(test component, trial component); one block routine offsets each
block's triples by the cumulative row/column dof counts and
concatenates them, for assemble_system and system_from_blocks alike.
Triples stay uncompressed so contributions from the 2d domain and
boundary terms can be concatenated cheaply and compressed once.
"""

import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fespace import fe_space, tabulate_basis, trace_dof_map
from .quadrature import segment_rule, triangle_rule
from .terms import Term, TermSum
from .vform import (FormEntry, FormError, VarForm, _aslist, coef_to_matrix,
                    expand_extended)

__all__ = ["SparseTriples", "AssembledSystem", "assemble_scalar_2d",
           "assemble_scalar_1d", "assemble_system", "compress",
           "system_from_blocks"]


@dataclass(frozen=True)
class SparseTriples:
    """Sparse index (ii, jj, ss); duplicate positions sum on compression."""

    ii: np.ndarray
    jj: np.ndarray
    ss: np.ndarray
    nrows: int
    ncols: int

    def __post_init__(self):
        if not (len(self.ii) == len(self.jj) == len(self.ss)):
            raise ValueError("ii, jj, ss must have equal lengths")

    def __add__(self, other):
        if isinstance(other, (int, float)) and other == 0:
            return self
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("cannot add triples of different shapes")
        return SparseTriples(ii=np.concatenate([self.ii, other.ii]),
                             jj=np.concatenate([self.jj, other.jj]),
                             ss=np.concatenate([self.ss, other.ss]),
                             nrows=self.nrows, ncols=self.ncols)

    __radd__ = __add__

    def __mul__(self, scalar):
        return SparseTriples(ii=self.ii, jj=self.jj, ss=self.ss * float(scalar),
                             nrows=self.nrows, ncols=self.ncols)

    __rmul__ = __mul__

    @property
    def T(self):
        return SparseTriples(ii=self.jj, jj=self.ii, ss=self.ss,
                             nrows=self.ncols, ncols=self.nrows)

    def tocsr(self):
        return compress(self)


def compress(triples):
    """Sum duplicates into a CSR matrix with canonical storage order."""
    ii, jj = triples.ii, triples.jj
    if len(ii) and (ii.min() < 0 or ii.max() >= triples.nrows
                    or jj.min() < 0 or jj.max() >= triples.ncols):
        raise ValueError("sparse index out of range")
    mat = sp.coo_matrix((triples.ss, (ii, jj)),
                        shape=(triples.nrows, triples.ncols)).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


@dataclass
class AssembledSystem:
    """Assembled multi-component system: triples plus component layout."""

    triples: SparseTriples
    nndofu: tuple
    spaces: tuple
    _matrix: object = field(default=None, repr=False)

    @property
    def num_dofs(self):
        return int(sum(self.nndofu))

    @property
    def offsets(self):
        return np.concatenate([[0], np.cumsum(self.nndofu)])

    def matrix(self):
        if self._matrix is None:
            self._matrix = compress(self.triples)
        return self._matrix

    def __add__(self, other):
        if isinstance(other, (int, float)) and other == 0:
            return self
        if self.nndofu != other.nndofu:
            raise ValueError("cannot add systems with different component layouts")
        return AssembledSystem(triples=self.triples + other.triples,
                               nndofu=self.nndofu, spaces=self.spaces)

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


def _kernel_tables(th, space, tag, quad_order, domain, region):
    tabs = tabulate_basis(tag, th, space, quad_order, domain=domain, region=region)
    return np.stack([np.asarray(t) for t in tabs])


def _local_kernel(th, entries, spaces, quad_order, domain, region):
    """Local arrays (NC, nlv) or (NC, nlv, nlu) for elementary entries on
    one domain; spaces is [test] for a linear form, [test, trial] for a
    bilinear one."""
    if domain == "2d":
        rule = triangle_rule(quad_order)
        measure = th.topo.area
    else:
        rule = segment_rule(quad_order)
        measure = th.topo.edge_length[region.edge_idx]
    w = rule.weight
    subscripts = ("p,ep,iep->ei", "p,ep,iep,jep->eij")[len(spaces) - 1]
    local = None
    for entry in entries:
        cc = coef_to_matrix(entry.coef, th, quad_order, domain=domain, region=region)
        tables = [_kernel_tables(th, space, side.terms[0].tag, quad_order,
                                 domain, region)
                  for space, side in zip(spaces, (entry.test, entry.trial))]
        blk = np.einsum(subscripts, w, cc, *tables, optimize=True)
        del tables                  # freed before the next entry tabulates
        local = blk if local is None else local + blk
    return local * measure.reshape((-1,) + (1,) * len(spaces))


def _dof_columns(th, space, domain, region):
    if domain == "2d":
        return th.dof_map(space).elem2dof
    return trace_dof_map(th, space, region)


def _scalar_assemble(th, form, test_space, trial_space, quad_order,
                     domain, region):
    """form holds elementary entries (see expand_extended)."""
    spaces = [fe_space(test_space)]
    if not form.is_linear:
        spaces.append(fe_space(trial_space if trial_space is not None
                               else test_space))
    dofs = [_dof_columns(th, s, domain, region) for s in spaces]
    sizes = [th.dof_map(s).num_dofs for s in spaces]
    if len(dofs[0]) == 0:           # empty region: a zero contribution
        local = np.zeros((0,) + tuple(d.shape[1] for d in dofs))
    else:
        local = _local_kernel(th, form.entries, spaces, quad_order,
                              domain, region)
    if form.is_linear:
        # bincount over an empty index would return integers
        return np.bincount(dofs[0].ravel(), weights=local.ravel(),
                           minlength=sizes[0]).astype(float, copy=False)
    rows, cols = dofs
    ii = np.broadcast_to(rows[:, :, None], local.shape).ravel()
    jj = np.broadcast_to(cols[:, None, :], local.shape).ravel()
    return SparseTriples(ii=ii.astype(np.int64), jj=jj.astype(np.int64),
                         ss=local.ravel(), nrows=sizes[0], ncols=sizes[1])


def assemble_scalar_2d(th, form, test_space, trial_space=None, quad_order=None):
    """Assemble a scalar form over all elements.

    Bilinear forms return SparseTriples, linear forms (trial absent) a
    dense load vector.  Test and trial spaces may differ.
    """
    form = expand_extended(_as_form(form))
    quad_order = _default_order(quad_order, test_space, trial_space)
    return _scalar_assemble(th, form, test_space, trial_space, quad_order,
                            "2d", None)


def assemble_scalar_1d(th, region, form, test_space, trial_space=None,
                       quad_order=None):
    """Assemble a scalar form over the boundary edges of one region.

    An empty region yields an all-zero contribution.
    """
    form = expand_extended(_as_form(form))
    quad_order = _default_order(quad_order, test_space, trial_space)
    return _scalar_assemble(th, form, test_space, trial_space, quad_order,
                            "1d", region)


def _as_form(form):
    if isinstance(form, VarForm):
        return form
    raise TypeError(f"expected a VarForm, got {type(form).__name__}; "
                    "build one with var_form(coef, test, trial)")


def _default_order(quad_order, *spaces):
    if quad_order is not None:
        return quad_order
    return max(fe_space(s).degree for s in spaces if s is not None) + 2


def _expand_vector_shorthand(form, th, spaces, quad_order, domain, region):
    """Rewrite linear entries 'v.val' against a multi-component
    coefficient into per-component entries (f1*v1 + f2*v2 + ...)."""
    ncomp = len(spaces)
    out = []
    for entry in form:
        sym = entry.test.terms[0].symbol if len(entry.test) == 1 else None
        if entry.trial is None and ncomp > 1 and sym == "v":
            if entry.test.terms[0].tag != "val":
                raise FormError("vector shorthand requires Test = 'v.val'")
            coefs = _split_components(entry.coef, th, ncomp, quad_order,
                                      domain, region)
            for c, cc in enumerate(coefs):
                out.append(FormEntry(cc, TermSum((_vterm(c),)), None))
        else:
            out.append(entry)
    return VarForm(entries=tuple(out))


def _vterm(c):
    return Term(symbol=f"v{c + 1}", tag="val")


def _split_components(coef, th, ncomp, quad_order, domain, region):
    if isinstance(coef, (list, tuple)):
        if len(coef) != ncomp:
            raise FormError(f"vector shorthand got {len(coef)} coefficient "
                            f"components for {ncomp} test components")
        return list(coef)
    if callable(coef):
        from .fespace import edge_quad_points, quad_points_2d
        if domain == "2d":
            rule = triangle_rule(quad_order)
            pts = quad_points_2d(th.mesh, rule)
        else:
            rule = segment_rule(quad_order)
            pts = edge_quad_points(th, region, rule)
        shape = pts.shape[:2]
        vals = np.asarray(coef(pts.reshape(-1, 2)), dtype=float)
        if vals.ndim != 2 or vals.shape[1] != ncomp:
            raise FormError(f"vector shorthand coefficient must return {ncomp} "
                            f"components per point, got shape {vals.shape}")
        return [vals[:, c].reshape(shape) for c in range(ncomp)]
    raise FormError("vector shorthand coefficient must be a function or a "
                    "sequence of per-component coefficients")


def assemble_system(th, form, spaces, quad_order=None, domain="2d", region=None):
    """Assemble a (possibly multi-component) form.

    Entries are grouped into blocks by test/trial component; each block
    runs the scalar kernel and its triples are offset by the cumulative
    dof counts.  Bilinear forms return an AssembledSystem, linear forms
    the concatenated load vector.
    """
    form = _as_form(form)
    spaces = tuple(fe_space(s) for s in _aslist(spaces))
    ncomp = len(spaces)
    quad_order = _default_order(quad_order, *spaces)
    nndofu = tuple(th.dof_map(s).num_dofs for s in spaces)
    offsets = np.concatenate([[0], np.cumsum(nndofu)])
    total = int(offsets[-1])

    form = expand_extended(form)
    form = _expand_vector_shorthand(form, th, spaces, quad_order, domain, region)

    if form.is_linear:
        rhs = np.zeros(total)
        for entry in form:
            c = _component_index(entry.test.terms[0].symbol, "v", ncomp)
            sub = VarForm(entries=(entry,))
            vec = _scalar_assemble(th, sub, spaces[c], None, quad_order,
                                   domain, region)
            rhs[offsets[c]:offsets[c + 1]] += vec
        return rhs

    blocks = {}
    for entry in form:
        ci = _component_index(entry.test.terms[0].symbol, "v", ncomp)
        cj = _component_index(entry.trial.terms[0].symbol, "u", ncomp)
        blocks.setdefault((ci, cj), []).append(entry)
    return _block_system(spaces, nndofu, (
        ((ci, cj), _scalar_assemble(th, VarForm(entries=tuple(entries)),
                                    spaces[ci], spaces[cj], quad_order,
                                    domain, region))
        for (ci, cj), entries in blocks.items()))


def system_from_blocks(th, spaces, blocks):
    """Build an AssembledSystem from scalar block triples.

    blocks maps (row component, column component) to SparseTriples (or
    None for a zero block); the triples get the cumulative dof offsets.
    """
    spaces = tuple(fe_space(s) for s in _aslist(spaces))
    nndofu = tuple(th.dof_map(s).num_dofs for s in spaces)
    return _block_system(spaces, nndofu, blocks.items())


def _block_system(spaces, nndofu, blocks):
    """One AssembledSystem from ((ci, cj), triples) pairs: each block is
    shape-checked, offset by the cumulative dof counts and concatenated;
    None blocks are skipped."""
    offsets = np.concatenate([[0], np.cumsum(nndofu)])
    total = int(offsets[-1])
    ii, jj, ss = [], [], []
    for (ci, cj), triples in blocks:
        if triples is None:
            continue
        expected = (nndofu[ci], nndofu[cj])
        if (triples.nrows, triples.ncols) != expected:
            raise ValueError(f"block ({ci}, {cj}) has shape "
                             f"{(triples.nrows, triples.ncols)}, expected {expected}")
        ii.append(triples.ii + offsets[ci])
        jj.append(triples.jj + offsets[cj])
        ss.append(triples.ss)
    combined = SparseTriples(
        ii=np.concatenate(ii) if ii else np.empty(0, np.int64),
        jj=np.concatenate(jj) if jj else np.empty(0, np.int64),
        ss=np.concatenate(ss) if ss else np.empty(0),
        nrows=total, ncols=total)
    return AssembledSystem(triples=combined, nndofu=nndofu, spaces=spaces)
