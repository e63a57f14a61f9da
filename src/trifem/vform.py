"""The (Coef, Test, Trial) variational-form language.

A form is a list of entries, each pairing a coefficient with a test
term sum and (for bilinear forms) a trial term sum.  ``expand_extended``
rewrites every entry into elementary single-term products, distributing
'+'-joined sums and splitting grad.grad pairs into dx/dy products.
``standardize_symbols`` renames user symbols (say 'q', 'dp') to the
standard component names v1..vm / u1..un.  ``coef_to_matrix`` turns any
of the three coefficient forms (function or constant, finite element
function, precomputed matrix) into the per-cell-per-quadrature-point
coefficient matrix the assembly kernels consume; the cells, their
points and their dofs come from one ``fespace.Cells``.
"""

from dataclasses import dataclass

import numpy as np

# coef_matrix_from_dofs, quad_points_2d unused here; perfbench/spans.py wraps them
from .fespace import (Cells, FeFunction, FormError, coef_matrix_from_dofs,
                      quad_points_2d)
from .terms import Term, TermSum, parse_term_sum

__all__ = ["FormEntry", "VarForm", "var_form", "expand_extended",
           "standardize_symbols", "coef_to_matrix", "FormError"]


@dataclass(frozen=True)
class FormEntry:
    coef: object
    test: TermSum
    trial: TermSum | None


@dataclass(frozen=True)
class VarForm:
    """Parallel (Coef, Test, Trial) lists; trial is None in every entry
    of a linear form."""

    entries: tuple

    def __post_init__(self):
        kinds = {e.trial is None for e in self.entries}
        if len(kinds) != 1:
            raise FormError("form mixes entries with and without trial terms"
                            if kinds else "a form needs at least one entry")

    @property
    def is_linear(self):
        return self.entries[0].trial is None

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def _aslist(x):
    if isinstance(x, (list, tuple)):
        return list(x)
    return [x]


def var_form(coef, test, trial=None):
    """Build a VarForm from paper-style lists (or single entries).

    With a single test term, a list-valued coefficient is that entry's
    (multi-component) coefficient; with a list of test terms the
    coefficient list runs parallel to it.
    """
    if isinstance(test, (list, tuple)):
        coefs = _aslist(coef)
        tests = [parse_term_sum(t) for t in test]
    else:
        coefs = [coef]
        tests = [parse_term_sum(test)]
    if len(coefs) != len(tests):
        raise FormError(f"{len(coefs)} coefficients for {len(tests)} test terms")
    if trial is None:
        trials = [None] * len(tests)
    else:
        trials = [parse_term_sum(t) for t in _aslist(trial)]
        if len(trials) != len(tests):
            raise FormError(f"{len(trials)} trial terms for {len(tests)} test terms")
    return VarForm(entries=tuple(FormEntry(c, t, u)
                                 for c, t, u in zip(coefs, tests, trials)))


def _split_grad_pair(vterm, uterm):
    """grad x grad -> (dx, dx) + (dy, dy); reject grad against a scalar tag."""
    if vterm.tag == "grad" or uterm.tag == "grad":
        if vterm.tag != uterm.tag:
            raise FormError(f"cannot pair {vterm} with {uterm}: 'grad' must "
                            "face 'grad' on the other side")
        return [(Term(vterm.symbol, "dx"), Term(uterm.symbol, "dx")),
                (Term(vterm.symbol, "dy"), Term(uterm.symbol, "dy"))]
    return [(vterm, uterm)]


def expand_extended(form):
    """Distribute term sums into elementary single-term combinations.

    Each entry with m test terms and n trial terms becomes m*n entries,
    all carrying the original coefficient; grad.grad pairs then split
    into their dx/dy products.  Idempotent on already-elementary forms.
    """
    out = []
    for entry in form:
        if entry.trial is None:
            for vterm in entry.test:
                if vterm.tag == "grad":
                    raise FormError(f"'{vterm}' is not allowed in a linear form")
                out.append(FormEntry(entry.coef, TermSum((vterm,)), None))
            continue
        for vterm in entry.test:
            for uterm in entry.trial:
                for v, u in _split_grad_pair(vterm, uterm):
                    out.append(FormEntry(entry.coef, TermSum((v,)), TermSum((u,))))
    return VarForm(entries=tuple(out))


def standardize_symbols(vstr, ustr, form):
    """Rename user test/trial symbols to the standard v1../u1.. names.

    vstr and ustr list the user's symbols in component order; the symbol
    at position i becomes v{i+1} or u{i+1}.
    """
    vmap = {s: f"v{i + 1}" for i, s in enumerate(vstr)}
    umap = {s: f"u{i + 1}" for i, s in enumerate(ustr or ())}

    def rename(ts, mapping, side):
        if ts is None:
            return None
        renamed = []
        for t in ts:
            if t.symbol not in mapping:
                raise FormError(f"{side} symbol {t.symbol!r} not found in "
                                f"{sorted(mapping)}")
            renamed.append(Term(mapping[t.symbol], t.tag))
        return TermSum(tuple(renamed))

    entries = tuple(FormEntry(e.coef, rename(e.test, vmap, "test"),
                              rename(e.trial, umap, "trial"))
                    for e in form)
    return VarForm(entries=entries)


def coef_to_matrix(coef, th, quad_order, region=None, block=None):
    """Normalize any coefficient form to a coefficient matrix.

    Functions and constants are evaluated at the quadrature points of
    every element (or region edge); a FeFunction is evaluated from its
    dof vector; a ready matrix is passed through after a shape check.
    On a region's edges a 2-component function is contracted with the
    outward normal, as for flux data.  ``block``, a slice of the cells
    (see fespace.Cells), gives the matrix of those cells only.
    """
    cells = Cells(th, quad_order, region, block)
    if isinstance(coef, FeFunction):
        return cells.fe_values(coef.dofs, coef.space)
    if callable(coef):
        return cells.values(coef)
    arr = np.asarray(coef, dtype=float)
    if arr.ndim == 0:
        return np.full(cells.shape, float(arr))
    want = Cells(th, quad_order, region).shape
    if arr.shape != want:
        raise FormError(f"coefficient matrix has shape {arr.shape}, "
                        f"expected {want}")
    return cells.part(arr)
