"""FreeFEM mesh/solution file ingestion and CSV result tables.

The ``.msh`` layout (FreeFEM's ``savemesh`` for 2D) is::

    nv nt ne
    x y label        (nv vertex lines)
    i j k region     (nt triangle lines, 1-based indices)
    i j label        (ne edge lines, 1-based indices)

Indices are converted to 0-based on read; triangles with negative area
are flipped to counterclockwise.  Solution files are FreeFEM ofstream
arrays: the value count on the first line, then whitespace-separated
reals.  Whitespace handling is tolerant since FreeFEM wraps lines.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh2d, signed_area

__all__ = ["MshLabels", "read_freefem_msh", "read_freefem_solution",
           "write_results", "write_freefem_msh", "format_real"]


@dataclass(frozen=True)
class MshLabels:
    """Raw labels carried by a .msh file."""

    vertex_label: np.ndarray
    tri_region: np.ndarray
    edge: np.ndarray
    edge_label: np.ndarray


class MshFormatError(ValueError):
    """Malformed .msh or solution file."""


def _numbered_lines(path):
    with open(path, "r") as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if stripped:
                yield lineno, stripped


def read_freefem_msh(path):
    """Read a FreeFEM .msh file; returns (Mesh2d, MshLabels)."""
    lines = _numbered_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise MshFormatError(f"{path}: empty file, missing 'nv nt ne' header") from None
    parts = header.split()
    if len(parts) != 3:
        raise MshFormatError(f"{path}:{lineno}: malformed header {header!r}, "
                             "expected 'nv nt ne'")
    try:
        nv, nt, ne = (int(p) for p in parts)
    except ValueError:
        raise MshFormatError(f"{path}:{lineno}: non-integer header {header!r}") from None
    if min(nv, nt, ne) < 0:
        raise MshFormatError(f"{path}:{lineno}: negative count in header {header!r}")

    def read_block(count, kind, *types):
        """count lines of len(types) fields; column j as an array of
        types[j], each field parsed by it, so '3.9' is no index."""
        cols = [np.empty(count, dtype=t) for t in types]
        for k in range(count):
            try:
                lineno, text = next(lines)
            except StopIteration:
                raise MshFormatError(
                    f"{path}: truncated file, expected {count} {kind} lines "
                    f"but found {k}") from None
            fields = text.split()
            if len(fields) != len(types):
                raise MshFormatError(f"{path}:{lineno}: expected {len(types)} "
                                     f"fields on {kind} line, got {len(fields)}")
            try:
                for col, t, f in zip(cols, types, fields):
                    col[k] = t(f)
            except (ValueError, OverflowError):
                raise MshFormatError(f"{path}:{lineno}: bad {kind} record "
                                     f"{text!r}") from None
        return cols

    x, y, vertex_label = read_block(nv, "vertex", float, float, int)
    *tri, tri_region = read_block(nt, "triangle", int, int, int, int)
    *bd, edge_label = read_block(ne, "edge", int, int, int)

    leftover = next(lines, None)
    if leftover is not None:
        raise MshFormatError(f"{path}:{leftover[0]}: unexpected extra data "
                             f"after the declared records")

    node = np.column_stack([x, y])
    elem = np.column_stack(tri) - 1
    if elem.size and (elem.min() < 0 or elem.max() >= nv):
        raise MshFormatError(f"{path}: triangle vertex index out of range 1..{nv}")
    edge = np.column_stack(bd) - 1
    if edge.size and (edge.min() < 0 or edge.max() >= nv):
        raise MshFormatError(f"{path}: edge vertex index out of range 1..{nv}")

    # reorient clockwise triangles; Mesh2d computes and checks the areas,
    # and rejects a non-finite node (whose areas may be NaN)
    with np.errstate(invalid="ignore"):
        flip = signed_area(node, elem) < 0
    elem[flip] = elem[flip][:, [0, 2, 1]]

    try:
        mesh = Mesh2d(node=node, elem=elem)
        mesh.topology       # built here, so a nonconforming edge names the file
    except ValueError as exc:
        raise MshFormatError(f"{path}: {exc}") from exc
    labels = MshLabels(vertex_label=vertex_label, tri_region=tri_region,
                       edge=edge, edge_label=edge_label)
    return mesh, labels


def read_freefem_solution(path):
    """Read a FreeFEM ofstream array: declared length, then the values."""
    with open(path, "r") as f:
        tokens = f.read().split()
    if not tokens:
        raise MshFormatError(f"{path}: empty solution file")
    try:
        n = int(tokens[0])
    except ValueError:
        raise MshFormatError(f"{path}: first token {tokens[0]!r} is not "
                             "the value count") from None
    values = tokens[1:]
    if len(values) != n:
        raise MshFormatError(f"{path}: declared {n} values but found "
                             f"{len(values)}")
    try:
        return np.array([float(v) for v in values])
    except ValueError:
        raise MshFormatError(f"{path}: non-numeric value in solution data") from None


def format_real(v):
    """Scientific notation with 6 significant digits (2.53816e-05 style)."""
    return f"{v:.5e}"


def _format_cell(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_real(float(v))


def write_results(path, headers, columns):
    """Write a rectangular results table as CSV.

    Integer columns print as integers, reals in 6-significant-digit
    scientific notation.
    """
    columns = [list(c) for c in columns]
    if len(columns) != len(headers):
        raise ValueError(f"{len(headers)} headers for {len(columns)} columns")
    if columns and len({len(c) for c in columns}) > 1:
        raise ValueError("columns have unequal lengths")
    nrows = len(columns[0]) if columns else 0
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(headers)
        for r in range(nrows):
            writer.writerow([_format_cell(col[r]) for col in columns])


def write_freefem_msh(path, mesh, vertex_label=None, tri_region=None,
                      boundary=None, boundary_label=None):
    """Write a mesh as a FreeFEM .msh file (test fixtures, conversion)."""
    node, elem = mesh.node, mesh.elem
    if vertex_label is None:
        vertex_label = np.zeros(len(node), dtype=int)
    if tri_region is None:
        tri_region = np.zeros(len(elem), dtype=int)
    if boundary is None:
        boundary = np.empty((0, 2), dtype=int)
        boundary_label = np.empty(0, dtype=int)
    if boundary_label is None:
        boundary_label = np.ones(len(boundary), dtype=int)
    with open(path, "w") as f:
        f.write(f"{len(node)} {len(elem)} {len(boundary)}\n")
        for (x, y), lab in zip(node, vertex_label):
            f.write(f"{float(x)!r} {float(y)!r} {int(lab)}\n")
        for (i, j, k), reg in zip(elem, tri_region):
            f.write(f"{i + 1} {j + 1} {k + 1} {int(reg)}\n")
        for (i, j), lab in zip(boundary, boundary_label):
            f.write(f"{i + 1} {j + 1} {int(lab)}\n")
