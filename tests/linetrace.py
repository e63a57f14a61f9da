"""List the statements of trifem that no test executes.

Run from the repository root, with the tier-1 arguments or any others
pytest takes:

    PYTHONPATH=src python tests/linetrace.py [pytest arguments]

It runs pytest in this process under ``sys.settrace``, recording the
lines executed in frames whose code lies in ``src/trifem``; other
frames get no line events.  It then prints, as ``file:line``, each
statement that has code of its own and ran on none of its lines, and a
count.  A compound statement's own lines are its header (``if``,
``for``, ``def`` ...), not its body.  Beside pytest it needs only the
standard library, no coverage package.  Tests run in a subprocess are
not traced, and a statement the compiler folds into a jump (a
``continue`` that ends an ``if``) is listed though it ran.  The exit
status is pytest's.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trifem"


def _code_lines(code):
    """The lines that carry instructions in code and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree):
    """(statement, its own lines): the lines from its first to its last
    that no statement nested in it covers."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                own -= set(range(child.lineno, child.end_lineno + 1))
        yield node, own


def missed(path, hit):
    """Line numbers of the statements of path with code and no hit line."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    return sorted(node.lineno for node, own in _statements(ast.parse(source))
                  if own & executable and not own & hit)


def main(args):
    hits = {}
    ours = {}       # code filename -> its resolved path, or None if not ours

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in ours:
            path = Path(filename).resolve()
            ours[filename] = str(path) if path.parent == PACKAGE else None
        if ours[filename] is None:
            return None
        lines = hits.setdefault(ours[filename], set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(list(args))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line in missed(path, hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}")
            count += 1
    print(f"{count} statements of src/trifem ran in no test")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
