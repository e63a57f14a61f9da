"""Every name a trifem module imports is used in that module, and every
name in its ``__all__`` is defined there.

No linter ships with the project, so this parses each module with
``ast`` and fails on an imported name that the module never reads, or
an exported name that it never binds.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trifem"

# imported only so that perfbench/spans.py can wrap them in that module
PERFBENCH_HOOKS = {
    "problems.evaluate_at_points",
    "system.compress",
    "system.quad_points_2d",
    "vform.coef_matrix_from_dofs",
    "vform.quad_points_2d",
}


def _unused_imports(source):
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)      # names in __all__ are exported
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def _undefined_exports(source):
    """Names in the module's __all__ that no top-level statement binds."""
    exported, bound = set(), set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported |= set(ast.literal_eval(node.value))
            bound |= names
    return exported - bound


# the package's __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    unused = {f"{path.stem}.{name}" for name in _unused_imports(path.read_text())}
    assert unused - PERFBENCH_HOOKS == set()


def test_every_perfbench_hook_is_still_imported_and_unused():
    # a hook that the module starts to use, or stops importing, leaves
    # this list; it should not outlive its reason
    unused = {f"{path.stem}.{name}" for path in MODULES
              for name in _unused_imports(path.read_text())}
    assert PERFBENCH_HOOKS <= unused


@pytest.mark.parametrize("source, unused", [
    ("import os\n", {"os"}),
    ("import os.path\nos.sep\n", set()),
    ("from a import b as c\nb = 1\n", {"c"}),
    ("from a import b\n__all__ = ['b']\n", set()),
    ("from __future__ import annotations\n", set()),
])
def test_the_check_sees_what_a_module_binds(source, unused):
    assert _unused_imports(source) == unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_exported_name_is_defined(path):
    assert _undefined_exports(path.read_text()) == set()


@pytest.mark.parametrize("source, undefined", [
    ("__all__ = ['f']\ndef f(): pass\n", set()),
    ("__all__ = ['C', 'gone']\nclass C: pass\n", {"gone"}),
    ("from a import b\nX: int = 1\n__all__ = ['b', 'X']\n", set()),
    ("def f():\n    g = 1\n__all__ = ['g']\n", {"g"}),
])
def test_the_export_check_sees_what_a_module_binds(source, undefined):
    assert _undefined_exports(source) == undefined
