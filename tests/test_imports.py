"""Every name a trifem module imports is used in that module, every
name in its ``__all__`` is defined there, no module calls the builtins
that run strings as code, and no function takes a topology beside its
mesh.

No linter ships with the project, so this parses each module with
``ast`` and fails on an imported name that the module never reads, an
exported name that it never binds, a call of bare ``eval``, ``exec`` or
``compile``, or a function with both a ``mesh`` and a ``topo``
parameter.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trifem"

# imported only so that perfbench/spans.py can wrap them in that module
PERFBENCH_HOOKS = {
    "problems.evaluate_at_points",
    "system.coef_matrix_from_dofs",
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


def _code_running_calls(source):
    """Bare calls of the builtins that run a string as code; a method
    such as re.compile is an attribute and is not one."""
    return {node.func.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("eval", "exec", "compile")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_runs_a_string_as_code(path):
    assert _code_running_calls(path.read_text()) == set()


@pytest.mark.parametrize("source, calls", [
    ("eval('1')\n", {"eval"}),
    ("exec(s)\ncode = compile(s, 'f', 'eval')\n", {"exec", "compile"}),
    ("import re\nre.compile('a')\n", set()),
    ("import ast\nast.parse('1', mode='eval')\n", set()),
    ("def f(g):\n    return g(evaluate=1)\n", set()),
])
def test_the_code_check_sees_bare_calls_only(source, calls):
    assert _code_running_calls(source) == calls


def _topology_beside_mesh(source):
    """Functions that take both a ``mesh`` and a ``topo`` parameter: a
    mesh keeps its own topology (``Mesh2d.topology``), so a second one
    could only disagree with it."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if {"mesh", "topo"} <= names:
                found.add(getattr(node, "name", "<lambda>"))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_takes_a_topology_beside_its_mesh(path):
    assert _topology_beside_mesh(path.read_text()) == set()


@pytest.mark.parametrize("source, found", [
    ("def f(mesh, topo, space): pass\n", {"f"}),
    ("def f(mesh, *, topo=None): pass\n", {"f"}),
    ("class C:\n    def m(self, topo, mesh): pass\n", {"m"}),
    ("g = lambda mesh, topo: topo\n", {"<lambda>"}),
    ("def f(topo, labels): pass\n", set()),
    ("def f(mesh):\n    def g(topo): pass\n", set()),
    ("def f(mesh, topology): pass\n", set()),
])
def test_the_topology_check_sees_each_signature(source, found):
    assert _topology_beside_mesh(source) == found
