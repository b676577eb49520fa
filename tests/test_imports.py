"""No module of the package imports a name it never uses, no top-level
function or class of the package goes unused, and every name the package
exports exists.

A top-level definition is used when package code outside it names it, when
``finitary.__all__`` exports it, or when a click group registers it as a
command.  ``KEEP`` lists, each with its reason, what stays although no
package code uses it: names that ``perfbench/tracing.py`` wraps by module
and attribute.  They go once the tracer stops resolving them.
"""

import ast
import pathlib

import pytest

import finitary
from test_trace_targets import TARGETS

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "finitary"
KEEP = {
    ("finitary.equivalence", "pfa_to_hmm"):
        "span equivalence.pfa_to_hmm wraps it where equivalence imports it",
    ("finitary.equivalence", "compile_hmm"):
        "span equivalence.compile_hmm wraps it where equivalence imports it",
    ("finitary.basis", "reduce_rows"):
        "span basis.reduce_rows; only tests call it",
    ("finitary.representation", "LinearRepresentation.prob_bilinear"):
        "count prob_bilinear; only tests call it",
}


def _module(path: pathlib.Path) -> str:
    return f"finitary.{path.stem}"


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(name for name in imported - used - exported
                  if (_module(path), name) not in KEEP)


def _names(node) -> set[str]:
    """Every name that ``node`` mentions, imports or reads as an
    attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _registered(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def unused_definitions() -> list[str]:
    statements = [(_module(path), node)
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    unused = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if (node.name in finitary.__all__ or _registered(node)
                or (module, node.name) in KEEP):
            continue
        if not any(node.name in _names(other)
                   for _, other in statements if other is not node):
            unused.append(f"{module}.{node.name}")
    return unused


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_no_unused_definitions():
    # a function that only tests call belongs with the tests
    assert unused_definitions() == []


def test_every_kept_name_is_traced():
    # a reason that no longer holds should take its name off the list
    assert sorted(set(KEEP) - set(TARGETS)) == []


def test_every_export_exists():
    # a stale name in ``__all__`` breaks ``from finitary import *``
    assert [name for name in finitary.__all__
            if not hasattr(finitary, name)] == []
