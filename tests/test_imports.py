"""No module of the package imports a name it never uses, and every name
the package exports exists.

``perfbench/tracing.py`` wraps two names where ``equivalence.py`` imports
them, so those two imports stay although the module itself does not call
them.
"""

import ast
import pathlib

import pytest

import finitary

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "finitary"
TRACED = {("equivalence.py", "pfa_to_hmm"), ("equivalence.py", "compile_hmm")}


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
                  if (path.name, name) not in TRACED)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_every_export_exists():
    # a stale name in ``__all__`` breaks ``from finitary import *``
    assert [name for name in finitary.__all__
            if not hasattr(finitary, name)] == []
