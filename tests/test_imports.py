"""No module of the package imports a name it never uses, no top-level
function or class and no method or property of the package goes unused,
and every name the package exports exists.

A top-level definition is used when package code outside it names it, when
``finitary.__all__`` exports it, or when a click group registers it as a
command.  A method or property is used when another statement of the
package names it, its own class's other members included; dunders and
overrides of a base class from outside the package (click's hooks) need
no such use.  ``KEEP`` lists, each with its reason, what stays although no
package code uses it: names that ``perfbench/tracing.py`` wraps by module
and attribute, a method as ``"Class.method"``.  They go once the tracer
stops resolving them.
"""

import ast
import importlib
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
    ("finitary.cli", "test_equivalence_pfa"):
        "span cli.test_equivalence_pfa wraps it where cli imports it",
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


def _unused_members(module, node, others, classes, keep) -> list[str]:
    """Methods and properties of class ``node`` that none of ``others`` and
    none of the class's other members names."""
    outside = [base for base in classes[module, node.name].__mro__[1:]
               if base not in classes.values()]
    unused = []
    for member in node.body:
        if not isinstance(member, ast.FunctionDef):
            continue
        name = member.name
        if (name.startswith("__") and name.endswith("__")
                or any(hasattr(base, name) for base in outside)
                or (module, f"{node.name}.{name}") in keep):
            continue
        if not any(name in _names(other)
                   for other in others + node.body if other is not member):
            unused.append(f"{module}.{node.name}.{name}")
    return unused


def unused_definitions(statements, classes, exported, keep) -> list[str]:
    """Unused top-level definitions and members among ``statements``,
    ``(module, node)`` pairs, with ``classes`` the class object of every
    class statement by ``(module, name)``."""
    unused = []
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        others = [other for _, other in statements if other is not node]
        if not (node.name in exported or _registered(node)
                or (module, node.name) in keep
                or any(node.name in _names(other) for other in others)):
            unused.append(f"{module}.{node.name}")
        if isinstance(node, ast.ClassDef):
            unused += _unused_members(module, node, others, classes, keep)
    return unused


def package_statements():
    """The package's top-level statements and its classes, as
    ``unused_definitions`` takes them."""
    statements = [(_module(path), node)
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    classes = {(module, node.name):
               getattr(importlib.import_module(module), node.name)
               for module, node in statements
               if isinstance(node, ast.ClassDef)}
    return statements, classes


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_no_unused_definitions():
    # a function or method that only tests call belongs with the tests
    assert unused_definitions(*package_statements(), finitary.__all__,
                              KEEP) == []


PLANTED = """
import click


class Option(click.Option):
    def __init__(self, *args):
        super().__init__(*args)

    def process_value(self, ctx, value):
        return self._helper(value)

    def _helper(self, value):
        return value

    def traced(self):
        pass

    def orphan(self):
        pass


class Plain:
    def process_value(self, ctx, value):
        return value
"""


def test_unused_members_are_found():
    # a dunder, a click override, a member its sibling calls and a kept
    # member pass; the unused member and the same hook name on a class
    # with no outside base do not
    statements = [("planted", node) for node in ast.parse(PLANTED).body]
    namespace = {}
    exec(PLANTED, namespace)
    classes = {("planted", name): namespace[name]
               for name in ("Option", "Plain")}
    exported = ("Option", "Plain")
    keep = {("planted", "Option.traced"): "a traced method"}
    assert unused_definitions(statements, classes, exported, keep) == [
        "planted.Option.orphan", "planted.Plain.process_value"]
    assert unused_definitions(statements, classes, exported, {}) == [
        "planted.Option.traced", "planted.Option.orphan",
        "planted.Plain.process_value"]


def test_every_kept_name_is_traced():
    # a reason that no longer holds should take its name off the list
    assert sorted(set(KEEP) - set(TARGETS)) == []


def test_every_export_exists():
    # a stale name in ``__all__`` breaks ``from finitary import *``
    assert [name for name in finitary.__all__
            if not hasattr(finitary, name)] == []
