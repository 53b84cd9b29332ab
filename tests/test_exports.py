"""The package's public names all have a caller outside the tests.

A static scan: every name ``fpeps/__init__`` exports, and every public
top-level function and class of an ``fpeps`` module, must be referenced
outside its own definition in the package (the ``cli.cmd_*`` commands
among it) or in ``perfbench/``.  In the package a reference is a name or an
attribute; ``perfbench/`` also reaches the package by name, through the
strings of its traced spans, so there a string naming the attribute counts
too.  A name that only the tests call belongs in ``tests/``.
"""
import ast
from pathlib import Path

import fpeps

PACKAGE = Path(fpeps.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# Kept with no caller yet, each for a planned command that will call it:
ALLOWED_UNCALLED = {
    "dirac_to_majorana",   # the 3x3 ground-state example prints its table in Majorana form
    "majorana_to_dirac",   # and reads it back
    "asymptotic_scaled",   # `verify --suite critical`: the correlator kernel it fits
    "fitted_scale",        # and the fit itself
}


class _References(ast.NodeVisitor):
    """Names and attributes used in a module, each outside its own definition."""

    def __init__(self, strings: bool):
        self.strings = strings
        self.inside: list[str] = []
        self.names: set[str] = set()

    def _definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str):
            for part in node.value.split("."):
                self._use(part)


def _referenced() -> set[str]:
    names = set()
    for path, strings in [(p, False) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + [
            (p, True) for p in PERFBENCH.glob("*.py")]:
        refs = _References(strings)
        refs.visit(ast.parse(path.read_text(), str(path)))
        names |= refs.names
    return names


def _public_names() -> set[str]:
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    names = {alias.asname or alias.name for node in init.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    for path in PACKAGE.glob("*.py"):
        names |= {node.name for node in ast.parse(path.read_text()).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    public = _public_names()
    assert ALLOWED_UNCALLED <= public
    uncalled = sorted(public - _referenced() - ALLOWED_UNCALLED)
    assert not uncalled, f"public names only the tests call: {uncalled}"
