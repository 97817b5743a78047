"""Source hygiene of the package, checked with the standard ast module.

Two checks a linter would make: every name a module under src/acmcurves
imports is read in that module (the package __init__, whose table names its
exports, excepted), and every private module-level name, one with a leading
underscore that is not a dunder, is referenced by some module under src/.
A third keeps the import direction README's quick tour states: a module
imports from the package only modules to its left in the chain.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "acmcurves"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(SRC.glob("*.py"))}


def _read_names(tree):
    """The names a module reads: every Name not being assigned."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _imported_names(tree):
    """The names an import statement anywhere in the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name.split(".")[0]


def _private_definitions(tree):
    """The private names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name


def _references(tree):
    """Every name a module reads, as a bare name, an attribute or an import."""
    names = _read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_import_is_used(module):
    tree = MODULES[module]
    assert sorted(set(_imported_names(tree)) - _read_names(tree)) == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_name_is_referenced(module):
    referenced = set().union(*(_references(tree) for tree in MODULES.values()))
    assert sorted(set(_private_definitions(MODULES[module])) - referenced) == []


def test_the_checks_see_an_unused_import_and_an_unreferenced_private_name():
    tree = ast.parse("import json\nfrom math import gcd, lcm\n_X = lcm(1, 2)\n"
                     "def _unused():\n    return _X\n")
    assert sorted(set(_imported_names(tree)) - _read_names(tree)) == ["gcd", "json"]
    assert sorted(set(_private_definitions(tree)) - _references(tree)) == ["_unused"]


def _import_chain():
    """The modules in README's stated import direction, first to last."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    chain = re.search(r"import each other in one direction,\s+(\w+(?:\s+→\s+\w+)+)", readme)
    return re.split(r"\s+→\s+", chain.group(1))


def _package_imports(tree):
    """The package modules a module imports from: relative imports, and
    absolute ones of acmcurves.<module>."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                yield node.module.split(".")[0]
            elif node.level:  # from . import x
                yield from (alias.name for alias in node.names)
            elif (node.module or "").startswith("acmcurves."):
                yield node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            yield from (alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("acmcurves."))


def test_the_import_chain_names_every_module():
    assert sorted(_import_chain()) == sorted(set(MODULES) - {"__init__"})


@pytest.mark.parametrize("module", _import_chain())
def test_imports_follow_the_chain(module):
    chain = _import_chain()
    left = set(chain[: chain.index(module)])
    assert sorted(set(_package_imports(MODULES[module])) - left) == []


def test_the_direction_check_reads_every_form_of_package_import():
    tree = ast.parse("from .cyclo import zeta\nfrom .exprs import Line\nfrom . import surfaces\n"
                     "import acmcurves.cli\nfrom acmcurves.divisors import pair\n")
    assert sorted(_package_imports(tree)) == ["cli", "cyclo", "divisors", "exprs", "surfaces"]
