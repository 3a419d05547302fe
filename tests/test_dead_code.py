"""No module of the package carries dead code that its syntax tree shows:
an imported name the module never uses (``__init__.py`` imports to
re-export), or a private top-level function, class or assigned name that
no module of the package refers to."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "testlens"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> Counter:
    """The names ``node`` refers to: as a name, as an attribute, or as
    what a ``from`` import takes from a module."""
    refs: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            refs[child.id] += 1
        elif isinstance(child, ast.Attribute):
            refs[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            refs.update(alias.name for alias in child.names)
    return refs


def _imported(tree: ast.Module) -> list[str]:
    """The names the imports of ``tree`` bind, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _bound(target: ast.expr) -> list[str]:
    """The names an assignment to ``target`` binds: each name of a tuple
    or list target too, none of an attribute or subscript target."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for elt in target.elts for name in _bound(elt)]
    if isinstance(target, ast.Starred):
        return _bound(target.value)
    return []


def _private_definitions(tree: ast.Module):
    """(name, statement) of each private name a top-level ``def``,
    ``class`` or assignment of ``tree`` binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [name for target in node.targets for name in _bound(target)]
        elif isinstance(node, ast.AnnAssign):
            names = _bound(node.target)
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("name", [n for n in TREES if n != "__init__.py"])
def test_every_imported_name_is_used(name):
    tree = TREES[name]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in _imported(tree) if n not in used] == []


@pytest.mark.parametrize("name", list(TREES))
def test_every_private_top_level_definition_is_referenced(name):
    everywhere = sum(map(_references, TREES.values()), Counter())
    unreferenced = [
        defined for defined, node in _private_definitions(TREES[name])
        # a reference from inside its own statement (recursion, or the
        # assigned name itself) does not count
        if everywhere[defined] == _references(node)[defined]
    ]
    assert unreferenced == []
