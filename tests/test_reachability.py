"""Every module-level function and class of the package, and every method
and property of its classes, is used inside it.

A definition that only tests reach is code the program never runs.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "visdep"


def _trees(src: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}


def _names(node: ast.AST) -> Counter:
    """How often ``node`` refers to each name: bare, as an attribute, or imported."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _attributes(node: ast.AST) -> Counter:
    """How often ``node`` reads or writes each name as an attribute (``x.name``)."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unreferenced(src: Path) -> list[str]:
    """``module:name`` of each module-level def or class in ``src/*.py``
    that no code in ``src`` outside its own definition refers to."""
    trees = _trees(src)
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and everywhere[node.name] == _names(node)[node.name]
    ]


def unreferenced_members(src: Path) -> list[str]:
    """``module:Class.name`` of each method or property, dunders aside, of a
    class in ``src/*.py`` whose name no attribute reference in ``src`` outside
    its own definition uses.

    Only attribute references count: a method is reached as ``obj.name``, and
    a local variable of the same name does not reach it.  A name shared with
    another type's attribute, such as ``copy`` with ``ndarray.copy``, still
    hides a method.
    """
    trees = _trees(src)
    everywhere = sum((_attributes(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{cls.name}.{node.name}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and everywhere[node.name] == _attributes(node)[node.name]
    ]


def test_every_module_level_definition_is_referenced():
    assert unreferenced(SRC) == []


def test_every_method_and_property_is_referenced():
    assert unreferenced_members(SRC) == []
