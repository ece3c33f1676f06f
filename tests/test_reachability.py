"""Every module-level function and class of the package is used inside it.

A definition that only tests reach is code the program never runs.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "visdep"


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


def unreferenced(src: Path) -> list[str]:
    """``module:name`` of each module-level def or class in ``src/*.py``
    that no code in ``src`` outside its own definition refers to."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and everywhere[node.name] == _names(node)[node.name]
    ]


def test_every_module_level_definition_is_referenced():
    assert unreferenced(SRC) == []
