"""Every public function and class of the library has a user: it is exported
in `xvine.__all__` or some module of the package refers to it."""
from __future__ import annotations

import ast
from pathlib import Path

import xvine

SRC = Path(xvine.__file__).parent
MODULES = ("families", "model", "simulate", "estimate", "vines", "numerics")


def _references(tree: ast.AST):
    """The names a module refers to in code: loads, attributes and imports,
    not words in its docstrings or comments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_is_exported_or_referenced():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used = set(xvine.__all__).union(*(_references(t) for t in trees.values()))
    dead = [f"{m}.{node.name}" for m in MODULES for node in trees[m].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in used]
    assert not dead, f"public names that nothing in xvine exports or refers to: {dead}"
