"""Every public function, class and module-level constant of the library has
a user: it is exported in `xvine.__all__` or some module of the package
refers to it. And the three jobs reach the family formulas only through the
records, never through the public family kernels."""
from __future__ import annotations

import ast
from pathlib import Path

import xvine

SRC = Path(xvine.__file__).parent
MODULES = ("families", "model", "simulate", "estimate", "vines", "numerics")


def _references(tree: ast.AST):
    """The names a module refers to in code: loads, attributes and imports,
    not assignments or words in its docstrings or comments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _defined(body):
    """The names a module defines at its top level: functions, classes and
    the targets of assignments."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id


def test_every_public_name_is_exported_or_referenced():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    used = set(xvine.__all__).union(*(_references(t) for t in trees.values()))
    dead = [f"{m}.{name}" for m in MODULES for name in _defined(trees[m].body)
            if not name.startswith("_") and name not in used]
    assert not dead, f"public names that nothing in xvine exports or refers to: {dead}"


#: The public family kernels: doors for users, which check their input again.
DOORS = ("tail_log_density", "tail_density", "tail_h", "tail_h_inv",
         "prepare_tail_log_density", "pair_log_density", "pair_density", "pair_h",
         "pair_h_inv", "prepare_pair_log_density")


def test_the_jobs_call_the_records_not_the_doors():
    for m in ("model", "simulate", "estimate"):
        used = sorted(set(_references(ast.parse((SRC / f"{m}.py").read_text()))) & set(DOORS))
        assert not used, f"{m} calls the family doors {used}"
