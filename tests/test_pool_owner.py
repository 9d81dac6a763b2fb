"""The pool rule has one owner.

simulate.map_replicas decides how many processes a map runs on and reports
them; the samplers carry that count into their records.  The rule's names,
processes, POOL_STEPS and tree_steps (the steps a cell tree costs under
it), are named only in simulate.py and cells.py: no other module imports
them, reads them or re-derives the count.  A record field of the same name
(`res.processes`, a NamedTuple's `processes: int`) is no use of the rule.
Only map_replicas names ProcessPoolExecutor, and only simulate.py names
WORKERS_MAX, the ceiling map_replicas checks before any pool starts.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bpre"
RULE = {"processes", "POOL_STEPS", "tree_steps"}
OWNERS = {"simulate.py", "cells.py"}


def rule_names(tree: ast.AST) -> set:
    """Rule names tree imports, reads by bare name or reads off a bpre module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("simulate", "cells")):
            found.add(node.attr)
    return found & RULE


def callers(tree: ast.AST, name: str) -> list:
    """Functions that call name(...) by bare name."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            found += [fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name) and node.func.id == name]
    return found


def test_pool_rule_is_named_only_by_its_owners():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert OWNERS <= set(trees)
    assert {name: sorted(rule_names(tree)) for name, tree in trees.items()
            if name not in OWNERS and rule_names(tree)} == {}
    assert {name: callers(tree, "processes") for name, tree in trees.items()
            if callers(tree, "processes")} == {"simulate.py": ["map_replicas"]}


def names(node: ast.AST) -> set:
    """Every name node imports, binds or reads, bare or as an attribute."""
    return {sub.name if isinstance(sub, ast.alias) else
            sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.alias, ast.Name, ast.Attribute))}


def test_pool_and_its_ceiling_have_one_owner():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    pool = "ProcessPoolExecutor"
    assert {name: [fn.name for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and pool in names(fn)]
            for name, tree in trees.items() if pool in names(tree)} == {
                "simulate.py": ["map_replicas"]}
    assert [name for name, tree in trees.items() if "WORKERS_MAX" in names(tree)] == [
        "simulate.py"]
