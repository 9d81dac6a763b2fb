"""Every name bpre exports has a caller outside its own definition.

A use is a name, an attribute, an imported name or a string equal to the
name, in a bpre module other than __init__.py or in the acceptance tests.
Uses inside the name's own function or class body do not count.  bench/
is no caller: what only the benchmark uses stays in its module, off the
package's exports (tests/test_bench_api.py binds those names).
"""

import ast
from pathlib import Path

import bpre

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*(path for path in sorted((ROOT / "src" / "bpre").glob("*.py"))
             if path.name != "__init__.py"),
           ROOT / "tests" / "test_acceptance.py"]


def uses(node: ast.AST, own: frozenset = frozenset()) -> set:
    """Names node uses, less those of the definitions that enclose them."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Name):
        found = {node.id}
    elif isinstance(node, ast.Attribute):
        found = {node.attr}
    elif isinstance(node, ast.alias):
        found = {node.name}
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        found = {node.value}
    else:
        found = set()
    for child in ast.iter_child_nodes(node):
        found |= uses(child, own)
    return found - own


def test_every_export_has_a_caller():
    used = set().union(*(uses(ast.parse(path.read_text())) for path in SOURCES))
    assert sorted(set(bpre.__all__) - used) == []
