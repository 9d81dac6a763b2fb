"""The package surface: one export list, and every export has a caller.

bpre.__all__ is the sorted list of the names __init__.py imports, each
imported once, with no submodule among them.  Every exported name has a
caller outside its own definition: a use is a name, an attribute, an
imported name or a string equal to the name, in a bpre module other than
__init__.py or in the acceptance tests.  Uses inside the name's own
function or class body do not count.  bench/ is no caller: what only the
benchmark uses stays in its module, off the package's exports
(tests/test_bench_api.py binds those names).  Each error's code, the
CLI's error contract, is its class name without "Error".
"""

import ast
import types
from pathlib import Path

import bpre
from bpre import errors

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "bpre" / "__init__.py"
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


def test_exports_are_sorted_and_unique():
    assert bpre.__all__ == sorted(set(bpre.__all__))


def test_no_submodule_is_exported():
    assert [name for name in bpre.__all__
            if isinstance(getattr(bpre, name), types.ModuleType)] == []


def test_exports_are_the_names_init_imports():
    imported = [alias.asname or alias.name for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert bpre.__all__ == sorted(imported)


def test_each_error_code_is_its_class_name():
    found = {name: cls.code for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.BPREError)
             and cls is not errors.BPREError}
    exported = {name for name in bpre.__all__ if name.endswith("Error")}
    assert set(found) == exported - {"BPREError"}
    assert found == {name: name.removesuffix("Error") for name in found}
