"""Two engine rules have one owner each, and rare_event checks an event once.

The e^{cn} event bound (event_bound, event_threshold) lives in ratefn, which
the samplers, the oracles and the cell tree already import, so the sampler
layer (rng, simulate, rare_event) needs nothing from the exact-DP module and
the DP module nothing from the samplers.  The replica engine's int64-lane
limit is derived from EXACT_LIMIT only in simulate: branch and
Populations.start take it from the laws they step, and no caller passes it.
Each module imports only from the layers below it, so a module's imports
can move into its functions without making a cycle.  In rare_event, _event
builds the one Event record, (env, n, c, z0, side, ldr), and is the only
caller of lower_deviation_rate; _plan and _sample_and_weigh take that record
in place of its five loose values, and only _sample_and_weigh reads the
event's bound.  ratefn._check_side is the one side rule of event_bound,
_event and walk_tail.  branch draws only from positioned streams: its k has
no default and every call passes all five arguments, so the bench-only
branch_step hands in its generator as a stream that stands still; the
integer read-out of Populations is ints alone, with no value.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bpre"
SAMPLERS = ("rng.py", "simulate.py", "rare_event.py")
# the bpre modules each module may import from; cli may import any, and the
# package's __version__
LAYERS = {
    "errors.py": set(),
    "rng.py": set(),
    "envmodel.py": {"errors"},
    "ratefn.py": {"envmodel", "errors"},
    "simulate.py": {"envmodel", "errors", "rng"},
    "oracle.py": {"envmodel", "errors", "ratefn"},
    "rare_event.py": {"envmodel", "errors", "ratefn", "rng", "simulate"},
    "cells.py": {"envmodel", "errors", "oracle", "ratefn", "rng", "simulate"},
}


def imported_modules(tree: ast.AST) -> set:
    """bpre modules tree imports from: `from .m import x`, `from . import m`,
    `from bpre.m import x` or `import bpre.m`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "bpre"
                                                 or (node.module or "").startswith("bpre.")):
            if node.module in (None, "bpre"):
                found |= {alias.name for alias in node.names}
            else:
                found.add(node.module.rpartition(".")[2])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("bpre.")}
    return found


def named(tree: ast.AST) -> set:
    """Every name tree defines, imports, reads or reads off a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def defined(tree: ast.AST) -> set:
    """Functions defined at the top level of tree."""
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def callers(tree: ast.AST, callee: str) -> list:
    """Top-level functions of tree that call callee by name."""
    return sorted(node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                  and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id == callee for call in ast.walk(node)))


def modules() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_imported_modules_reads_every_import_form():
    tree = ast.parse("from .oracle import x\nfrom . import rng\nfrom bpre.cells import y\n"
                     "import bpre.simulate\nfrom numpy import oracle\nimport math\n")
    assert imported_modules(tree) == {"oracle", "rng", "cells", "simulate"}


def test_samplers_and_the_dp_module_do_not_import_each_other():
    trees = modules()
    assert {name: "oracle" in imported_modules(trees[name]) for name in SAMPLERS} \
        == dict.fromkeys(SAMPLERS, False)
    assert imported_modules(trees["oracle.py"]) & {"simulate", "rng", "rare_event",
                                                   "cells"} == set()


def test_event_bound_is_defined_only_in_ratefn():
    trees = modules()
    assert {name: sorted(defined(tree) & {"event_bound", "event_threshold"})
            for name, tree in trees.items()
            if defined(tree) & {"event_bound", "event_threshold"}} \
        == {"ratefn.py": ["event_bound", "event_threshold"]}
    assert [name for name, tree in trees.items() if "exp_cn" in named(tree)] == []


def test_exact_limit_is_named_only_in_simulate():
    trees = modules()
    assert [name for name, tree in trees.items() if "EXACT_LIMIT" in named(tree)] \
        == ["simulate.py"]
    params = {node.name: [arg.arg for arg in node.args.args]
              for node in ast.walk(trees["simulate.py"]) if isinstance(node, ast.FunctionDef)}
    assert params["branch"] == ["pop", "idx", "laws", "rngs", "k"]
    assert params["start"] == ["cls", "z0", "laws", "size"]


def test_each_module_imports_only_from_the_layers_below_it():
    trees = modules()
    library = {name.removesuffix(".py") for name in LAYERS}
    assert set(trees) == set(LAYERS) | {"cli.py", "__init__.py"}
    assert {name: sorted(imported_modules(trees[name]) - LAYERS[name]) for name in LAYERS} \
        == dict.fromkeys(LAYERS, [])
    assert imported_modules(trees["cli.py"]) <= library | {"__version__"}
    assert imported_modules(trees["__init__.py"]) == library


def test_rare_event_checks_an_event_once():
    tree = modules()["rare_event.py"]
    assert callers(tree, "lower_deviation_rate") == ["_event"]
    assert callers(tree, "event_bound") == ["_sample_and_weigh"]
    params = {node.name: [arg.arg for arg in node.args.args]
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert params["_plan"] == ["event", "method", "phase_fraction"]
    assert params["_sample_and_weigh"] == ["event", "plan", "seed", "replicas", "workers",
                                           "threshold", "capture"]
    assert "_check_env" not in params


def test_one_side_rule():
    # Populations.hit keeps its own check: simulate sits below ratefn
    trees = modules()
    assert {name: callers(trees[name], "_check_side")
            for name in ("ratefn.py", "rare_event.py", "oracle.py")} \
        == {"ratefn.py": ["event_bound"], "rare_event.py": ["_event"],
            "oracle.py": ["walk_tail"]}


def test_branch_draws_only_from_positioned_streams():
    trees = modules()
    top = {node.name: node for node in trees["simulate.py"].body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    params = top["branch"].args
    assert params.args[-1].arg == "k" and params.defaults == []
    calls = [(name, call.lineno, len(call.args) + len(call.keywords))
             for name, tree in trees.items() for call in ast.walk(tree)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
             and call.func.id == "branch"]
    assert sorted(name for name, _, _ in calls) == ["cells.py", "simulate.py", "simulate.py"]
    assert [call for call in calls if call[2] != 5] == []
    assert "value" not in {node.name for node in top["Populations"].body
                           if isinstance(node, ast.FunctionDef)}


def test_no_caller_passes_a_side_to_the_event_readers():
    # the side travels in the Event; a plan or a weighing never takes one
    sides = [(name, call.func.id) for name, tree in modules().items()
             for call in ast.walk(tree) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name)
             and call.func.id in ("_plan", "_sample_and_weigh")
             for arg in call.args + [kw.value for kw in call.keywords]
             if isinstance(arg, ast.Constant) and arg.value in ("lower", "upper")]
    assert sides == []
