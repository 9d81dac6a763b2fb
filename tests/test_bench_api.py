"""The names and call shapes that the benchmark in bench/ takes from bpre.

bench/ changes only with the benchmark itself, so bpre keeps what it uses:
the names it imports from bpre modules, the functions its traced pass
wraps (bench/layers.py's TRACED table), and the argument shapes of the
calls it times.  A rename or a signature change in src/bpre would break
the benchmark without failing any other test.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

from bpre.cells import expected_count_identity
from bpre import cli
from bpre.cli import main
from bpre.oracle import (ConditionalTrajectoryResult, conditional_trajectory,
                         population_distribution)
from bpre.rare_event import (EstimatorResult, LowerTailEstimate, RatePoint,
                             TakeOffResult, TrajectoryProfile, conditional_profile,
                             estimate_lower_tail, estimate_upper_tail, take_off_statistics)
from bpre.simulate import SimConfig, branch_step

BENCH = Path(__file__).resolve().parents[1] / "bench"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bench_imports():
    """(file, module, name) of every `from bpre... import name` in bench/."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "bpre"):
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return found


def traced():
    """(module, function) of every entry of bench/layers.py's TRACED."""
    for node in ast.parse((BENCH / "layers.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if isinstance(node, ast.Assign) and targets == ["TRACED"]:
            return [(module, name) for module, names in ast.literal_eval(node.value).items()
                    for name in names]
    raise AssertionError("bench/layers.py has no TRACED table")


def resolves(module: str, name: str) -> bool:
    """`from module import name` works: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_resolve():
    names = bench_imports()
    assert {module for _, module, _ in names} >= {"bpre", "bpre.simulate", "bpre.cells"}
    assert [entry for entry in names if not resolves(*entry[1:])] == []


def test_traced_functions_resolve():
    entries = traced()
    assert ("bpre.cells", "expected_count_identity") in entries
    assert [(module, name) for module, name in entries
            if not callable(getattr(importlib.import_module(module), name, None))] == []


def test_bench_call_shapes_bind():
    # bench/layers.py: expected_count_identity(tree, result=res), branch_step(z, law, rng);
    # bench/libclient.py and layers.py: conditional_trajectory(env, n, c);
    # layers.py times cli.write_csv(path, schema, columns, rows, cfg_hash),
    # and TRACED wraps it and cli.write_json(path, obj, cfg_hash)
    inspect.signature(expected_count_identity).bind("tree", result="res")
    inspect.signature(branch_step).bind("z", "law", "rng")
    inspect.signature(conditional_trajectory).bind("env", "n", "c")
    inspect.signature(cli.write_csv).bind("path", "schema", "columns", "rows", "cfg_hash")
    inspect.signature(cli.write_json).bind("path", "obj", "cfg_hash")


def test_bench_estimator_calls_bind():
    # bench/layers.py: fn(env, n, c, replicas=, seed=) for each estimator,
    # estimate_lower_tail(..., workers=), SimConfig(env=, n=, seed=,
    # replicas=) and population_distribution(env, n, cap=); bench/libclient.py
    # also calls conditional_profile(..., method=)
    for fn in (estimate_lower_tail, estimate_upper_tail, take_off_statistics,
               conditional_profile):
        inspect.signature(fn).bind("env", "n", "c", replicas=10, seed=0)
    inspect.signature(estimate_lower_tail).bind("env", "n", "c", replicas=10, seed=0,
                                                workers=2)
    inspect.signature(conditional_profile).bind("env", "n", "c", replicas=10, seed=0,
                                                method="tilt_only")
    inspect.signature(SimConfig).bind(env="env", n=8, seed=0, replicas=300)
    inspect.signature(population_distribution).bind("env", "n", cap=1000)


# the fields bench/layers.py and bench/libclient.py read from each result
BENCH_READS = {
    EstimatorResult: ("estimate", "stderr", "ess"),
    LowerTailEstimate: ("tilt_only", "two_phase"),
    TakeOffResult: ("ess", "weights"),
    TrajectoryProfile: ("values", "stderr", "ess", "event_estimate"),
    ConditionalTrajectoryResult: ("probability", "profile"),
}


def test_bench_result_fields_exist():
    missing = {record.__name__: [f for f in fields if f not in record._fields]
               for record, fields in BENCH_READS.items()}
    assert missing == {record.__name__: [] for record in BENCH_READS}


def test_readers_copy_only_the_weighing_fields_bench_reads():
    # take-off, profile and rate-curve results carry the EstimatorResult they
    # read as `result`; a field of it is repeated only where bench/ reads it.
    # A record's own stderr (of its mean fraction, or per grid point) is no copy
    readers = (TakeOffResult, TrajectoryProfile, RatePoint)
    copies = ("n", "c", "replicas", "seed", "method", "normal_steps", "hold_steps",
              "zero_mass", "estimate")
    for record in readers:
        assert record._fields[-1] == "result"
        assert [f for f in copies if f in record._fields] == [], record.__name__
        repeated = set(record._fields) & {*EstimatorResult._fields, "event_estimate"}
        assert repeated - {"stderr"} <= set(BENCH_READS.get(record, ())), record.__name__
    assert [r.__name__ for r in readers if "event_estimate" in r._fields] == [
        "TrajectoryProfile"]
    assert "event_estimate" in BENCH_READS[TrajectoryProfile]


# the summary outputs bench/workloads.py reads from each command's last stdout line
BENCH_SUMMARY_READS = {
    "estimate-lower": ("rate",),
    "trajectory": ("ess",),
    "takeoff": ("mean_fraction", "event_estimate", "ess"),
}


def test_bench_summary_keys_exist(tmp_path, capsys):
    for command, keys in BENCH_SUMMARY_READS.items():
        out = tmp_path / command
        assert main([command, "--config", str(CONFIGS / "g2.json"), "--replicas", "200",
                     "--out-dir", str(out)]) == 0
        outputs = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["outputs"]
        assert [k for k in keys if not isinstance(outputs.get(k), float)] == [], command
