"""Self-tests of the benchmark's own metric code.

Run from the repository root:  python3 -m pytest bench -q
The smoke tests start the benchmark itself and take about half a minute.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from metrics import (nominal_steps, pooled, quartile_spread, self_times,
                     summarize, time_to_1pct, z_score)
from workloads import (HEAVY_FLOOR, WORKLOADS, Op, Outcome, Run,
                       agreement_failures, evaluate)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_nominal_steps():
    assert nominal_steps("estimate-lower", 1000, 8) == 16_000   # two passes
    assert nominal_steps("reproduce-lower", 1000, 8) == 16_000
    for cmd in ("simulate", "estimate-upper", "trajectory", "takeoff", "profile"):
        assert nominal_steps(cmd, 1000, 40) == 40_000
    assert nominal_steps("cells", 1, 8) == 510                  # 2 * (2^8 - 1)
    assert nominal_steps("cells", 3, 2) == 18
    assert nominal_steps("rate", 1000, 8) == nominal_steps("oracle", 5, 8) == 0
    with pytest.raises(ValueError):
        nominal_steps("reproduce", 1, 1)


def test_time_to_1pct():
    # relative error 0.1 needs 100x the work for 0.01
    assert time_to_1pct(2.0, 0.01, 0.001) == pytest.approx(200.0)
    assert time_to_1pct(3.0, 5.0, 0.05) == pytest.approx(3.0)
    # doubling replicas halves the variance and doubles the wall: invariant
    assert time_to_1pct(2.0, 0.01, 0.001 / math.sqrt(2)) == pytest.approx(
        time_to_1pct(1.0, 0.01, 0.001))
    with pytest.raises(ValueError):
        time_to_1pct(1.0, 0.0, 0.1)


def test_summarize_percentile_needs_ten_samples_beyond():
    few = summarize([3.0, 1.0, 2.0])
    assert few == {"n": 3, "median": 2.0, "p": None, "p_value": None}
    assert summarize(list(range(39)))["p"] is None          # 75th: 9.75 beyond
    forty = summarize([float(v) for v in range(40)])
    assert forty["p"] == 75.0 and forty["p_value"] == pytest.approx(29.25)
    hundred = summarize([float(v) for v in range(1, 101)])
    assert hundred["n"] == 100 and hundred["median"] == 50.5
    assert hundred["p"] == 90.0 and hundred["p_value"] == pytest.approx(90.1)
    assert summarize([float(v) for v in range(1000)])["p"] == 99.0
    assert summarize([float(v) for v in range(10_000)])["p"] == 99.9


def test_quartile_spread_matches_statistics_quantiles():
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert quartile_spread([10.0] * 10) == 0.0


def test_self_times_subtract_direct_children():
    spans = [
        {"id": 0, "parent": None, "name": "cli.main", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "name": "rare_event.estimate_lower_tail",
         "start": 2.0, "end": 8.0},
        {"id": 2, "parent": 1, "name": "rng.replica_stream", "start": 3.0, "end": 4.0},
        {"id": 3, "parent": 1, "name": "rng.replica_stream", "start": 5.0, "end": 5.5},
        {"id": 4, "parent": 0, "name": "cli.write_csv", "start": 8.0, "end": 9.0},
    ]
    assert self_times(spans) == pytest.approx(
        {"cli": 3.0 + 1.0, "rare_event": 4.5, "rng": 1.5})


def test_pooled_and_z_score():
    est, se = pooled([(1.0, 0.2), (3.0, 0.2)])
    assert est == 2.0 and se == pytest.approx(math.sqrt(0.08) / 2)
    assert z_score(1.2, 1.0, 0.1) == pytest.approx(2.0)
    assert z_score(1.0, 1.0, 0.0) == 0.0
    assert z_score(0.5, 1.0, 0.0) == -math.inf


def test_agreement_pools_distinct_seeds_only():
    # the same seed twice (untraced and traced pass) counts once
    rows = [("k", 1, 1.2, 0.1, 1.0, False), ("k", 1, 1.2, 0.1, 1.0, False)]
    assert agreement_failures(rows) == (1, [])
    far = [("k", 1, 1.7, 0.1, 1.0, False)]
    checks, fails = agreement_failures(far)
    assert checks == 1 and len(fails) == 1 and "z = 7.00" in fails[0]
    # two seeds at z = 5 each pool to z = 5 * sqrt(2) > 6
    two = [("k", 1, 1.5, 0.1, 1.0, False), ("k", 2, 1.5, 0.1, 1.0, False)]
    assert len(agreement_failures(two)[1]) == 1


def test_heavy_agreement_is_one_sided_with_a_floor():
    low = [("h", 1, 0.3, 0.01, 1.0, True)]            # z = -70, ratio 0.3
    assert agreement_failures(low)[1] == []
    below_floor = [("h", 1, HEAVY_FLOOR / 2, 0.001, 1.0, True)]
    assert len(agreement_failures(below_floor)[1]) == 1
    high = [("h", 1, 1.7, 0.1, 1.0, True)]
    assert len(agreement_failures(high)[1]) == 1


def test_evaluate_fails_nonzero_exit_and_missing_output(tmp_path):
    op = Op(name="rate", command="rate", n=0, c=0.0, replicas=1, seed=0,
            argv=["rate"], out_dir=str(tmp_path))
    bad = evaluate(Run(op, 2, "", "boom\n", 0.1), {})
    assert not bad.ok and bad.reason.startswith("exit 2")
    missing = evaluate(Run(op, 0, "{}", "", 0.1), {})
    assert not missing.ok and "unreadable output" in missing.reason
    assert isinstance(missing, Outcome)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def _run(*args, root=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run_bench.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_named_metric(trace, section):
    proc = _run("--workload", "cell-tree-g2", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == named
    assert all(isinstance(v["value"], float) and v["value"] != 0.0
               for v in result["metrics"].values())
    if trace == "0":
        assert "fail_share" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk-sweep-g2", "--seed", "0", "--seconds", "1",
                "--trace", "0", root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
