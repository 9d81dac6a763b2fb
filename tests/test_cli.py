import concurrent.futures
import hashlib
import json
import math
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bpre import __version__, lower_deviation_rate, tilt_parameter, walk_rate
from bpre import InvalidArgumentError, cli, oracle, rare_event, simulate
from bpre.cli import canonical_json, config_hash, main, parse_grid
from bpre.simulate import BLOCK
from conftest import g2_law, recording_pool, two_mean_law

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

G2_ENVS = [
    {"weight": 0.5, "pmf": {"1": 0.5, "2": 0.5}},
    {"weight": 0.5, "pmf": {"2": 0.5, "4": 0.5}},
]


def write_cfg(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def g2_cfg(tmp_path, **sections):
    body = {"environments": G2_ENVS, "seed": 0, "replicas": 1000}
    body.update(sections)
    return write_cfg(tmp_path, body)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("#schema=")
    assert lines[1].startswith("#config=")
    header = lines[2].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[3:]]
    return lines[0], header, rows


def test_parse_grid_forms(tmp_path, capsys):
    assert parse_grid("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    assert parse_grid("0.5,0.75") == pytest.approx([0.5, 0.75])
    assert parse_grid([0.25]) == pytest.approx([0.25])
    # "0:1:1e-300" asks for 1e300 points: refused before any list is built
    for bad in ("1:0:0.1", ",", [], "0:inf:1", "nan:1:0.5", "0:1:1e-300"):
        with pytest.raises(InvalidArgumentError):
            parse_grid(bad)
    for bad in ("1:0:0.1", "0:inf:1", "0:1:1e-300"):
        rc = main(["rate", "--config", str(CONFIG_DIR / "g2.json"), "--c-grid", bad,
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"
        assert not (tmp_path / "rate.csv").exists()


def test_cast_error_keeps_its_message(tmp_path, capsys):
    # a cast's InvalidArgument passes config resolution unwrapped
    rc = main(["rate", "--config", str(CONFIG_DIR / "g2.json"), "--c-grid", "0.1:0.1:0",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgument"
    assert err["message"].startswith("setting 'c_grid'")


def test_grid_flag_takes_a_value_that_starts_with_a_minus(tmp_path, capsys):
    # argparse alone reads "-0.2,0.1" as an option and exits 2 with its usage
    for name, flags in (("split", ["--c-grid", "-0.2,0.1"]),
                        ("joined", ["--c-grid=-0.2,0.1"])):
        assert main(["rate", "--config", str(CONFIG_DIR / "g2.json"), *flags,
                     "--out-dir", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert ((tmp_path / "split" / "rate.csv").read_bytes()
            == (tmp_path / "joined" / "rate.csv").read_bytes())
    rc = main(["trajectory", "--config", str(CONFIG_DIR / "g2.json"), "--grid", "-0.5,0.5",
               "--replicas", "10", "--out-dir", str(tmp_path / "trajectory")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


def test_rate_artifact_from_shipped_config(tmp_path, capsys):
    rc = main([
        "rate", "--config", str(CONFIG_DIR / "fig2.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["artifacts"] == ["rate.csv"]
    schema, header, rows = read_csv(tmp_path / "rate.csv")
    assert schema == "#schema=rate-v1:c,psi,lambda_c,chi,t_c,slope"
    assert header == ["c", "psi", "lambda_c", "chi", "t_c", "slope"]

    env = two_mean_law()
    by_c = {float(r["c"]): r for r in rows}
    row = by_c[min(by_c, key=lambda c: abs(c - 1.1))]
    c = float(row["c"])
    # full-precision round trip: the parsed floats equal fresh computations
    assert float(row["psi"]) == walk_rate(env, c)
    assert float(row["lambda_c"]) == tilt_parameter(env, c)
    r = lower_deviation_rate(env, c)
    assert float(row["chi"]) == r.rate
    assert float(row["t_c"]) == r.take_off
    assert float(row["slope"]) == r.slope
    assert abs(float(row["t_c"]) - 0.1816) < 0.01
    assert abs(float(row["slope"]) - 1.3441) < 0.01
    text = Path(tmp_path / "rate.csv").read_text()
    assert "np.float64" not in text
    assert all(part != "nan" for part in row.values())


def test_rate_grid_edges_get_nan_columns(tmp_path):
    cfg = g2_cfg(tmp_path, rate={"c_grid": [0.4, 1.2]})
    assert main(["rate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "rate.csv")
    inside = rows[0]
    above = rows[1]
    assert float(inside["chi"]) > 0.0
    # above the mean drift there is no lower deviation: columns go nan
    assert above["chi"] == "nan" and above["t_c"] == "nan"
    assert float(above["psi"]) == walk_rate(g2_law(), 1.2)


def test_simulate_artifact_deterministic_law(tmp_path):
    cfg = write_cfg(tmp_path, {
        "environments": [{"weight": 1.0, "pmf": {"2": 1.0}}],
        "seed": 0, "replicas": 4,
        "simulate": {"n": 5, "z0": 1, "threshold_n": 3},
    })
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    schema, header, rows = read_csv(tmp_path / "simulate.csv")
    assert schema.startswith("#schema=simulate-v1:")
    assert len(rows) == 4
    for row in rows:
        assert int(row["z_n"]) == 32
        assert float(row["s_n"]) == pytest.approx(5 * math.log(2.0), abs=1e-12)
        assert int(row["tau"]) == 2


def test_oracle_artifact_and_pmf(tmp_path):
    cfg = g2_cfg(tmp_path, oracle={"n": 8, "c": 0.4, "cap": 1000})
    rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path), "--pmf-csv"])
    assert rc == 0
    data = json.loads((tmp_path / "oracle.json").read_text())
    assert data["n"] == 8 and data["threshold"] == 24
    assert data["probs_below"] == pytest.approx(0.012010430361483361, abs=1e-12)
    assert data["error_bound"] == 0.0
    assert 0.0 <= data["overflow"] < 1.0
    assert "config" in data
    _, header, rows = read_csv(tmp_path / "oracle_pmf.csv")
    assert header == ["k", "prob"]
    total = sum(float(r["prob"]) for r in rows)
    assert total <= 1.0 + 1e-9


def test_estimate_lower_artifact(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 8, "c": 0.4})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    echo = json.loads(capsys.readouterr().out)
    schema, header, rows = read_csv(tmp_path / "estimate_lower.csv")
    assert schema.startswith("#schema=estimate-v1:")
    assert header == ["n", "c", "estimate", "stderr", "ess", "method"]
    methods = {r["method"] for r in rows}
    assert methods == {"TiltOnly", "TwoPhase"}
    for r in rows:
        assert float(r["estimate"]) > 0.0
        assert float(r["ess"]) <= 1000.0
    assert "rate" in json.dumps(echo)


def test_estimate_upper_artifact(tmp_path):
    lbar = g2_law().mean_log_mean
    cfg = g2_cfg(tmp_path, estimate_upper={"n": 8, "c": lbar + 0.3})
    assert main(["estimate-upper", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "estimate_upper.csv")
    assert len(rows) == 1
    assert rows[0]["method"] == "TiltOnly"
    assert 0.0 < float(rows[0]["estimate"]) < 1.0


def test_trajectory_artifact(tmp_path):
    cfg = g2_cfg(tmp_path, trajectory={"n": 8, "c": 0.4})
    assert main(["trajectory", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "trajectory.csv")
    assert header == ["t", "value", "stderr", "reference"]
    assert len(rows) == 9
    assert float(rows[0]["t"]) == 0.0 and float(rows[0]["value"]) == 0.0
    assert float(rows[-1]["reference"]) == pytest.approx(0.4, abs=1e-12)


def test_takeoff_artifact(tmp_path):
    cfg = g2_cfg(tmp_path, takeoff={"n": 8, "c": 0.4, "threshold_n": 10})
    assert main(["takeoff", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "takeoff.csv")
    assert header == ["fraction", "weight"]
    total = sum(float(r["weight"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)
    fractions = [float(r["fraction"]) for r in rows]
    assert fractions == sorted(fractions)
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_cells_artifact(tmp_path):
    cfg = g2_cfg(tmp_path, cells={"n": 6, "c": 0.4})
    cfg_body = json.loads(Path(cfg).read_text())
    cfg_body["replicas"] = 50
    Path(cfg).write_text(json.dumps(cfg_body))
    assert main(["cells", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "cells.csv")
    assert header == ["replicate", "n_below", "n_above"]
    assert len(rows) == 50
    for row in rows:
        assert 0 <= int(row["n_below"]) <= 2**6
    summary = json.loads((tmp_path / "cells_summary.json").read_text())
    assert "z_score" in summary and "expected" in summary


def test_cells_reports_normal_steps_outside_artifacts(tmp_path, capsys):
    # 2^20 children per parasite: cells pass 2^62 // 2^20 at depth 3, and
    # every cell past the root is above e^1.6 and settles, bar the one on
    # its tree's path to the uniform leaf: that cell at depth 3 branches in
    # the log-z lane, two draws per tree
    env = {"weight": 0.5, "pmf": {"1048576": 1.0}}
    cfg = write_cfg(tmp_path, {"environments": [env, env], "seed": 0,
                               "replicas": 5, "cells": {"n": 4, "c": 0.4}})
    for config, steps in ((str(CONFIG_DIR / "g2.json"), 0), (cfg, 5 * 2)):
        out = tmp_path / str(steps)
        assert main(["cells", "--config", config, "--replicas", "5",
                     "--out-dir", str(out)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["outputs"]["normal_steps"] == steps
        assert read_log(out)[0]["outputs"]["normal_steps"] == steps
        for artifact in echo["artifacts"]:
            assert "normal" not in (out / artifact).read_text()


def test_cells_needs_two_environments(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "environments": [{"weight": 1.0, "pmf": {"2": 1.0}}],
        "cells": {"n": 4, "c": 0.4}, "replicas": 5,
    })
    rc = main(["cells", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"


def test_cells_needs_equiprobable_environments(tmp_path, capsys):
    # a uniform lineage sees each law with probability 1/2; the identity
    # once checked the trees against the equiprobable law, not this one
    envs = [dict(G2_ENVS[0], weight=0.2), dict(G2_ENVS[1], weight=0.8)]
    cfg = write_cfg(tmp_path, {"environments": envs, "seed": 0, "replicas": 200,
                               "cells": {"n": 6, "c": 0.4}})
    out = tmp_path / "out"
    assert main(["cells", "--config", cfg, "--out-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgument" and "probability 1/2" in err["message"]
    assert list(out.iterdir()) == []
    # weights within the builder's tolerance of 1/2 still run
    envs = [dict(G2_ENVS[0], weight=0.5 + 1e-12), dict(G2_ENVS[1], weight=0.5 - 1e-12)]
    cfg = write_cfg(tmp_path, {"environments": envs, "seed": 0, "replicas": 5,
                               "cells": {"n": 4, "c": 0.4}})
    assert main(["cells", "--config", cfg, "--out-dir", str(out)]) == 0


def test_cells_oracle_budget_exits_2(tmp_path, capsys):
    # z0 = 2^60 sizes the exact DP's cap past the entry budget
    rc = main(["cells", "--config", str(CONFIG_DIR / "g2.json"), "--n", "3",
               "--c", "14.6", "--z0", "1152921504606846976", "--replicas", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("n, c, replicas", [(12, 2.0, 2000), (20, 1.0, 2)])
def test_cells_refuses_past_the_dp_budget_before_growing_trees(tmp_path, capsys,
                                                               monkeypatch, n, c, replicas):
    # e^{cn} sizes the identity's exact DP past its entry budget; the trees
    # were once grown first, for seconds, before the DP refused
    monkeypatch.setattr(cli, "simulate_cell_tree", lambda *a, **k: pytest.fail("grew trees"))
    out = tmp_path / "out"
    rc = main(["cells", "--config", str(CONFIG_DIR / "g2.json"), "--n", str(n),
               "--c", str(c), "--replicas", str(replicas), "--out-dir", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"
    assert list(out.iterdir()) == []


def test_cells_oracle_work_budget_exits_2(tmp_path, capsys, monkeypatch):
    # the DP's cap is z0 = 5000: its entries fit the budget, its
    # multiply-adds do not fit this one (nor a z0 of millions the shipped one)
    monkeypatch.setattr(oracle, "WORK_BUDGET", 10**6)
    rc = main(["cells", "--config", str(CONFIG_DIR / "g2.json"), "--n", "3",
               "--c", "0.4", "--z0", "5000", "--replicas", "5",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "BudgetExceeded" and "multiply-adds" in err["message"]


@pytest.mark.parametrize("command, config, n, c", [
    ("oracle", "g2.json", 20, 40.0),
    ("cells", "g2.json", 20, 40.0),
    ("estimate-lower", "fig2.json", 500, 1.45),
    ("estimate-upper", "fig2.json", 400, 1.9),
    ("trajectory", "fig2.json", 500, 1.45),
    ("takeoff", "fig2.json", 500, 1.45),
], ids=["oracle", "cells", "estimate-lower", "estimate-upper", "trajectory", "takeoff"])
def test_threshold_past_float_range_exits_2(tmp_path, capsys, command, config, n, c):
    # c n = 800, 725 and 760: e^{cn} overflows a float; the lower-tail
    # commands need c below fig2's largest log-mean, the upper one above it
    rc = main([command, "--config", str(CONFIG_DIR / config), "--n", str(n),
               "--c", str(c), "--replicas", "2", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "BudgetExceeded"


@pytest.mark.parametrize("command, n", [
    ("estimate-lower", 0), ("estimate-upper", 0), ("trajectory", 0), ("takeoff", 0),
    ("estimate-lower", -4),
], ids=["estimate-lower", "estimate-upper", "trajectory", "takeoff", "estimate-lower-neg"])
def test_n_below_one_exits_2(tmp_path, capsys, command, n):
    rc = main([command, "--config", str(CONFIG_DIR / "g2.json"), "--n", str(n),
               "--replicas", "2", "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgument" and f"n={n}" in err["message"]


@pytest.mark.parametrize("command, z0", [
    ("estimate-lower", -1), ("estimate-upper", -1), ("trajectory", -1), ("takeoff", -1),
    ("estimate-lower", 0), ("oracle", -1), ("simulate", -1), ("cells", -1),
], ids=["estimate-lower", "estimate-upper", "trajectory", "takeoff", "estimate-lower-0",
        "oracle", "simulate", "cells"])
def test_bad_z0_exits_2(tmp_path, capsys, command, z0):
    c = {"simulate": [], "estimate-upper": ["--c", "1.05"]}.get(command, ["--c", "0.4"])
    rc = main([command, "--config", str(CONFIG_DIR / "g2.json"), "--n", "8", "--z0", str(z0),
               "--replicas", "2", "--out-dir", str(tmp_path)] + c)
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgument" and f"z0={z0}" in err["message"]


def test_workers_below_one_exits_2(tmp_path, capsys):
    cfg = str(CONFIG_DIR / "g2.json")
    assert main(["rate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    for argv in (["simulate", "--config", cfg, "--workers", "-3"],
                 ["reproduce", "--workers", "0"]):
        capsys.readouterr()
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"
    assert [r["command"] for r in read_log(tmp_path)] == ["rate"]


def test_cells_degenerate_z_score_is_valid_json(tmp_path, capsys):
    # every tree counts 0 small cells against 2^4 P = 0.0625: no stderr
    cfg = write_cfg(tmp_path, {"environments": [
        {"weight": 0.5, "pmf": {"1048576": 1.0}},
        {"weight": 0.5, "pmf": {"1": 0.5, "1048576": 0.5}},
    ], "seed": 1})

    def strict(text):
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")
        return json.loads(text, parse_constant=refuse)

    assert main(["cells", "--config", cfg, "--n", "4", "--c", "0.4",
                 "--replicas", "5", "--out-dir", str(tmp_path)]) == 0
    echo = strict(capsys.readouterr().out)
    summary = strict((tmp_path / "cells_summary.json").read_text())
    record = strict((tmp_path / "runlog.jsonl").read_text())
    assert summary["tree_mean"] == 0.0 and summary["expected"] == 0.0625
    assert echo["outputs"]["z_score"] is None
    assert summary["z_score"] is None
    assert record["outputs"]["z_score"] is None


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc = main(["rate", "--config", str(bad), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config"
    assert not (tmp_path / "rate.csv").exists()
    assert not (tmp_path / "runlog.jsonl").exists()


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["estimate-lower", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--config" in json.loads(capsys.readouterr().err)["message"]


def test_unreadable_config_exits_2(tmp_path, capsys):
    rc = main(["rate", "--config", str(tmp_path / "nonexistent.json"),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["kind"]) == ("FileNotFoundError", "config")


def test_replica_budget_refused_before_allocation(tmp_path, capsys):
    # 10^12 replicas once built about 1.2e8 run tuples before any draw
    tracemalloc.start()
    try:
        rc = main(["estimate-lower", "--config", str(CONFIG_DIR / "g2.json"),
                   "--replicas", "1000000000000", "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["kind"]) == ("BudgetExceeded", "config")
    assert list(tmp_path.iterdir()) == []
    assert peak < 2**22


def test_path_budget_refused_before_allocation(tmp_path, capsys):
    # a fig2 profile at n = 40 one path past the entry budget, inside the
    # replica budget: about 0.9 GB of paths if it ran
    replicas = rare_event.PATH_ENTRIES_MAX // 41 + 1
    assert replicas <= simulate.REPLICAS_MAX
    tracemalloc.start()
    try:
        rc = main(["trajectory", "--config", str(CONFIG_DIR / "fig2.json"),
                   "--replicas", str(replicas), "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["kind"]) == ("BudgetExceeded", "config")
    assert list(tmp_path.iterdir()) == []
    assert peak < 2**22


OK_ORACLE = {"n": 8, "c": 0.4}


@pytest.mark.parametrize("sections", [
    {"oracle": {"n": "eight", "c": 0.4}}, {"oracle": {"n": 8, "c": [0.4]}},
    {"oracle": {"c": 0.4}},
    # an int setting takes no bool and no fraction; pmf_csv takes only true/false
    {"oracle": {"n": 8.7, "c": 0.4}}, {"oracle": {"n": True, "c": 0.4}},
    {"oracle": {**OK_ORACLE, "pmf_csv": "false"}},
    {"oracle": {**OK_ORACLE, "seed": 1.5}}, {"oracle": OK_ORACLE, "seed": 2.5},
    {"oracle": OK_ORACLE, "replicas": True},
    # a float setting takes no bool either
    {"oracle": {"n": 8, "c": True, "cap": 1000}}, {"oracle": {**OK_ORACLE, "tol": True}},
    {"oracle": {**OK_ORACLE, "phase_fraction": False}},
    {"oracle": {**OK_ORACLE, "grid": [0.5, True]}},
], ids=["n", "c", "missing-n", "n-fraction", "n-bool", "pmf_csv-string",
        "section-seed-fraction", "seed-fraction", "replicas-bool", "c-bool", "tol-bool",
        "phase_fraction-bool", "grid-bool"])
def test_malformed_setting_exits_2(tmp_path, capsys, sections):
    cfg = g2_cfg(tmp_path, **sections)
    assert main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and err["error"] == "InvalidArgument"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("args", [
    *(["rate", f"--c-grid={bad}"] for bad in ("nan", "0.2,inf")),
    *([command, "--n=8", f"--c={bad}"]
      for command in ("oracle", "estimate-lower", "estimate-upper", "trajectory",
                      "takeoff", "cells")
      for bad in ("nan", "inf", "-inf")),
], ids=lambda args: "".join(args))
def test_non_finite_c_exits_2(tmp_path, capsys, args):
    rc = main([*args, "--config", str(CONFIG_DIR / "g2.json"), "--replicas", "10",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgument" and "finite" in err["message"]
    assert list(tmp_path.iterdir()) == []


# every numeric setting and the values envmodel's number rule refuses: a
# bool, NaN, and for an int a number that is not whole (or a decimal string
# that int() cannot read), for a float an integer past the float range
INT_SETTINGS = ("n", "z0", "threshold_n", "cap", "threshold", "seed", "replicas")
FLOAT_SETTINGS = ("c", "tol", "phase_fraction", "grid", "c_grid")
BAD_INTS = {"bool": True, "nan": math.nan, "fraction": 8.5, "exponent-string": "1e3"}
BAD_FLOATS = {"bool": True, "nan": math.nan, "past-float": 10**400}
CAST_MATRIX = {f"{key}-{label}": (key, bad)
               for keys, bads in ((INT_SETTINGS, BAD_INTS), (FLOAT_SETTINGS, BAD_FLOATS))
               for key in keys for label, bad in bads.items()}


def bad_setting(key, bad):
    """key's bad value in an oracle section; a grid's is its second point."""
    return [0.5, bad] if key in ("grid", "c_grid") else bad


def assert_refused(capsys, key, out_dir, left):
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and err["error"] == "InvalidArgument"
    assert f"setting {key!r}" in err["message"]
    assert sorted(p.name for p in out_dir.iterdir()) == left


@pytest.fixture(scope="module")
def oracle_record(tmp_path_factory):
    out = tmp_path_factory.mktemp("oracle-record")
    cfg = g2_cfg(out, oracle=OK_ORACLE)
    assert main(["oracle", "--config", cfg, "--out-dir", str(out)]) == 0
    return (out / "runlog.jsonl").read_text()


@pytest.mark.parametrize("key, bad", CAST_MATRIX.values(), ids=list(CAST_MATRIX))
def test_cast_matrix_config_file(tmp_path, capsys, key, bad):
    # seed and replicas were once refused without their name, and an
    # integer past the float range exited 3 with an OverflowError
    cfg = g2_cfg(tmp_path, oracle={**OK_ORACLE, key: bad_setting(key, bad)})
    assert main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert_refused(capsys, key, tmp_path, ["cfg.json"])


@pytest.mark.parametrize("key, bad", CAST_MATRIX.values(), ids=list(CAST_MATRIX))
def test_cast_matrix_run_record(tmp_path, capsys, oracle_record, key, bad):
    rec = json.loads(oracle_record)
    rec["config"]["oracle"][key] = bad_setting(key, bad)
    (tmp_path / "runlog.jsonl").write_text(canonical_json(rec) + "\n")
    capsys.readouterr()
    assert main(["reproduce", "--out-dir", str(tmp_path)]) == 2
    assert_refused(capsys, key, tmp_path, ["runlog.jsonl"])   # no replay


def test_trajectory_upper_two_phase_exits_2(tmp_path, capsys):
    # the upper side's TiltOnly holds nothing: a hold fraction once ran dropped
    for ask in (["--method", "two_phase"], ["--phase-fraction", "0.5"]):
        rc = main(["trajectory", "--config", str(CONFIG_DIR / "g2.json"), "--side", "upper",
                   *ask, "--c", "1.05", "--replicas", "10", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_bad_tol_exits_2(tmp_path, capsys, tol):
    # the cap leaves an error bound of 0.998 at threshold 50
    rc = main(["oracle", "--config", str(CONFIG_DIR / "g2.json"), "--n", "8",
               "--cap", "10", "--threshold", "50", "--tol", tol, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"
    assert not (tmp_path / "oracle.json").exists()


def test_negative_cap_exits_2(tmp_path, capsys):
    # a negative cap is bad input, not a numeric CapTooSmall (exit 3)
    rc = main(["oracle", "--config", str(CONFIG_DIR / "g2.json"), "--cap", "-1",
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InvalidArgument" and "cap=-1" in err["message"]
    assert not (tmp_path / "oracle.json").exists()


def test_malformed_environment_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"environments": [{"weight": 1.0, "pmf": {"two": 1.0}}]})
    assert main(["rate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"


@pytest.mark.parametrize("env", [
    {"weight": math.nan, "pmf": {"1": 1.0}},
    {"weight": True, "pmf": {"1": 1.0}},
    {"weight": 1.0, "pmf": {"1": math.nan, "2": 1.0}},
    {"weight": 1.0, "pmf": {"1": True}},
    {"weight": 1.0, "pmf": {"1.5": 1.0}},
], ids=["nan-weight", "true-weight", "nan-prob", "true-prob", "half-count"])
def test_non_number_environment_exits_2(tmp_path, capsys, env):
    # a NaN weight once wrote a rate.csv of inf and nan, a NaN prob exited 3
    # as an internal error and true was read as 1.0
    cfg = write_cfg(tmp_path, {"environments": [env], "rate": {"c_grid": [0.1]}})
    assert main(["rate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"
    assert not (tmp_path / "rate.csv").exists()


def test_zero_mass_count_keeps_oracle_exact(tmp_path, capsys):
    # the zero-mass count 0 once made the law "shrinkable" to the oracle alone:
    # error bound 0.19 and CapTooSmall under --tol
    outs = []
    for name, first in (("zero", {"0": 0.0, "1": 0.5, "2": 0.5}), ("plain", G2_ENVS[0]["pmf"])):
        cfg = write_cfg(tmp_path, {"environments": [{"weight": 0.5, "pmf": first}, G2_ENVS[1]],
                                   "oracle": {"n": 8, "c": 0.4}}, name=f"{name}.json")
        out = tmp_path / name
        assert main(["oracle", "--config", cfg, "--tol", "1e-9", "--out-dir", str(out)]) == 0
        outs.append(json.loads((out / "oracle.json").read_text()))
    capsys.readouterr()
    assert outs[0]["error_bound"] == 0.0
    assert outs[0]["probs_below"] == outs[1]["probs_below"] == pytest.approx(0.01201043036148)


def test_held_zero_estimate_lower_writes_both_legs(tmp_path, capsys):
    # e^{cn} < z0: both legs are exact zeros (TiltOnly's row was once missing)
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 4, "c": -0.5, "replicas": 10})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    _, _, rows = read_csv(tmp_path / "estimate_lower.csv")
    assert [row["method"] for row in rows] == ["TiltOnly", "TwoPhase"]
    assert all(float(row["estimate"]) == 0.0 for row in rows)
    assert summary["outputs"]["zero_mass"] and summary["outputs"]["take_off"] == 1.0


def test_hold_past_the_float_range_exits_0(tmp_path, capsys):
    # (E p1^1500)^5 underflows: an honest zero estimate, once an internal
    # "math domain error" (exit 3)
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 10, "c": 0.75, "z0": 1500, "replicas": 300,
                                           "phase_fraction": 0.5})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    summary = json.loads(capsys.readouterr().out)
    _, _, rows = read_csv(tmp_path / "estimate_lower.csv")
    assert rows[-1]["method"] == "TwoPhase" and float(rows[-1]["estimate"]) == 0.0
    assert summary["outputs"]["zero_mass"] and summary["outputs"]["take_off"] == 0.5


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_internal_error_exits_3(tmp_path, capsys, monkeypatch, error):
    # a KeyError or ValueError from inside a handler is a bug, not bad input
    def broken(env, params, ctx):
        raise error("handler bug")

    monkeypatch.setitem(cli._COMMANDS, "rate", (broken,) + cli._COMMANDS["rate"][1:])
    cfg = g2_cfg(tmp_path, rate={"c_grid": [0.4]})
    assert main(["rate", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["kind"] == "internal" and err["error"] == error.__name__


# each subcommand's option strings, as its --help listed them before the
# parser was built from the settings table
COMMON_FLAGS = ["-h", "--config", "--seed", "--replicas", "--out-dir", "--workers"]
SUBCOMMAND_FLAGS = {
    "rate": ["--c-grid"],
    "simulate": ["--n", "--z0", "--threshold-N"],
    "oracle": ["--n", "--z0", "--cap", "--c", "--threshold", "--tol", "--pmf-csv"],
    "estimate-lower": ["--n", "--c", "--z0", "--phase-fraction"],
    "estimate-upper": ["--n", "--c", "--z0"],
    "trajectory": ["--n", "--c", "--z0", "--grid", "--side", "--phase-fraction",
                   "--method"],
    "takeoff": ["--n", "--c", "--z0", "--threshold-N", "--phase-fraction"],
    "cells": ["--n", "--c", "--z0"],
    "reproduce": ["--log", "--run-id"],
}


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_subcommand_option_strings(capsys, command):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    flags = re.findall(r"^  (-[-\w]+)", capsys.readouterr().out, re.M)
    assert flags == COMMON_FLAGS + SUBCOMMAND_FLAGS[command]


def test_cap_too_small_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "environments": [{"weight": 1.0, "pmf": {"0": 0.5, "3": 0.5}}],
        "oracle": {"n": 6, "cap": 10, "threshold": 5, "tol": 1e-9},
        "replicas": 1,
    })
    rc = main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CapTooSmall"
    assert err["kind"] == "numeric"


def test_domain_error_exits_2(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 5, "c": 2.0})
    rc = main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "COutOfRange"


def read_log(out_dir):
    path = Path(out_dir) / "runlog.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def test_runlog_record_shape(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 300})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    records = read_log(tmp_path)
    assert len(records) == 1
    rec = records[0]
    assert rec["command"] == "estimate-lower"
    assert rec["seed"] == 0 and rec["replicas"] == 300
    assert rec["config_hash"] == config_hash(rec["config"])
    assert set(rec["artifacts"]) == {"estimate_lower.csv"}
    assert rec["run_id"].startswith("estimate-lower-")


def test_flag_overrides_and_hash_ignores_workers(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 8, "c": 0.4, "replicas": 200})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(out1),
                 "--n", "6", "--seed", "3"]) == 0
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(out2),
                 "--n", "6", "--seed", "3", "--workers", "2"]) == 0
    capsys.readouterr()
    rec1 = read_log(out1)[0]
    rec2 = read_log(out2)[0]
    assert rec1["config"]["estimate_lower"]["n"] == 6
    assert rec1["seed"] == 3
    assert rec1["config_hash"] == rec2["config_hash"]
    assert rec1["artifacts"] == rec2["artifacts"]


def test_reproduce_fresh_run_passes(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 300})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = main(["reproduce", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS estimate_lower.csv" in out
    run_id = read_log(tmp_path)[0]["run_id"]
    assert (tmp_path / f"replay-{run_id}" / "estimate_lower.csv").exists()


def test_reproduce_worker_count_is_free(tmp_path, capsys, pool_per_block):
    # two blocks, the last partial: the replay runs on 2 processes
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": BLOCK + 144})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    rc = main(["reproduce", "--out-dir", str(tmp_path), "--workers", "6"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_reproduce_detects_tampered_seed(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 300})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    rec = json.loads(log.read_text().splitlines()[0])
    rec["config"]["estimate_lower"]["seed"] = 999
    log.write_text(canonical_json(rec) + "\n")
    rc = main(["reproduce", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL estimate_lower.csv" in out
    assert "first divergence at byte" in out


def test_reproduce_reports_artifact_not_regenerated(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 200})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    rec = json.loads(log.read_text().splitlines()[0])
    rec["artifacts"]["ghost.csv"] = "0" * 64
    log.write_text(canonical_json(rec) + "\n")
    rc = main(["reproduce", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "PASS estimate_lower.csv" in out
    assert "FAIL ghost.csv: artifact not regenerated" in out


def test_reproduce_reports_hash_without_original(tmp_path, capsys):
    # with the original file gone there is nothing to diff: the digests speak
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 200})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    rec = json.loads(log.read_text().splitlines()[0])
    rec["config"]["estimate_lower"]["seed"] = 999
    log.write_text(canonical_json(rec) + "\n")
    (tmp_path / "estimate_lower.csv").unlink()
    rc = main(["reproduce", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 3
    recorded = rec["artifacts"]["estimate_lower.csv"][:12]
    assert re.search(rf"FAIL estimate_lower.csv: hash [0-9a-f]{{12}} != recorded {recorded}", out)


def test_reproduce_reports_a_tampered_hash_of_equal_files(tmp_path, capsys):
    # the replay is byte-equal to the original, so there is no divergence to
    # point at: the digests speak
    cfg = g2_cfg(tmp_path, rate={"c_grid": "0.1:0.3:0.1"})
    assert main(["rate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    rec = json.loads(log.read_text().splitlines()[0])
    written, rec["artifacts"]["rate.csv"] = rec["artifacts"]["rate.csv"], "0" * 64
    log.write_text(canonical_json(rec) + "\n")
    rc = main(["reproduce", "--out-dir", str(tmp_path)])
    assert rc == 3
    out = capsys.readouterr().out
    assert out == f"FAIL rate.csv: hash {written[:12]} != recorded {'0' * 12}\n"
    replay = tmp_path / f"replay-{rec['run_id']}" / "rate.csv"
    assert replay.read_bytes() == (tmp_path / "rate.csv").read_bytes()


def test_reproduce_selects_run_id(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 200})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path),
                 "--seed", "5"]) == 0
    capsys.readouterr()
    first = read_log(tmp_path)[0]["run_id"]
    rc = main(["reproduce", "--out-dir", str(tmp_path), "--run-id", first])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out
    rc = main(["reproduce", "--out-dir", str(tmp_path), "--run-id", "nope"])
    assert rc == 2
    assert "not found" in json.loads(capsys.readouterr().err)["message"]


DROP = object()   # deletes the field instead of setting it


@pytest.mark.parametrize("path, bad, named", [
    (("config", "oracle", "n"), "eight", "'n'"),
    (("config", "oracle", "c"), [0.4], "'c'"),
    (("config", "oracle", "replicas"), "ten", "'replicas'"),
    (("config", "oracle", "seed"), DROP, "'seed'"),
    (("config", "oracle"), DROP, "'oracle'"),
    (("config",), DROP, "'config'"),
    (("command",), "bogus", "'bogus'"),
    (("command",), ["oracle"], "'command'"),
    (("artifacts",), DROP, "'artifacts'"),
    # a digest that is not a string once reached the replay's comparison: a
    # TypeError traceback, then exit 3 as an internal error
    (("artifacts", "oracle.json"), 5, "'oracle.json'"),
    (("artifacts", "oracle.json"), None, "'oracle.json'"),
    (("run_id",), 7, "'run_id'"),
    # the replay directory is named after the run id: one that is not a
    # plain file name could put it outside --out-dir
    (("run_id",), "a/../../escaped", "'run_id'"),
    (("run_id",), "a/b", "'run_id'"),
    (("run_id",), "..", "'run_id'"),
    (("run_id",), "", "'run_id'"),
    (("version",), DROP, "'version'"),
], ids=["n", "c", "replicas", "no-seed", "no-section", "no-config", "command",
        "command-list", "no-artifacts", "digest-int", "digest-null", "run_id-int",
        "run_id-escape", "run_id-separator", "run_id-dotdot", "run_id-empty", "no-version"])
def test_reproduce_bad_record_setting_exits_2(tmp_path, capsys, path, bad, named):
    # a record is outside input: its fields are checked, and its config
    # skips config resolution, so its casts refuse a bad setting
    cfg = g2_cfg(tmp_path, oracle={"n": 8, "c": 0.4})
    assert main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    rec = json.loads(log.read_text().splitlines()[0])
    *keys, last = path
    target = rec
    for key in keys:
        target = target[key]
    if bad is DROP:
        del target[last]
    else:
        target[last] = bad
    log.write_text(canonical_json(rec) + "\n")
    assert main(["reproduce", "--out-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)   # one JSON line, no traceback
    assert err["kind"] == "config" and err["error"] == "InvalidArgument"
    assert named in err["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "oracle.json",
                                                         "runlog.jsonl"]   # no replay


def test_reproduce_refuses_a_repeated_record_key(tmp_path, capsys):
    # a record read by a bare json.loads kept the last "version", so this
    # record once replayed as PASS oracle.json
    cfg = g2_cfg(tmp_path, oracle=OK_ORACLE)
    assert main(["oracle", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    log.write_text(log.read_text().replace("{", '{"version":"0.0.1",', 1))
    assert main(["reproduce", "--out-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "config" and err["error"] == "DuplicateKey"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "oracle.json",
                                                         "runlog.jsonl"]   # no replay


@pytest.mark.parametrize("text", ["not json\n", "\n  \n"], ids=["non-json", "blank"])
def test_reproduce_unreadable_log_exits_2(tmp_path, capsys, text):
    (tmp_path / "runlog.jsonl").write_text(text)
    assert main(["reproduce", "--out-dir", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "InvalidArgument"
    assert [p.name for p in tmp_path.iterdir()] == ["runlog.jsonl"]   # no replay


SHIPPED_RUNS = [(name, command) for name in ("g2.json", "fig2.json") for command in cli._COMMANDS
                if command.replace("-", "_") in json.loads((CONFIG_DIR / name).read_text())]


@pytest.mark.parametrize("config, command", SHIPPED_RUNS, ids="-".join)
def test_recorded_digests_are_the_bytes_written(tmp_path, capsys, config, command):
    # a writer returns the sha256 of the bytes it wrote; the record keeps it
    # and a replay's digests match it
    assert main([command, "--config", str(CONFIG_DIR / config), "--replicas", "100",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    record = read_log(tmp_path)[0]
    digests = record["artifacts"]
    assert sorted(digests) == [p.name for p in sorted(tmp_path.iterdir())
                               if p.name != "runlog.jsonl"]
    assert main(["reproduce", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"PASS {name}" for name in digests]
    for folder in (tmp_path, tmp_path / f"replay-{record['run_id']}"):
        assert {name: hashlib.sha256((folder / name).read_bytes()).hexdigest()
                for name in digests} == digests


def test_reproduce_version_mismatch(tmp_path, capsys):
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 200})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    rec = json.loads(log.read_text().splitlines()[0])
    rec["version"] = "0.0.0"
    log.write_text(canonical_json(rec) + "\n")
    rc = main(["reproduce", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "VersionMismatch"


def test_reproduce_names_the_recorded_numpy_beside_a_fail(tmp_path, capsys):
    # a record from another numpy whose replay FAILs names both versions; one
    # without the field replays as before
    cfg = g2_cfg(tmp_path, estimate_lower={"n": 6, "c": 0.4, "replicas": 200})
    assert main(["estimate-lower", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    log = tmp_path / "runlog.jsonl"
    rec = json.loads(log.read_text().splitlines()[0])
    assert rec["numpy"] == np.__version__
    tampered = dict(rec, numpy="0.0", artifacts={"estimate_lower.csv": "0" * 64})
    log.write_text(canonical_json(tampered) + "\n")
    assert main(["reproduce", "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"FAIL estimate_lower.csv: hash {rec['artifacts']['estimate_lower.csv'][:12]} "
        f"!= recorded {'0' * 12}",
        f"NOTE recorded with numpy 0.0, replayed with numpy {np.__version__}"]
    del rec["numpy"]
    log.write_text(canonical_json(rec) + "\n")
    assert main(["reproduce", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "PASS estimate_lower.csv\n"


def test_shipped_configs_parse():
    for name in ("g2.json", "fig2.json", "subcrit.json"):
        body = json.loads((CONFIG_DIR / name).read_text())
        assert "environments" in body
        total = sum(e["weight"] for e in body["environments"])
        assert total == pytest.approx(1.0, abs=1e-12)


# sha256 of every Monte Carlo artifact on configs/g2.json at 200 replicas,
# and of the default exact oracle.json, recorded at GOLDEN_VERSION.  A
# deliberate change to any artifact (the Monte Carlo streams, or the
# oracle's float rounding) bumps bpre.__version__ (so old run records fail
# `reproduce` with VersionMismatch) and updates GOLDEN_VERSION, and the
# hashes it changes, in the same change; any other change must leave the
# artifacts byte-identical.
GOLDEN_VERSION = "0.13.0"
GOLDEN_G2_ARTIFACTS = {
    ("oracle", "oracle.json"):
        "f582946eab2554860801672d5968345688baa91b9b9c8478c711e20ebfd405e8",
    ("simulate", "simulate.csv"):
        "24d2c3fc5b297069e96af3e75933d728f6bc10d1a163e3439a6c6f5bd107b511",
    ("estimate-lower", "estimate_lower.csv"):
        "6548660b0d034094b743b82f719eca6c24ddc65130245661fd75a616c307d645",
    ("estimate-upper", "estimate_upper.csv"):
        "de559e678f0bbbb39c988ab9ff4de0534a7626af7d289fe8f35489d74e3cc758",
    ("trajectory", "trajectory.csv"):
        "38dbb15f179b4726943cf89de627bcbf8d0ed62bb6f69902e61eaf700acd4b05",
    ("takeoff", "takeoff.csv"):
        "8acbced2f527986ed03a1b9b8c1a299971aa70caea19a020abd84c7f55181960",
    ("cells", "cells.csv"):
        "60e934c485b4b7d35ba144b26ac8b1bb54a016331ac54ca7203bd1fbe264bf0f",
    ("cells", "cells_summary.json"):
        "27f8e7cd8d3993f606cb422b916ae75f63a1eb172b7dce4af4e24087176c2da7",
}
# g2 at n = 8 never leaves the int64 lane; configs/fig2.json at 200 replicas
# passes 2^62, so these pin the log-z lane, under the same GOLDEN_VERSION rule
GOLDEN_FIG2_ARTIFACTS = {
    ("estimate-lower", "estimate_lower.csv"):
        "0994bc0ace72a35750a1e15944810a22c0f2f9ca958102b9e6cc85d99f1e9eea",
    ("trajectory", "trajectory.csv"):
        "16e483d6a50565116f4e8330c99d4a32a9989100226c18a19d01a65372cc9ff2",
    ("takeoff", "takeoff.csv"):
        "77f70a631d911697ec7f2cf0af6c39477aa58d8b0062a599e67b4e4269b63c64",
}


def test_pyproject_version_matches_package():
    text = (CONFIG_DIR.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == __version__


@pytest.mark.parametrize("command", sorted({cmd for cmd, _ in GOLDEN_G2_ARTIFACTS}))
def test_golden_artifacts_g2(tmp_path, capsys, command):
    assert main([command, "--config", str(CONFIG_DIR / "g2.json"),
                 "--replicas", "200", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert __version__ == GOLDEN_VERSION
    for (cmd, name), digest in GOLDEN_G2_ARTIFACTS.items():
        if cmd == command:
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name


@pytest.mark.parametrize("command, name", sorted(GOLDEN_FIG2_ARTIFACTS))
def test_golden_artifacts_fig2(tmp_path, capsys, command, name):
    assert main([command, "--config", str(CONFIG_DIR / "fig2.json"),
                 "--replicas", "200", "--out-dir", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["normal_steps"] > 0
    assert __version__ == GOLDEN_VERSION
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_FIG2_ARTIFACTS[command, name], name


def test_duplicate_pmf_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "dup.json"
    cfg.write_text('{"environments": [{"weight": 1.0, '
                   '"pmf": {"1": 0.3, "1": 0.5, "2": 0.5}}], '
                   '"rate": {"c_grid": "0.1:0.3:0.1"}}')
    rc = main(["rate", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DuplicateKey"
    assert err["kind"] == "config"
    assert not (tmp_path / "rate.csv").exists()


def test_simulate_without_threshold_writes_no_tau(tmp_path):
    cfg = g2_cfg(tmp_path, simulate={"n": 5, "replicas": 20})
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    _, header, rows = read_csv(tmp_path / "simulate.csv")
    assert header == ["replica", "z_n", "s_n"]
    assert len(rows) == 20


def test_simulate_writes_log_lane_populations_as_ints(tmp_path, capsys):
    # 2^1100 is past e^709, where math.exp overflows
    cfg = write_cfg(tmp_path, {
        "environments": [{"weight": 1.0, "pmf": {"2": 1.0}}],
        "seed": 0, "replicas": 3, "simulate": {"n": 1100},
    })
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["outputs"]["normal_steps"] == 3 * (1100 - 62)
    _, _, rows = read_csv(tmp_path / "simulate.csv")
    for row in rows:
        assert row["z_n"].isdigit()
        z = int(row["z_n"])
        assert abs(math.log(z) - 1100 * math.log(2.0)) <= 1e-9


@pytest.mark.parametrize("command", ["simulate", "estimate-lower", "estimate-upper",
                                     "trajectory", "takeoff"])
def test_normal_steps_reported_outside_artifacts(tmp_path, capsys, command):
    # g2 at n = 8 stays below 4^8; fig2 at n = 40 passes 2^62
    cases = (("g2", ["--n", "8", "--c", "1.05" if command == "estimate-upper" else "0.4"]),
             ("fig2", ["--n", "40", "--c", "1.7" if command == "estimate-upper" else "1.1"]))
    for name, flags in cases:
        out = tmp_path / name
        if command == "simulate":
            flags = flags[:2]
        assert main([command, "--config", str(CONFIG_DIR / f"{name}.json"),
                     "--replicas", "200", "--out-dir", str(out)] + flags) == 0
        echo = json.loads(capsys.readouterr().out)
        steps = echo["outputs"]["normal_steps"]
        assert read_log(out)[0]["outputs"]["normal_steps"] == steps
        assert (steps == 0) if name == "g2" else (steps > 0)
        for artifact in echo["artifacts"]:
            assert "normal" not in (out / artifact).read_text()


# replicas in three blocks, the last one partial
THREE_BLOCKS = 2 * BLOCK + BLOCK // 2

SAMPLERS = [("simulate", []), ("estimate-lower", ["--c", "0.4"]),
            ("estimate-upper", ["--c", "1.05"]), ("trajectory", ["--c", "0.4"]),
            ("takeoff", ["--c", "0.4"]), ("cells", ["--c", "0.4", "--n", "6"])]


@pytest.mark.parametrize("command, flags", SAMPLERS, ids=[cmd for cmd, _ in SAMPLERS])
def test_small_run_starts_no_pool(tmp_path, capsys, monkeypatch, command, flags):
    # three blocks are too few for a pool (3 x 8 generations of a path, or
    # 3 x 2^6 of a tree, below 2 POOL_STEPS): --workers 2 runs in process
    # and writes the bytes of --workers 1
    def no_pool(*args, **kwargs):
        raise AssertionError("a small run started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for workers in ("1", "2"):
        out = tmp_path / workers
        assert main([command, "--config", str(CONFIG_DIR / "g2.json"), "--n", "8",
                     "--replicas", str(THREE_BLOCKS), "--workers", workers,
                     "--out-dir", str(out)] + flags) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["outputs"]["processes"] == 1
        assert read_log(out)[0]["outputs"]["processes"] == 1
    for name in echo["artifacts"]:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


@pytest.mark.parametrize("command, flags", SAMPLERS, ids=[cmd for cmd, _ in SAMPLERS])
def test_reported_processes_are_the_pool_that_started(tmp_path, capsys, monkeypatch,
                                                      pool_per_block, command, flags):
    # three blocks, a process per block: --workers 2 starts pools of 2 (one
    # per estimate-lower leg), and the record reports the pool that started,
    # not a formula of the settings
    started, _ = recording_pool(monkeypatch)
    assert main([command, "--config", str(CONFIG_DIR / "g2.json"), "--n", "8",
                 "--replicas", str(THREE_BLOCKS), "--workers", "2",
                 "--out-dir", str(tmp_path)] + flags) == 0
    echo = json.loads(capsys.readouterr().out)
    assert started and set(started) == {2}
    assert echo["outputs"]["processes"] == max(started)
    assert read_log(tmp_path)[0]["outputs"]["processes"] == max(started)


def test_held_zero_horizon_reports_one_process(tmp_path, capsys, monkeypatch):
    # e^{-20} < z0: the held-zero horizon samples no generation, so no pool
    # starts and the run reports 1 process, whatever --workers asks for
    def no_pool(*args, **kwargs):
        raise AssertionError("a run that samples no generation started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["estimate-lower", "--config", str(CONFIG_DIR / "g2.json"), "--n", "40",
                 "--c", "-0.5", "--replicas", "50000", "--workers", "2",
                 "--out-dir", str(tmp_path)]) == 0
    echo = json.loads(capsys.readouterr().out)
    assert echo["outputs"]["zero_mass"] is True
    assert echo["outputs"]["processes"] == 1
    assert read_log(tmp_path)[0]["outputs"]["processes"] == 1


def test_held_zero_horizon_keeps_the_replica_budget(tmp_path, capsys):
    # one replica past REPLICAS_MAX = 8,388,608: the held-zero horizon once
    # ran it, and ran out of memory at 10^12
    rc = main(["estimate-lower", "--config", str(CONFIG_DIR / "g2.json"), "--n", "40",
               "--c", "-0.5", "--replicas", str(simulate.REPLICAS_MAX + 1),
               "--out-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["kind"]) == ("BudgetExceeded", "config")
    assert list(tmp_path.iterdir()) == []


def test_settling_trees_of_one_block_run_in_process(tmp_path, capsys, monkeypatch):
    # 600 settling g2 trees at n = 8, c = 0.4 took longer on a 2-process
    # pool than in process: --workers 2 runs them in process and writes the
    # bytes of --workers 1
    def no_pool(*args, **kwargs):
        raise AssertionError("a small run started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for workers in ("1", "2"):
        assert main(["cells", "--config", str(CONFIG_DIR / "g2.json"), "--n", "8",
                     "--c", "0.4", "--replicas", "600", "--workers", workers,
                     "--out-dir", str(tmp_path / workers)]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["processes"] == 1
    for name in ("cells.csv", "cells_summary.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_processes_reported_outside_artifacts(tmp_path, capsys, pool_per_block):
    # three blocks: with a process per block, --workers 2 runs on 2
    # processes and --workers 8 on 3; rate samples nothing
    lower = ["estimate-lower", "--n", "8", "--c", "0.4"]
    cases = ((["rate", "--workers", "2"], 1), (lower + ["--workers", "2"], 2),
             (lower + ["--workers", "8"], 3))
    for j, (argv, procs) in enumerate(cases):
        out = tmp_path / str(j)
        assert main(argv + ["--config", str(CONFIG_DIR / "g2.json"),
                            "--replicas", str(THREE_BLOCKS), "--out-dir", str(out)]) == 0
        echo = json.loads(capsys.readouterr().out)
        assert echo["outputs"]["processes"] == procs
        assert read_log(out)[0]["outputs"]["processes"] == procs
        for artifact in echo["artifacts"]:
            assert "processes" not in (out / artifact).read_text()


def test_pool_rule_counts_a_tree_as_2_to_the_n_generations(tmp_path, capsys):
    # three blocks: 3 x 2^8 tree steps pass 2 POOL_STEPS, so the trees run
    # on 2 processes; 3 x 8 path generations run in process
    for j, (command, procs) in enumerate((("cells", 2), ("estimate-lower", 1))):
        out = tmp_path / str(j)
        assert main([command, "--config", str(CONFIG_DIR / "g2.json"), "--n", "8",
                     "--c", "0.4", "--replicas", str(THREE_BLOCKS), "--workers", "2",
                     "--out-dir", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["processes"] == procs


@pytest.mark.parametrize("n", ["6", 6.0])
def test_pool_rule_reads_the_cast_setting(tmp_path, capsys, monkeypatch, n):
    # a config file's n of "6" or 6.0 runs as 6 in the pool rule too:
    # 3 blocks x 6 generations at 8 a process are 2 processes
    monkeypatch.setattr(simulate, "POOL_STEPS", 8)
    cfg = g2_cfg(tmp_path, estimate_lower={"n": n, "c": 0.4, "replicas": THREE_BLOCKS})
    assert main(["estimate-lower", "--config", cfg, "--workers", "8",
                 "--out-dir", str(tmp_path)]) == 0
    echo = json.loads(capsys.readouterr().out)
    record = read_log(tmp_path)[0]
    assert record["config"]["estimate_lower"]["n"] == n
    for outputs in (echo["outputs"], record["outputs"]):
        assert outputs["processes"] == 2 and type(outputs["processes"]) is int


def test_pool_rule_counts_the_sampled_generations(tmp_path, capsys, monkeypatch):
    # g2 at n = 8, c = 0.4 holds m = 2 generations that take_off_statistics
    # and conditional_profile weigh without sampling: 3 blocks x 6 sampled
    # generations at 8 a process are 2 processes; estimate-lower's TiltOnly
    # leg samples all 8 (3 processes)
    monkeypatch.setattr(simulate, "POOL_STEPS", 8)
    for command, procs in (("takeoff", 2), ("trajectory", 2), ("estimate-lower", 3)):
        out = tmp_path / command
        assert main([command, "--config", str(CONFIG_DIR / "g2.json"), "--n", "8",
                     "--c", "0.4", "--replicas", str(THREE_BLOCKS), "--workers", "8",
                     "--out-dir", str(out)]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs["processes"] == procs, command
        assert outputs.get("hold_steps", 0) == (2 if procs == 2 else 0)
