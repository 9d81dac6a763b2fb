"""Config-driven command line front end.

Every run resolves a JSON config plus flags into one effective config,
writes plot-ready artifacts stamped with that config's hash, and appends a
run record to a JSON-lines log.  `reproduce` replays a record and
byte-compares the artifacts, so any published number can be traced back to
a seed and checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .cells import CellTreeConfig, expected_count_identity, simulate_cell_tree
from .envmodel import (environment_from_dict, environment_to_dict,
                       reject_duplicate_keys)
from .errors import BPREError, InvalidArgumentError, VersionMismatchError
from .oracle import event_threshold, population_distribution
from .ratefn import lower_deviation_rate, tilt_parameter, walk_rate
from .rare_event import (
    conditional_profile,
    empirical_rate,
    estimate_lower_tail,
    estimate_upper_tail,
    take_off_statistics,
)
from .simulate import SimConfig, final_states

LOG_NAME = "runlog.jsonl"


# --- formatting and hashing -------------------------------------------

def _fmt(value) -> str:
    # repr round-trips floats; ints may exceed 2^63 and stay exact as text
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(effective: dict) -> str:
    return hashlib.sha256(canonical_json(effective).encode()).hexdigest()


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def write_csv(path: str, schema: str, columns: Sequence[str], rows,
              cfg_hash: str) -> None:
    lines = [
        f"#schema={schema}:{','.join(columns)}",
        f"#config={cfg_hash}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, obj: dict, cfg_hash: str) -> None:
    payload = {"config": cfg_hash}
    payload.update(obj)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_grid(spec) -> list:
    """Accept a list, "lo:hi:step", or a comma-separated list of values."""
    if isinstance(spec, (list, tuple)):
        return [float(x) for x in spec]
    text = str(spec)
    if ":" in text:
        lo, hi, step = (float(x) for x in text.split(":"))
        if step <= 0:
            raise InvalidArgumentError(f"grid step must be positive in {text!r}")
        count = int(math.floor((hi - lo) / step + 1e-9)) + 1
        return [lo + k * step for k in range(count)]
    return [float(tok) for tok in text.split(",") if tok.strip()]


# --- command handlers -------------------------------------------------

@dataclass(frozen=True)
class _Ctx:
    out_dir: str
    cfg_hash: str
    workers: int


def _need(params: dict, key: str, command: str):
    if key not in params:
        raise InvalidArgumentError(f"missing setting {key!r} for command {command!r}")
    return params[key]


def _cmd_rate(env, params: dict, ctx: _Ctx):
    cs = parse_grid(_need(params, "c_grid", "rate"))
    rows = []
    for c in cs:
        c = float(c)
        psi = walk_rate(env, c)
        try:
            lam = tilt_parameter(env, c)
        except BPREError:
            lam = math.nan
        chi = t_c = slope = math.nan
        if 0.0 < c < env.mean_log_mean and env.strongly_supercritical:
            ldr = lower_deviation_rate(env, c)
            chi, t_c, slope = ldr.rate, ldr.take_off, ldr.slope
        rows.append((c, psi, lam, chi, t_c, slope))
    path = os.path.join(ctx.out_dir, "rate.csv")
    write_csv(path, "rate-v1", ("c", "psi", "lambda_c", "chi", "t_c", "slope"),
              rows, ctx.cfg_hash)
    return {"rate.csv": path}, {"points": len(rows)}


def _cmd_simulate(env, params: dict, ctx: _Ctx):
    n = int(_need(params, "n", "simulate"))
    config = SimConfig(env=env, n=n, z0=int(params.get("z0", 1)),
                       seed=int(params["seed"]), replicas=int(params["replicas"]))
    threshold = params.get("threshold_n")
    threshold = int(threshold) if threshold is not None else None
    res = final_states(config, threshold=threshold, workers=ctx.workers)
    columns = ["replica", "z_n", "s_n"] + (["tau"] if res.tau is not None else [])
    rows = []
    for r, (z, s) in enumerate(zip(res.z, res.s)):
        row = [r, z, float(s)]
        if res.tau is not None:
            row.append(int(res.tau[r]))
        rows.append(row)
    path = os.path.join(ctx.out_dir, "simulate.csv")
    write_csv(path, "simulate-v1", columns, rows, ctx.cfg_hash)
    return {"simulate.csv": path}, {"replicas": config.replicas,
                                    "normal_steps": res.normal_steps}


def _cmd_oracle(env, params: dict, ctx: _Ctx):
    n = int(_need(params, "n", "oracle"))
    z0 = int(params.get("z0", 1))
    cap = int(params.get("cap", 1000))
    if "threshold" in params:
        k = int(params["threshold"])
    else:
        k = event_threshold(n, float(_need(params, "c", "oracle")))
    tol = params.get("tol")
    dist = population_distribution(env, n, z0=z0, cap=cap)
    prob = dist.prob_le(k, tol=float(tol) if tol is not None else None)
    artifacts = {}
    path = os.path.join(ctx.out_dir, "oracle.json")
    write_json(path, {
        "n": n, "z0": z0, "cap": cap, "threshold": k,
        "probs_below": prob, "overflow": dist.overflow,
        "error_bound": dist.le_error_bound(k),
    }, ctx.cfg_hash)
    artifacts["oracle.json"] = path
    if params.get("pmf_csv"):
        rows = [(k_, float(p)) for k_, p in enumerate(dist.probs) if p > 0.0]
        pmf_path = os.path.join(ctx.out_dir, "oracle_pmf.csv")
        write_csv(pmf_path, "oracle-pmf-v1", ("k", "prob"), rows, ctx.cfg_hash)
        artifacts["oracle_pmf.csv"] = pmf_path
    return artifacts, {"probs_below": prob, "overflow": dist.overflow}


def _estimate_rows(results) -> list:
    rows = []
    for res in results:
        if res is None:
            continue
        rows.append((res.n, res.c, res.estimate, res.stderr, res.ess,
                     res.method.value))
    return rows


def _cmd_estimate_lower(env, params: dict, ctx: _Ctx):
    n = int(_need(params, "n", "estimate-lower"))
    c = float(_need(params, "c", "estimate-lower"))
    pf = params.get("phase_fraction")
    est = estimate_lower_tail(
        env, n, c, z0=int(params.get("z0", 1)), replicas=int(params["replicas"]),
        seed=int(params["seed"]), workers=ctx.workers,
        phase_fraction=float(pf) if pf is not None else None,
    )
    rows = _estimate_rows([est.tilt_only, est.two_phase])
    path = os.path.join(ctx.out_dir, "estimate_lower.csv")
    write_csv(path, "estimate-v1",
              ("n", "c", "estimate", "stderr", "ess", "method"), rows,
              ctx.cfg_hash)
    outputs = {"take_off": est.take_off, "normal_steps": sum(
        leg.normal_steps for leg in (est.tilt_only, est.two_phase) if leg is not None)}
    best = est.two_phase or est.tilt_only
    if best is not None and not best.zero_mass:
        rate, rate_se = empirical_rate(best)
        outputs.update({"rate": rate, "rate_stderr": rate_se})
    else:
        outputs["zero_mass"] = True
    return {"estimate_lower.csv": path}, outputs


def _cmd_estimate_upper(env, params: dict, ctx: _Ctx):
    n = int(_need(params, "n", "estimate-upper"))
    c = float(_need(params, "c", "estimate-upper"))
    res = estimate_upper_tail(
        env, n, c, z0=int(params.get("z0", 1)), replicas=int(params["replicas"]),
        seed=int(params["seed"]), workers=ctx.workers,
    )
    path = os.path.join(ctx.out_dir, "estimate_upper.csv")
    write_csv(path, "estimate-v1",
              ("n", "c", "estimate", "stderr", "ess", "method"),
              _estimate_rows([res]), ctx.cfg_hash)
    outputs: dict = {"estimate": res.estimate, "ess": res.ess,
                     "normal_steps": res.normal_steps}
    if res.zero_mass:
        outputs["zero_mass"] = True
    else:
        rate, rate_se = empirical_rate(res)
        outputs.update({"rate": rate, "rate_stderr": rate_se})
    return {"estimate_upper.csv": path}, outputs


def _cmd_trajectory(env, params: dict, ctx: _Ctx):
    n = int(_need(params, "n", "trajectory"))
    c = float(_need(params, "c", "trajectory"))
    grid = params.get("grid")
    pf = params.get("phase_fraction")
    prof = conditional_profile(
        env, n, c, grid=parse_grid(grid) if grid is not None else None,
        side=params.get("side", "lower"), z0=int(params.get("z0", 1)),
        replicas=int(params["replicas"]), seed=int(params["seed"]),
        workers=ctx.workers,
        phase_fraction=float(pf) if pf is not None else None,
        method=params.get("method"),
    )
    rows = [
        (float(t), float(v), float(se), float(ref))
        for t, v, se, ref in zip(prof.grid, prof.values, prof.stderr,
                                 prof.reference)
    ]
    path = os.path.join(ctx.out_dir, "trajectory.csv")
    write_csv(path, "trajectory-v1", ("t", "value", "stderr", "reference"),
              rows, ctx.cfg_hash)
    outputs = {
        "sup_distance": prof.sup_distance,
        "sup_distance_stderr": prof.sup_distance_stderr,
        "ess": prof.ess, "event_estimate": prof.event_estimate,
        "method": prof.method.value, "normal_steps": prof.normal_steps,
    }
    return {"trajectory.csv": path}, outputs


def _cmd_takeoff(env, params: dict, ctx: _Ctx):
    n = int(_need(params, "n", "takeoff"))
    c = float(_need(params, "c", "takeoff"))
    pf = params.get("phase_fraction")
    res = take_off_statistics(
        env, n, c, pop_threshold=int(params.get("threshold_n", 10)),
        z0=int(params.get("z0", 1)), replicas=int(params["replicas"]),
        seed=int(params["seed"]), workers=ctx.workers,
        phase_fraction=float(pf) if pf is not None else None,
    )
    # aggregate the weighted sample into a histogram over distinct fractions
    order = np.argsort(res.fractions, kind="stable")
    fracs = res.fractions[order]
    weights = res.weights[order]
    uniq, start = np.unique(fracs, return_index=True)
    sums = np.add.reduceat(weights, start)
    rows = [(float(f), float(w)) for f, w in zip(uniq, sums)]
    path = os.path.join(ctx.out_dir, "takeoff.csv")
    write_csv(path, "takeoff-v1", ("fraction", "weight"), rows, ctx.cfg_hash)
    outputs = {
        "mean_fraction": res.mean_fraction, "stderr": res.stderr,
        "ess": res.ess, "event_estimate": res.event_estimate,
        "method": res.method.value, "normal_steps": res.normal_steps,
    }
    return {"takeoff.csv": path}, outputs


def _cmd_cells(env, params: dict, ctx: _Ctx):
    if env.k != 2:
        raise InvalidArgumentError(
            f"cells needs a two-environment config, got {env.k} components"
        )
    config = CellTreeConfig(
        n=int(_need(params, "n", "cells")), law1=env.components[0],
        law2=env.components[1], c=float(_need(params, "c", "cells")),
        seed=int(params["seed"]), replicas=int(params["replicas"]),
        z0=int(params.get("z0", 1)),
    )
    result = simulate_cell_tree(config, workers=ctx.workers)
    report = expected_count_identity(config, result=result)
    rows = [
        (r, int(b), int(a))
        for r, (b, a) in enumerate(zip(result.below, result.above))
    ]
    path = os.path.join(ctx.out_dir, "cells.csv")
    write_csv(path, "cells-v1", ("replicate", "n_below", "n_above"), rows,
              ctx.cfg_hash)
    summary_path = os.path.join(ctx.out_dir, "cells_summary.json")
    write_json(summary_path, {
        "tree_mean": report.tree_mean, "tree_stderr": report.tree_stderr,
        "expected": report.expected, "z_score": report.z_score,
        "probability": report.probability, "threshold": report.threshold,
        "n": report.n, "replicas": report.replicas,
    }, ctx.cfg_hash)
    return ({"cells.csv": path, "cells_summary.json": summary_path},
            {"z_score": report.z_score, "normal_steps": result.normal_steps})


_HANDLERS = {
    "rate": _cmd_rate,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "estimate-lower": _cmd_estimate_lower,
    "estimate-upper": _cmd_estimate_upper,
    "trajectory": _cmd_trajectory,
    "takeoff": _cmd_takeoff,
    "cells": _cmd_cells,
}

# flags forwarded into the command section when given
_SECTION_FLAGS = {
    "rate": ("c_grid",),
    "simulate": ("n", "z0", "threshold_n"),
    "oracle": ("n", "z0", "cap", "c", "threshold", "tol", "pmf_csv"),
    "estimate-lower": ("n", "c", "z0", "phase_fraction"),
    "estimate-upper": ("n", "c", "z0"),
    "trajectory": ("n", "c", "z0", "grid", "side", "phase_fraction", "method"),
    "takeoff": ("n", "c", "z0", "threshold_n", "phase_fraction"),
    "cells": ("n", "c", "z0"),
}
# every setting given must survive its cast (the handlers apply it)
_SETTING_CASTS = {"n": int, "z0": int, "cap": int, "threshold": int, "threshold_n": int,
                  "c": float, "tol": float, "phase_fraction": float,
                  "c_grid": parse_grid, "grid": parse_grid}


def _section_name(command: str) -> str:
    return command.replace("-", "_")


def effective_config(command: str, cfg: dict, ns) -> dict:
    """Collapse file config and flags into one self-contained config dict."""
    section = dict(cfg.get(_section_name(command), {}))
    for key in _SECTION_FLAGS[command]:
        value = getattr(ns, key, None)
        if value is not None:
            section[key] = value
    seed = ns.seed if ns.seed is not None else section.get("seed",
                                                           cfg.get("seed", 0))
    replicas = ns.replicas if ns.replicas is not None else section.get(
        "replicas", cfg.get("replicas", 10_000))
    section["seed"] = int(seed)
    section["replicas"] = int(replicas)
    for key, cast in _SETTING_CASTS.items():
        if section.get(key) is not None:
            cast(section[key])
    return {"environments": cfg["environments"], _section_name(command): section}


def execute(command: str, effective: dict, out_dir: str,
            workers: int) -> Tuple[dict, dict, dict]:
    """Run one command from its effective config; returns (record, artifacts, outputs)."""
    env = environment_from_dict(effective)
    params = effective[_section_name(command)]
    os.makedirs(out_dir, exist_ok=True)
    ctx = _Ctx(out_dir=out_dir, cfg_hash=config_hash(effective), workers=workers)
    started = time.time()
    artifacts, outputs = _HANDLERS[command](env, params, ctx)
    record = {
        "run_id": f"{command}-{ctx.cfg_hash[:12]}-{int(started * 1e3)}",
        "version": __version__,
        "command": command,
        "started": started,
        "finished": time.time(),
        "seed": params["seed"],
        "replicas": params["replicas"],
        "workers": workers,
        "config_hash": ctx.cfg_hash,
        "config": effective,
        "env_fingerprint": hashlib.sha256(
            canonical_json(environment_to_dict(env)).encode()).hexdigest(),
        "artifacts": {name: _sha256_file(path)
                      for name, path in artifacts.items()},
        "outputs": outputs,
    }
    return record, artifacts, outputs


def _append_log(out_dir: str, record: dict) -> None:
    with open(os.path.join(out_dir, LOG_NAME), "a") as fh:
        fh.write(canonical_json(record) + "\n")


# --- reproduce --------------------------------------------------------

def _first_divergence(path_a: str, path_b: str) -> Optional[Tuple[int, int]]:
    """(byte offset, 1-based line) of the first differing byte, None if equal."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        a = fa.read()
        b = fb.read()
    if a == b:
        return None
    limit = min(len(a), len(b))
    offset = next((i for i in range(limit) if a[i] != b[i]), limit)
    return offset, a[:offset].count(b"\n") + 1


def _cmd_reproduce(ns) -> int:
    out_dir = ns.out_dir or "."
    log_path = ns.log or os.path.join(out_dir, LOG_NAME)
    with open(log_path) as fh:
        try:
            records = [json.loads(line) for line in fh if line.strip()]
        except ValueError as err:
            raise InvalidArgumentError(f"run log {log_path}: {err}") from err
    if not records:
        raise InvalidArgumentError(f"no run records in {log_path}")
    if ns.run_id is not None:
        matches = [r for r in records if r["run_id"] == ns.run_id]
        if not matches:
            raise InvalidArgumentError(f"run id {ns.run_id!r} not found in {log_path}")
        record = matches[-1]
    else:
        record = records[-1]
    if record["version"] != __version__:
        raise VersionMismatchError(
            f"record from version {record['version']}, this is {__version__}"
        )
    replay_dir = os.path.join(out_dir, f"replay-{record['run_id']}")
    workers = ns.workers if ns.workers is not None else 1
    _, artifacts, _ = execute(record["command"], record["config"], replay_dir,
                              workers)
    all_pass = True
    for name, recorded_hash in record["artifacts"].items():
        new_path = artifacts.get(name)
        if new_path is None or not os.path.exists(new_path):
            print(f"FAIL {name}: artifact not regenerated")
            all_pass = False
            continue
        new_hash = _sha256_file(new_path)
        if new_hash == recorded_hash:
            print(f"PASS {name}")
            continue
        all_pass = False
        original = os.path.join(out_dir, name)
        if os.path.exists(original):
            div = _first_divergence(original, new_path)
            if div is not None:
                print(f"FAIL {name}: first divergence at byte {div[0]} "
                      f"(line {div[1]})")
                continue
        print(f"FAIL {name}: hash {new_hash[:12]} != recorded "
              f"{recorded_hash[:12]}")
    return 0 if all_pass else 3


# --- argument parsing -------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpre",
        description="Deviation rates, simulation, and exact checks for "
                    "branching processes in random environment",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int)
    common.add_argument("--replicas", type=int)
    common.add_argument("--out-dir", default=".")
    common.add_argument("--workers", type=int)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rate", parents=[common],
                       help="rate function table over a c grid")
    p.add_argument("--c-grid", dest="c_grid")

    p = sub.add_parser("simulate", parents=[common],
                       help="forward trajectories, one CSV row per replica")
    p.add_argument("--n", type=int)
    p.add_argument("--z0", type=int)
    p.add_argument("--threshold-N", dest="threshold_n", type=int)

    p = sub.add_parser("oracle", parents=[common],
                       help="exact population distribution tail")
    p.add_argument("--n", type=int)
    p.add_argument("--z0", type=int)
    p.add_argument("--cap", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--threshold", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--pmf-csv", dest="pmf_csv", action="store_const", const=True)

    p = sub.add_parser("estimate-lower", parents=[common],
                       help="importance-sampled lower deviation probability")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--z0", type=int)
    p.add_argument("--phase-fraction", dest="phase_fraction", type=float)

    p = sub.add_parser("estimate-upper", parents=[common],
                       help="importance-sampled upper deviation probability")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--z0", type=int)

    p = sub.add_parser("trajectory", parents=[common],
                       help="conditional growth profile on a time grid")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--z0", type=int)
    p.add_argument("--grid")
    p.add_argument("--side", choices=("lower", "upper"))
    p.add_argument("--phase-fraction", dest="phase_fraction", type=float)
    p.add_argument("--method", choices=("tilt_only", "two_phase"))

    p = sub.add_parser("takeoff", parents=[common],
                       help="conditional take-off time statistics")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--z0", type=int)
    p.add_argument("--threshold-N", dest="threshold_n", type=int)
    p.add_argument("--phase-fraction", dest="phase_fraction", type=float)

    p = sub.add_parser("cells", parents=[common],
                       help="binary cell tree and the expected-count identity")
    p.add_argument("--n", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--z0", type=int)

    p = sub.add_parser("reproduce", parents=[common],
                       help="replay a run record and byte-compare artifacts")
    p.add_argument("--log")
    p.add_argument("--run-id", dest="run_id")

    return parser


def _main(argv: Optional[Sequence[str]] = None) -> int:
    ns = _build_parser().parse_args(argv)
    if ns.command == "reproduce":
        return _cmd_reproduce(ns)
    if ns.config is None:
        raise InvalidArgumentError(f"command {ns.command!r} needs --config")
    try:   # config resolution: the only place a KeyError or ValueError is bad input
        with open(ns.config) as fh:
            cfg = json.load(fh, object_pairs_hook=reject_duplicate_keys)
        effective = effective_config(ns.command, cfg, ns)
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise InvalidArgumentError(f"config {ns.config}: {err!r}") from err
    out_dir = ns.out_dir or "."
    workers = ns.workers if ns.workers is not None else 1
    record, artifacts, outputs = execute(ns.command, effective, out_dir, workers)
    _append_log(out_dir, record)
    echo = {"run_id": record["run_id"], "artifacts": sorted(artifacts),
            "outputs": outputs}
    print(json.dumps(echo, sort_keys=True, default=str))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Exit 0 on success, 2 on bad input, 3 on a numeric failure or a bug."""
    try:
        return _main(argv)
    except BPREError as err:
        error = (err.code, err.kind, str(err))
    except OSError as err:
        error = (type(err).__name__, "config", str(err))
    except Exception as err:   # a bug, not bad input: keep its traceback
        import traceback   # only on this path: saves its import on every run
        traceback.print_exc()
        error = (type(err).__name__, "internal", str(err))
    code, kind, message = error
    print(json.dumps({"error": code, "kind": kind, "message": message}), file=sys.stderr)
    return 2 if kind == "config" else 3


if __name__ == "__main__":
    sys.exit(main())
