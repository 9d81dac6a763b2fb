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
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .cells import CellTreeConfig, exact_tail, expected_count_identity, simulate_cell_tree
from .envmodel import (REJECT_TOL, _number, environment_from_dict, environment_to_dict,
                       reject_duplicate_keys)
from .errors import BPREError, InvalidArgumentError, VersionMismatchError
from .oracle import population_distribution
from .ratefn import event_threshold, lower_deviation_rate, tilt_parameter, walk_rate
from .rare_event import (
    conditional_profile,
    empirical_rate,
    estimate_lower_tail,
    estimate_upper_tail,
    take_off_statistics,
)
from .simulate import SimConfig, check_workers, final_states

LOG_NAME = "runlog.jsonl"
GRID_POINTS_MAX = 10**5   # points of one "lo:hi:step" grid; shipped grids have 7 to 13


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


def _write(path: str, text: str) -> str:
    """Write text to path; returns the sha256 of the bytes written."""
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_csv(path: str, schema: str, columns: Sequence[str], rows,
              cfg_hash: str) -> str:
    lines = [
        f"#schema={schema}:{','.join(columns)}",
        f"#config={cfg_hash}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return _write(path, "\n".join(lines) + "\n")


def write_json(path: str, obj: dict, cfg_hash: str) -> str:
    payload = {"config": cfg_hash}
    payload.update(obj)
    return _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def parse_grid(spec) -> list:
    """Accept a list, "lo:hi:step", or a comma-separated list of values."""
    text = str(spec)
    if isinstance(spec, (list, tuple)):
        grid = [_number(x, "grid point") for x in spec]
    elif ":" in text:
        lo, hi, step = (float(x) for x in text.split(":"))
        span = (hi - lo) / step if step > 0 else math.nan
        if not (all(map(math.isfinite, (lo, hi, step, span))) and span < GRID_POINTS_MAX):
            raise InvalidArgumentError(f"grid {text!r} needs finite ends, a positive "
                                       f"step and fewer than {GRID_POINTS_MAX} points")
        grid = [lo + k * step for k in range(int(math.floor(span + 1e-9)) + 1)]
    else:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    if not (grid and all(map(math.isfinite, grid))):
        raise InvalidArgumentError(f"grid {text!r} needs one or more finite points")
    return grid


def _finite(value) -> float:
    """value as a float by envmodel's number rule; InvalidArgument for NaN
    or an infinity, as not finite."""
    x = _number(value, "value") if value == value else math.nan   # NaN: not finite
    if not math.isfinite(x):
        raise InvalidArgumentError(f"value is {value!r}, not a finite number")
    return x


def _seed(value) -> int:
    """value as an int by envmodel's number rule; InvalidArgument outside
    [0, 2^64), the seeds that key distinct streams."""
    x = _number(value, "value", int)
    if not 0 <= x < 1 << 64:
        raise InvalidArgumentError(f"value is {value!r}, outside [0, 2^64)")
    return x


def _bool(value) -> bool:
    """value itself if it is true or false; InvalidArgument for anything else."""
    if not isinstance(value, bool):
        raise InvalidArgumentError(f"{value!r} is not true or false")
    return value


# --- command handlers -------------------------------------------------

class _Ctx(NamedTuple):
    out_dir: str
    cfg_hash: str
    workers: int

    def artifact(self, name: str, write, *args) -> dict:
        """write(path, *args, cfg_hash) to out_dir/name; returns {name: its sha256}."""
        return {name: write(os.path.join(self.out_dir, name), *args, self.cfg_hash)}


def _draws(params: dict) -> dict:
    """The start size, seed and replica count every sampler takes."""
    return {"z0": params.get("z0", 1), "seed": params["seed"],
            "replicas": params["replicas"]}


def _cmd_rate(env, params: dict, ctx: _Ctx):
    rows = []
    for c in params["c_grid"]:
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
    return (ctx.artifact("rate.csv", write_csv, "rate-v1",
                         ("c", "psi", "lambda_c", "chi", "t_c", "slope"), rows),
            {"points": len(rows)})


def _cmd_simulate(env, params: dict, ctx: _Ctx):
    config = SimConfig(env=env, n=params["n"], **_draws(params))
    res = final_states(config, threshold=params.get("threshold_n"), workers=ctx.workers)
    columns = ["replica", "z_n", "s_n"] + (["tau"] if res.tau is not None else [])
    rows = []
    for r, (z, s) in enumerate(zip(res.z, res.s)):
        row = [r, z, float(s)]
        if res.tau is not None:
            row.append(int(res.tau[r]))
        rows.append(row)
    return (ctx.artifact("simulate.csv", write_csv, "simulate-v1", columns, rows),
            {"replicas": config.replicas, "normal_steps": res.normal_steps,
             "processes": res.processes})


def _cmd_oracle(env, params: dict, ctx: _Ctx):
    n, z0, cap = params["n"], params.get("z0", 1), params.get("cap", 1000)
    k = params["threshold"] if "threshold" in params else event_threshold(n, params["c"])
    dist = population_distribution(env, n, z0=z0, cap=cap)
    prob = dist.prob_le(k, tol=params.get("tol"))
    artifacts = ctx.artifact("oracle.json", write_json, {
        "n": n, "z0": z0, "cap": cap, "threshold": k,
        "probs_below": prob, "overflow": dist.overflow,
        "error_bound": dist.le_error_bound(k),
    })
    if params.get("pmf_csv"):
        rows = [(k_, float(p)) for k_, p in enumerate(dist.probs) if p > 0.0]
        artifacts.update(ctx.artifact("oracle_pmf.csv", write_csv, "oracle-pmf-v1",
                                      ("k", "prob"), rows))
    return artifacts, {"probs_below": prob, "overflow": dist.overflow}


def _estimates(ctx: _Ctx, name: str, legs, outputs: dict):
    """Write the legs; report the last one's empirical rate, or zero_mass."""
    artifacts = ctx.artifact(
        name, write_csv, "estimate-v1", ("n", "c", "estimate", "stderr", "ess", "method"),
        [(r.n, r.c, r.estimate, r.stderr, r.ess, r.method.value) for r in legs])
    outputs["normal_steps"] = sum(leg.normal_steps for leg in legs)
    outputs["processes"] = max(leg.processes for leg in legs)   # the legs run in turn
    if not legs[-1].zero_mass:
        rate, rate_se = empirical_rate(legs[-1])
        outputs.update({"rate": rate, "rate_stderr": rate_se})
    else:
        outputs["zero_mass"] = True
    return artifacts, outputs


def _cmd_estimate_lower(env, params: dict, ctx: _Ctx):
    est = estimate_lower_tail(env, params["n"], params["c"], workers=ctx.workers,
                              phase_fraction=params.get("phase_fraction"),
                              **_draws(params))
    return _estimates(ctx, "estimate_lower.csv", (est.tilt_only, est.two_phase),
                      {"take_off": est.take_off})


def _cmd_estimate_upper(env, params: dict, ctx: _Ctx):
    res = estimate_upper_tail(env, params["n"], params["c"], workers=ctx.workers,
                              **_draws(params))
    return _estimates(ctx, "estimate_upper.csv", (res,),
                      {"estimate": res.estimate, "ess": res.ess})


def _weighing(res) -> dict:
    """The summary outputs of the weighing a conditional reader reads."""
    return {"ess": res.ess, "event_estimate": res.estimate, "method": res.method.value,
            "normal_steps": res.normal_steps, "hold_steps": res.hold_steps,
            "processes": res.processes}


def _cmd_trajectory(env, params: dict, ctx: _Ctx):
    prof = conditional_profile(
        env, params["n"], params["c"], grid=params.get("grid"),
        side=params.get("side", "lower"), workers=ctx.workers,
        phase_fraction=params.get("phase_fraction"), method=params.get("method"),
        **_draws(params))
    rows = [
        (float(t), float(v), float(se), float(ref))
        for t, v, se, ref in zip(prof.grid, prof.values, prof.stderr,
                                 prof.reference)
    ]
    outputs = {"sup_distance": prof.sup_distance,
               "sup_distance_stderr": prof.sup_distance_stderr, **_weighing(prof.result)}
    return (ctx.artifact("trajectory.csv", write_csv, "trajectory-v1",
                         ("t", "value", "stderr", "reference"), rows), outputs)


def _cmd_takeoff(env, params: dict, ctx: _Ctx):
    res = take_off_statistics(
        env, params["n"], params["c"], pop_threshold=params.get("threshold_n", 10),
        workers=ctx.workers, phase_fraction=params.get("phase_fraction"),
        **_draws(params))
    # aggregate the weighted sample into a histogram over distinct fractions
    order = np.argsort(res.fractions, kind="stable")
    fracs = res.fractions[order]
    weights = res.weights[order]
    uniq, start = np.unique(fracs, return_index=True)
    sums = np.add.reduceat(weights, start)
    rows = [(float(f), float(w)) for f, w in zip(uniq, sums)]
    outputs = {"mean_fraction": res.mean_fraction, "stderr": res.stderr,
               **_weighing(res.result)}
    return (ctx.artifact("takeoff.csv", write_csv, "takeoff-v1",
                         ("fraction", "weight"), rows), outputs)


def _cmd_cells(env, params: dict, ctx: _Ctx):
    if env.k != 2 or any(abs(w - 0.5) > REJECT_TOL for w in env.weights):
        raise InvalidArgumentError(
            f"cells needs two environments of weight 1/2, got weights {env.weights}: "
            "a uniform lineage of the binary tree sees each law with probability 1/2")
    config = CellTreeConfig(n=params["n"], law1=env.components[0],
                            law2=env.components[1], c=params["c"], **_draws(params))
    exact_tail(config)   # a DP past its budget refuses here, before any tree grows
    result = simulate_cell_tree(config, workers=ctx.workers)
    report = expected_count_identity(config, result=result)   # resumes the DP: no generation
    rows = [
        (r, int(b), int(a))
        for r, (b, a) in enumerate(zip(result.below, result.above))
    ]
    artifacts = ctx.artifact("cells.csv", write_csv, "cells-v1",
                             ("replicate", "n_below", "n_above"), rows)
    artifacts.update(ctx.artifact("cells_summary.json", write_json, {
        "tree_mean": result.mean_below, "tree_stderr": result.stderr_below,
        "expected": report.expected, "z_score": report.z_score,
        "probability": report.probability, "threshold": report.threshold,
        "n": config.n, "replicas": config.replicas,
    }))
    return artifacts, {"z_score": report.z_score, "normal_steps": result.normal_steps,
                       "processes": result.processes}


# --- settings and commands --------------------------------------------

# setting -> (flag, argparse keywords, cast of the flag's or the config's value;
# _cast applies int and float by envmodel's number rule)
_SETTINGS = {
    "c_grid": ("--c-grid", {}, parse_grid),
    "n": ("--n", {"type": int}, int),
    "z0": ("--z0", {"type": int}, int),
    "threshold_n": ("--threshold-N", {"type": int}, int),
    "cap": ("--cap", {"type": int}, int),
    "c": ("--c", {"type": float}, _finite),
    "threshold": ("--threshold", {"type": int}, int),
    "tol": ("--tol", {"type": float}, float),
    "pmf_csv": ("--pmf-csv", {"action": "store_const", "const": True}, _bool),
    "grid": ("--grid", {}, parse_grid),
    "side": ("--side", {"choices": ("lower", "upper")}, str),
    "phase_fraction": ("--phase-fraction", {"type": float}, float),
    "method": ("--method", {"choices": ("tilt_only", "two_phase")}, str),
}

# command -> (handler, help, its settings in flag order)
_COMMANDS = {
    "rate": (_cmd_rate, "rate function table over a c grid", ("c_grid",)),
    "simulate": (_cmd_simulate, "forward trajectories, one CSV row per replica",
                 ("n", "z0", "threshold_n")),
    "oracle": (_cmd_oracle, "exact population distribution tail",
               ("n", "z0", "cap", "c", "threshold", "tol", "pmf_csv")),
    "estimate-lower": (_cmd_estimate_lower,
                       "importance-sampled lower deviation probability",
                       ("n", "c", "z0", "phase_fraction")),
    "estimate-upper": (_cmd_estimate_upper,
                       "importance-sampled upper deviation probability",
                       ("n", "c", "z0")),
    "trajectory": (_cmd_trajectory, "conditional growth profile on a time grid",
                   ("n", "c", "z0", "grid", "side", "phase_fraction", "method")),
    "takeoff": (_cmd_takeoff, "conditional take-off time statistics",
                ("n", "c", "z0", "threshold_n", "phase_fraction")),
    "cells": (_cmd_cells, "binary cell tree and the expected-count identity",
              ("n", "c", "z0")),
}


_CASTS = {"seed": _seed, "replicas": int, **{key: spec[2] for key, spec in _SETTINGS.items()}}


def _cast(key: str, value):
    """value through key's cast, if it has one; InvalidArgument naming key
    for a value the cast refuses.  An int or a float is cast by envmodel's
    number rule: no bool, no NaN, ints whole, overflow refused."""
    cast = _CASTS.get(key)
    try:
        if cast in (int, float):
            return _number(value, "value", cast)
        return value if cast is None else cast(value)
    except (TypeError, ValueError) as err:   # InvalidArgument is a ValueError
        raise InvalidArgumentError(f"setting {key!r}: {err}") from err


class _Settings(dict):
    """A config section with each setting given cast once; null is unset."""

    def __init__(self, command: str, section: dict):
        super().__init__((key, _cast(key, value))
                         for key, value in section.items() if value is not None)
        self.command = command

    def __missing__(self, key):
        raise InvalidArgumentError(
            f"missing setting {key!r} for command {self.command!r}")


def _section_name(command: str) -> str:
    return command.replace("-", "_")


def effective_config(command: str, cfg: dict, ns) -> dict:
    """Collapse file config and flags into one self-contained config dict.

    Values stay as the flags and the file give them, except seed and
    replicas: they may come from the file's top level and are recorded
    cast.  execute casts every setting.
    """
    section = dict(cfg.get(_section_name(command), {}))
    for key in _COMMANDS[command][2]:
        value = getattr(ns, key, None)
        if value is not None:
            section[key] = value
    seed = ns.seed if ns.seed is not None else section.get("seed",
                                                           cfg.get("seed", 0))
    replicas = ns.replicas if ns.replicas is not None else section.get(
        "replicas", cfg.get("replicas", 10_000))
    section["seed"] = _cast("seed", seed)
    section["replicas"] = _cast("replicas", replicas)
    return {"environments": cfg["environments"], _section_name(command): section}


def execute(command: str, effective: dict, out_dir: str, workers: int) -> dict:
    """Run one command from its effective config; returns its run record,
    whose artifacts map each file written to the sha256 of its bytes."""
    settings = _Settings(command, effective[_section_name(command)])
    seed, replicas = settings["seed"], settings["replicas"]   # a record may lack them
    env = environment_from_dict(effective)
    os.makedirs(out_dir, exist_ok=True)
    ctx = _Ctx(out_dir=out_dir, cfg_hash=config_hash(effective), workers=workers)
    started = time.time()
    artifacts, outputs = _COMMANDS[command][0](env, settings, ctx)
    outputs.setdefault("processes", 1)   # each sampler reports the processes it ran on
    return {
        "run_id": f"{command}-{ctx.cfg_hash[:12]}-{int(started * 1e3)}",
        "version": __version__,
        "numpy": np.__version__,   # its Generator streams may change between versions
        "command": command,
        "started": started,
        "finished": time.time(),
        "seed": seed,
        "replicas": replicas,
        "workers": workers,
        "config_hash": ctx.cfg_hash,
        "config": effective,
        "env_fingerprint": hashlib.sha256(
            canonical_json(environment_to_dict(env)).encode()).hexdigest(),
        "artifacts": artifacts,
        "outputs": outputs,
    }


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


def _workers(ns) -> int:
    workers = ns.workers if ns.workers is not None else 1
    check_workers(workers)
    return workers


def _field(record, key: str, kind: type):
    """record[key] if record is a dict holding a kind there; else InvalidArgument."""
    value = record.get(key) if isinstance(record, dict) else None
    if not isinstance(value, kind):
        raise InvalidArgumentError(f"run record field {key!r} is not a {kind.__name__}")
    return value


def _cmd_reproduce(ns) -> int:
    out_dir = ns.out_dir or "."
    log_path = ns.log or os.path.join(out_dir, LOG_NAME)
    with open(log_path) as fh:
        try:
            records = [json.loads(line, object_pairs_hook=reject_duplicate_keys)
                       for line in fh if line.strip()]
        except ValueError as err:
            raise InvalidArgumentError(f"run log {log_path}: {err}") from err
    if not records:
        raise InvalidArgumentError(f"no run records in {log_path}")
    if ns.run_id is not None:
        matches = [r for r in records if isinstance(r, dict) and r.get("run_id") == ns.run_id]
        if not matches:
            raise InvalidArgumentError(f"run id {ns.run_id!r} not found in {log_path}")
        record = matches[-1]
    else:
        record = records[-1]
    version = _field(record, "version", str)
    if version != __version__:
        raise VersionMismatchError(f"record from version {version}, this is {__version__}")
    command, config = _field(record, "command", str), _field(record, "config", dict)
    if command not in _COMMANDS:
        raise InvalidArgumentError(f"run record names no command {command!r}")
    _field(config, _section_name(command), dict)
    recorded = _field(record, "artifacts", dict)
    for name in recorded:   # each artifact's recorded digest
        _field(recorded, name, str)
    run_id = _field(record, "run_id", str)
    if not run_id or ".." in run_id or os.path.basename(run_id) != run_id:
        raise InvalidArgumentError(f"run record field 'run_id' {run_id!r} is not a file name")
    replay_dir = os.path.join(out_dir, f"replay-{run_id}")
    replayed = execute(command, config, replay_dir, _workers(ns))["artifacts"]
    all_pass = True
    for name, recorded_hash in recorded.items():
        new_hash = replayed.get(name)
        if new_hash is None:
            print(f"FAIL {name}: artifact not regenerated")
            all_pass = False
            continue
        if new_hash == recorded_hash:
            print(f"PASS {name}")
            continue
        all_pass = False
        original = os.path.join(out_dir, name)
        if os.path.exists(original):
            div = _first_divergence(original, os.path.join(replay_dir, name))
            if div is not None:
                print(f"FAIL {name}: first divergence at byte {div[0]} "
                      f"(line {div[1]})")
                continue
        print(f"FAIL {name}: hash {new_hash[:12]} != recorded "
              f"{recorded_hash[:12]}")
    recorded_numpy = record.get("numpy")   # an older record has no numpy field
    if not all_pass and recorded_numpy not in (None, np.__version__):
        print(f"NOTE recorded with numpy {recorded_numpy}, replayed with numpy "
              f"{np.__version__}")
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
    for command, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        for key in keys:
            flag, kwargs, _ = _SETTINGS[key]
            p.add_argument(flag, dest=key, **kwargs)
    p = sub.add_parser("reproduce", parents=[common],
                       help="replay a run record and byte-compare artifacts")
    p.add_argument("--log")
    p.add_argument("--run-id", dest="run_id")

    return parser


def _main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(args) - 2, -1, -1):   # argparse reads "-1,0,5" as an option
        if args[i] in ("--c-grid", "--grid") and not args[i + 1].startswith("--"):
            args[i: i + 2] = [f"{args[i]}={args[i + 1]}"]
    ns = _build_parser().parse_args(args)
    if ns.command == "reproduce":
        return _cmd_reproduce(ns)
    if ns.config is None:
        raise InvalidArgumentError(f"command {ns.command!r} needs --config")
    try:   # config resolution: the only place a KeyError or ValueError is bad input
        with open(ns.config) as fh:
            cfg = json.load(fh, object_pairs_hook=reject_duplicate_keys)
        effective = effective_config(ns.command, cfg, ns)
    except BPREError:   # a cast's own message names the setting
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise InvalidArgumentError(f"config {ns.config}: {err!r}") from err
    out_dir = ns.out_dir or "."
    record = execute(ns.command, effective, out_dir, _workers(ns))
    _append_log(out_dir, record)
    echo = {"run_id": record["run_id"], "artifacts": sorted(record["artifacts"]),
            "outputs": record["outputs"]}
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
