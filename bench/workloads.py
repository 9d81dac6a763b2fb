"""The four workloads: the ops of one round and the checks on their outputs.

A round is one pass over a workload's ops with one seed.  Each op is a
`bpre` CLI command or a library call of the exact-check client; its check
reads the op's own artifacts and either returns what the metrics need or
raises CheckFailed.  Comparisons against the exact oracle are pooled over
the rounds of a run (see agreement_failures), because a single
importance-sampling estimate of a rare event can sit many of its own
stderrs below the truth while being unbiased.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from metrics import nominal_steps, pooled, z_score

CONFIGS = {"g2": "configs/g2.json", "fig2": "configs/fig2.json"}

# Exact values of configs/g2.json from bpre.oracle (population_distribution
# and conditional_trajectory).  The law cannot shrink and every threshold is
# within the cap, so their truncation error bound is exactly 0.
EXACT_LOWER = {                         # P(Z_n <= floor(e^{cn})), cap
    (8, 0.4): 0.012010430361483361,     # k = 24, cap 1000
    (20, 0.38): 1.336339507123755e-05,  # k = 1998, cap 2000
    (40, 0.19): 1.2440291345366695e-17,  # k = 1998, cap 2000
}
EXACT_UPPER_N8 = 0.010044326030330675   # P(Z_8 >= 4448), the e^{8.4} event
EXACT_TRAJ_N10 = 0.004548628277750656   # P(Z_10 <= 54), conditional_trajectory
GOLDEN_RTOL = 1e-9                      # exact outputs are deterministic

# Agreement bound in pooled stderrs.  An unbiased estimate passes it on
# any seed unless its stderr is itself unreliable; see HEAVY_FLOOR.
Z_TOL = 6.0
# TiltOnly at g2 n=20 has an ESS near 5 per 1000 replicas: over 120 seeds
# its estimate ranged from 0.12x to 8x the exact value, with z down to
# -18, because a run that misses the rare heavy paths also reports a small
# stderr.  Its low side is therefore only gated by a ratio floor; the high
# side, where a large weight inflates the stderr too, keeps the z bound.
HEAVY_FLOOR = 0.05
HEAVY_N = 20   # horizon from which the g2 TiltOnly check is the heavy one

# Replicas per op, sized so one round takes a few seconds on 2 cores.
REPLICAS = {"is-deep-fig2": 1000, "desk-sweep-g2": 1000,
            "cell-tree-g2": 500, "exact-check-g2": 1000}


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclass
class Op:
    name: str                     # row label and check key
    command: str                  # step-count key of metrics.nominal_steps
    n: int
    c: float
    replicas: int
    seed: int
    argv: Optional[List[str]] = None   # bpre CLI arguments
    lib: Optional[dict] = None         # exact-check client spec
    out_dir: str = ""
    exact: Optional[float] = None
    same_as: Optional[str] = None      # artifact that must be byte-identical

    @property
    def steps(self) -> int:
        return nominal_steps(self.command, self.replicas, self.n)


@dataclass
class Run:
    """What executing one op gave."""

    op: Op
    rc: int
    stdout: str
    stderr: str
    wall: float
    rss_mb: float = 0.0
    result: Optional[dict] = None      # library result of a client op


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    estimate: Optional[Tuple[float, float]] = None   # reported (est, se)
    ess: Optional[float] = None
    # (key, seed, estimate, stderr, exact, heavy) for the pooled oracle check
    agree: List[tuple] = field(default_factory=list)


# --- building rounds ---------------------------------------------------

def _cli(name: str, cfg: str, n: int, c: float, replicas: int, seed: int,
         workdir: str, command: Optional[str] = None, workers: int = 1,
         exact: Optional[float] = None) -> Op:
    out = os.path.join(workdir, name)
    cmd = command or name
    argv = [cmd, "--config", CONFIGS[cfg], "--seed", str(seed),
            "--replicas", str(replicas), "--out-dir", out,
            "--workers", str(workers)]
    return Op(name=name, command=cmd, n=n, c=c, replicas=replicas, seed=seed,
              argv=argv, out_dir=out, exact=exact)


def _is_deep(seed: int, workdir: str) -> List[Op]:
    r = REPLICAS["is-deep-fig2"]
    return [_cli("estimate-lower", "fig2", 40, 1.1, r, seed, workdir),
            _cli("trajectory", "fig2", 40, 1.1, r, seed, workdir),
            _cli("takeoff", "fig2", 80, 1.1, r, seed, workdir)]


def _desk_sweep(seed: int, workdir: str) -> List[Op]:
    r = REPLICAS["desk-sweep-g2"]
    exact8 = EXACT_LOWER[(8, 0.4)]
    lower = _cli("estimate-lower", "g2", 8, 0.4, r, seed, workdir, exact=exact8)
    w2 = _cli("estimate-lower-w2", "g2", 8, 0.4, r, seed, workdir,
              command="estimate-lower", workers=2)
    w2.same_as = os.path.join(lower.out_dir, "estimate_lower.csv")
    repro = Op(name="reproduce", command="reproduce-lower", n=8, c=0.4,
               replicas=r, seed=seed,
               argv=["reproduce", "--out-dir", lower.out_dir],
               out_dir=lower.out_dir)
    return [
        _cli("rate", "g2", 0, 0.0, r, seed, workdir),
        _cli("simulate", "g2", 8, 0.4, r, seed, workdir, exact=exact8),
        _cli("oracle", "g2", 8, 0.4, r, seed, workdir, exact=exact8),
        lower,
        _cli("estimate-upper", "g2", 8, 1.05, r, seed, workdir,
             exact=EXACT_UPPER_N8),
        _cli("trajectory", "g2", 8, 0.4, r, seed, workdir),
        _cli("takeoff", "g2", 8, 0.4, r, seed, workdir),
        repro,
        w2,
    ]


def _cell_tree(seed: int, workdir: str) -> List[Op]:
    return [_cli("cells", "g2", 8, 0.4, REPLICAS["cell-tree-g2"], seed, workdir)]


def _exact_check(seed: int, workdir: str) -> List[Op]:
    r = REPLICAS["exact-check-g2"]

    def lib(name, kind, command, n, c, replicas=0, cap=0, exact=None):
        spec = {"name": name, "kind": kind, "n": n, "c": c,
                "replicas": replicas, "seed": seed, "cap": cap}
        return Op(name=name, command=command, n=n, c=c, replicas=replicas,
                  seed=seed, lib=spec, exact=exact)

    return [
        lib("oracle.n8", "oracle", "oracle", 8, 0.4, cap=1000,
            exact=EXACT_LOWER[(8, 0.4)]),
        lib("oracle.n20", "oracle", "oracle", 20, 0.38, cap=2000,
            exact=EXACT_LOWER[(20, 0.38)]),
        lib("oracle.n40", "oracle", "oracle", 40, 0.19, cap=2000,
            exact=EXACT_LOWER[(40, 0.19)]),
        lib("cond_traj.n10", "cond_traj", "oracle", 10, 0.4,
            exact=EXACT_TRAJ_N10),
        lib("lower.n8", "lower", "estimate-lower", 8, 0.4, r,
            exact=EXACT_LOWER[(8, 0.4)]),
        lib("lower.n20", "lower", "estimate-lower", 20, 0.38, r,
            exact=EXACT_LOWER[(20, 0.38)]),
        lib("profile.n10", "profile", "profile", 10, 0.4, r),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                  # key of CONFIGS
    build: Callable[[int, str], List[Op]]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("is-deep-fig2", "fig2", _is_deep),
    Workload("desk-sweep-g2", "g2", _desk_sweep),
    Workload("cell-tree-g2", "g2", _cell_tree),
    Workload("exact-check-g2", "g2", _exact_check),
)}


def round_seed(seed: int, k: int) -> int:
    """Seed of round k of a run; distinct across runs and rounds."""
    return seed * 1000 + k


# --- checks ------------------------------------------------------------

def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _csv(path: str) -> List[Dict[str, str]]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _outputs(run: Run) -> dict:
    return json.loads(run.stdout.strip().splitlines()[-1])["outputs"]


def _golden(value: float, exact: float, what: str) -> None:
    _need(abs(value - exact) <= GOLDEN_RTOL * abs(exact),
          f"{what} = {value!r}, exact value is {exact!r}")


def _check_rate(run: Run, ctx: dict) -> Outcome:
    rows = _csv(os.path.join(run.op.out_dir, "rate.csv"))
    _need(len(rows) == 7, f"rate.csv has {len(rows)} rows, expected 7")
    _need(all(float(r["psi"]) >= 0.0 for r in rows), "negative walk rate")
    return Outcome(True)


def _check_simulate(run: Run, ctx: dict) -> Outcome:
    op = run.op
    rows = _csv(os.path.join(op.out_dir, "simulate.csv"))
    _need(len(rows) == op.replicas, f"{len(rows)} rows for {op.replicas} replicas")
    zs = [int(r["z_n"]) for r in rows]
    _need(min(zs) >= 1, "population below 1 under a no-extinction law")
    k = math.floor(math.exp(op.c * op.n) + 1e-12)
    hits = sum(1 for z in zs if z <= k)
    p = op.exact
    z = (hits - op.replicas * p) / math.sqrt(op.replicas * p * (1.0 - p))
    _need(abs(z) <= Z_TOL, f"naive P(Z_n <= {k}) off by z = {z:.2f}")
    return Outcome(True)


def _check_oracle(run: Run, ctx: dict) -> Outcome:
    with open(os.path.join(run.op.out_dir, "oracle.json")) as fh:
        out = json.load(fh)
    _golden(out["probs_below"], run.op.exact, "oracle probs_below")
    _need(out["error_bound"] == 0.0, "nonzero truncation bound")
    return Outcome(True)


def _lower_outcome(op: Op, tilt: Tuple[float, float, float],
                   two: Tuple[float, float, float], key: str) -> Outcome:
    """Shared by the CLI and library estimate-lower ops: (est, se, ess) rows."""
    _need(two[0] > 0.0, "zero TwoPhase estimate")
    agree = []
    if op.exact is not None:
        # TwoPhase targets the held partial event, a lower bound
        _need(two[0] - op.exact <= Z_TOL * two[1],
              f"TwoPhase {two[0]:.4g} above the exact full event {op.exact:.4g}")
        agree.append((key, op.seed, tilt[0], tilt[1], op.exact, op.n >= HEAVY_N))
    else:
        _need(two[1] < two[0], f"TwoPhase stderr {two[1]:.3g} >= estimate")
    return Outcome(True, estimate=(two[0], two[1]), ess=tilt[2] + two[2],
                   agree=agree)


def _check_lower(run: Run, ctx: dict) -> Outcome:
    rows = {r["method"]: r for r in
            _csv(os.path.join(run.op.out_dir, "estimate_lower.csv"))}
    _need(set(rows) == {"TiltOnly", "TwoPhase"}, f"methods {sorted(rows)}")
    tilt, two = ((float(rows[m]["estimate"]), float(rows[m]["stderr"]),
                  float(rows[m]["ess"])) for m in ("TiltOnly", "TwoPhase"))
    _need("rate" in _outputs(run), "summary lacks a rate")
    return _lower_outcome(run.op, tilt, two,
                          f"estimate-lower.n{run.op.n}.TiltOnly")


def _check_upper(run: Run, ctx: dict) -> Outcome:
    (row,) = _csv(os.path.join(run.op.out_dir, "estimate_upper.csv"))
    est, se, ess = float(row["estimate"]), float(row["stderr"]), float(row["ess"])
    _need(est > 0.0, "zero estimate")
    return Outcome(True, estimate=(est, se), ess=ess,
                   agree=[(f"estimate-upper.n{run.op.n}", run.op.seed, est, se,
                           run.op.exact, False)])


def _check_trajectory(run: Run, ctx: dict) -> Outcome:
    op = run.op
    vals = [float(r["value"]) for r in
            _csv(os.path.join(op.out_dir, "trajectory.csv"))]
    _need(len(vals) == op.n + 1, f"{len(vals)} grid points for n={op.n}")
    _need(abs(vals[0]) <= 1e-12, f"profile starts at {vals[0]!r}, not 0")
    # every weighted path is non-decreasing, so their weighted mean is too
    _need(all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])),
          "profile decreases")
    _need(vals[-1] <= op.c + 1e-9, f"profile ends at {vals[-1]!r} > c")
    return Outcome(True, ess=float(_outputs(run)["ess"]))


def _check_takeoff(run: Run, ctx: dict) -> Outcome:
    rows = _csv(os.path.join(run.op.out_dir, "takeoff.csv"))
    fr = [float(r["fraction"]) for r in rows]
    w = [float(r["weight"]) for r in rows]
    _need(abs(math.fsum(w) - 1.0) <= 1e-9, f"weights sum to {math.fsum(w)!r}")
    _need(all(0.0 <= f <= 1.0 for f in fr), "fraction outside [0, 1]")
    out = _outputs(run)
    _need(0.0 <= out["mean_fraction"] <= 1.0, "mean fraction outside [0, 1]")
    _need(out["event_estimate"] > 0.0, "zero event estimate")
    return Outcome(True, ess=float(out["ess"]))


def _check_reproduce(run: Run, ctx: dict) -> Outcome:
    lines = run.stdout.strip().splitlines()
    _need(bool(lines) and all(ln.startswith("PASS") for ln in lines),
          f"reproduce printed {lines!r}")
    return Outcome(True)


def _check_same_bytes(run: Run, ctx: dict) -> Outcome:
    mine = os.path.join(run.op.out_dir, os.path.basename(run.op.same_as))
    with open(mine, "rb") as a, open(run.op.same_as, "rb") as b:
        _need(a.read() == b.read(), "--workers 2 artifact differs from --workers 1")
    return Outcome(True)


def _check_cells(run: Run, ctx: dict) -> Outcome:
    with open(os.path.join(run.op.out_dir, "cells_summary.json")) as fh:
        out = json.load(fh)
    _need(abs(out["z_score"]) <= Z_TOL, f"cells z-score {out['z_score']:.2f}")
    _need(out["tree_mean"] > 0.0, "no small cells")
    return Outcome(True, estimate=(out["tree_mean"], out["tree_stderr"]),
                   ess=float(run.op.replicas))


def _check_lib_oracle(run: Run, ctx: dict) -> Outcome:
    res = run.result
    _golden(res["prob"], run.op.exact, run.op.name)
    _need(res["error_bound"] == 0.0, "nonzero truncation bound")
    return Outcome(True)


def _check_lib_cond_traj(run: Run, ctx: dict) -> Outcome:
    res = run.result
    _golden(res["probability"], run.op.exact, "conditional probability")
    ctx["cond_traj"] = res["profile"]
    return Outcome(True)


def _check_lib_lower(run: Run, ctx: dict) -> Outcome:
    res = run.result
    return _lower_outcome(run.op, tuple(res["tilt_only"]), tuple(res["two_phase"]),
                          f"{run.op.name}.TiltOnly")


def _check_lib_profile(run: Run, ctx: dict) -> Outcome:
    res, op = run.result, run.op
    exact = ctx.get("cond_traj")
    _need(exact is not None, "no exact trajectory in this round")
    _need(len(res["values"]) == len(exact), "grid length differs from oracle")
    _need(abs(res["values"][0]) <= 1e-12, "profile does not start at 0")
    agree = [(f"{op.name}.k{k}", op.seed, v, se, ex, False)
             for k, (v, se, ex) in enumerate(zip(res["values"], res["stderr"],
                                                 exact)) if k > 0]
    return Outcome(True, ess=float(res["ess"]), agree=agree)


CHECKS: Dict[str, Callable[[Run, dict], Outcome]] = {
    "rate": _check_rate,
    "simulate": _check_simulate,
    "oracle": _check_oracle,
    "estimate-lower": _check_lower,
    "estimate-upper": _check_upper,
    "trajectory": _check_trajectory,
    "takeoff": _check_takeoff,
    "reproduce": _check_reproduce,
    "estimate-lower-w2": _check_same_bytes,
    "cells": _check_cells,
    "oracle.n8": _check_lib_oracle,
    "oracle.n20": _check_lib_oracle,
    "oracle.n40": _check_lib_oracle,
    "cond_traj.n10": _check_lib_cond_traj,
    "lower.n8": _check_lib_lower,
    "lower.n20": _check_lib_lower,
    "profile.n10": _check_lib_profile,
}


def evaluate(run: Run, ctx: dict) -> Outcome:
    """Check one op; a non-zero exit or malformed output is a failure."""
    if run.rc != 0:
        tail = run.stderr.strip().splitlines()[-1:] or [""]
        return Outcome(False, f"exit {run.rc}: {tail[0][:200]}")
    try:
        return CHECKS[run.op.name](run, ctx)
    except CheckFailed as err:
        return Outcome(False, str(err))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return Outcome(False, f"unreadable output: {type(err).__name__}: {err}")


def agreement_failures(agree: List[tuple]) -> Tuple[int, List[str]]:
    """Pool each estimate over distinct seeds and compare it with the exact value.

    Returns (number of pooled checks, failure messages).  A heavy entry is
    gated above by Z_TOL and below by HEAVY_FLOOR * exact; the others by
    |z| <= Z_TOL.
    """
    by_key: Dict[str, Dict[int, Tuple[float, float, float, bool]]] = {}
    for key, seed, est, se, exact, heavy in agree:
        by_key.setdefault(key, {})[seed] = (est, se, exact, heavy)
    failures = []
    for key, rows in sorted(by_key.items()):
        est, se = pooled([(r[0], r[1]) for r in rows.values()])
        exact, heavy = next(iter(rows.values()))[2:]
        z = z_score(est, exact, se)
        bad = (z > Z_TOL or est < HEAVY_FLOOR * exact) if heavy else abs(z) > Z_TOL
        if bad:
            failures.append(f"{key}: pooled {est:.5g} +- {se:.2g} over "
                            f"{len(rows)} seeds vs exact {exact:.5g} (z = {z:.2f})")
    return len(by_key), failures
