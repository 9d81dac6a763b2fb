"""bpre benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Usage (from the repository root):

    python3 bench/run_bench.py --workload desk-sweep-g2 --seed 1 --seconds 30 --trace 0
    python3 bench/run_bench.py --all --seed 0 --seconds 30 --tag 7902a49

One client in a closed loop: each op is a `bpre` command in a fresh
interpreter (or a library call in the exact-check client), started only
after the previous one ended.  A run repeats rounds of the workload's ops,
round k with seed 1000 * seed + k, until --seconds are used, checks every
output, and prints a metric table followed by one JSON line (times scaled
to a reference machine speed by a bpre-free yardstick task, see below):
{"correct", "attempted", "failed", "metrics"}.  --trace 1 instead runs the
layer probes and one round in-process, twice untraced and twice traced,
and reports the per-layer metrics and the tracing overhead.  --all runs every
workload both ways and, with --tag, writes bench/BENCH_<tag>.json.

bpre is imported from the checkout's src/ and nothing is installed; all
scratch files go under .bench_work/ at the root and are removed at exit,
except the span dump of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from metrics import self_times, summarize, table, time_to_1pct
from workloads import (CONFIGS, WORKLOADS, Outcome, Run, agreement_failures,
                       evaluate, round_seed)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_FIRST = 3      # set-up and yardstick samples before the first round,
                     # then one of each after every round
OP_TIMEOUT_S = 60.0
SETUP_CODE = ("import json, sys, bpre.cli\n"
              "from bpre.envmodel import environment_from_dict\n"
              "with open(sys.argv[1]) as fh:\n"
              "    environment_from_dict(json.load(fh))\n")

# The yardstick: a fresh interpreter importing what bpre.cli imports, minus
# bpre itself, so it times the machine and not the program.  On a shared
# 2-core machine the CPU speed drifts up to 2x in phases of minutes; the time metrics are scaled by
# YARDSTICK_REF_S / (the run's median yardstick time), i.e. given in
# seconds of a machine on which the yardstick takes YARDSTICK_REF_S.
YARDSTICK_CODE = "import argparse, concurrent.futures, dataclasses, hashlib, json, numpy"
YARDSTICK_REF_S = 0.20

# End-to-end metrics, name -> unit.  The IS-health pair is printed but left
# out of the result line: it moves with the seed more than any bound allows.
END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}
PRINTED_ONLY = {"time_to_1pct_s": "s", "ess_per_s": "1/s", "raw_wall_s": "s",
                "raw_setup_s": "s", "yardstick_s": "s"}


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: List[str], cwd: str, log_base: str) -> Tuple[int, str, str, float, float]:
    """Run argv to completion; (rc, stdout, stderr, wall s, max RSS MB)."""
    out_path, err_path = log_base + ".out", log_base + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=cwd,
                                env=_child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


def _run_round(ops, rdir: str, config: str) -> List[Run]:
    """Each CLI op in its own interpreter; library ops in one client process."""
    runs = []
    for op in ops:
        if op.argv is not None:
            rc, out, err, wall, rss = _spawn(
                [sys.executable, "-m", "bpre.cli"] + op.argv, ROOT,
                os.path.join(rdir, f"_{op.name}"))
            runs.append(Run(op, rc, out, err, wall, rss))
    lib_ops = [op for op in ops if op.lib is not None]
    if lib_ops:
        rc, out, err, _, rss = _spawn(
            [sys.executable, os.path.join(BENCH_DIR, "libclient.py"),
             os.path.join(ROOT, CONFIGS[config]),
             json.dumps([op.lib for op in lib_ops])],
            ROOT, os.path.join(rdir, "_client"))
        try:
            results = {r["name"]: r for r in json.loads(out)} if rc == 0 else {}
        except ValueError:   # a client that printed no result list
            results, rc = {}, 1
        for op in lib_ops:
            res = results.get(op.name)
            if res is None:
                runs.append(Run(op, rc or 1, "", err, 0.0, rss))
            else:
                runs.append(Run(op, 0 if res["error"] is None else 1, "",
                                res["error"] or "", res["wall"], rss, res["result"]))
    return runs


def _sample(code: str, args: List[str], work: str) -> float:
    """Wall time of a fresh `python -c code args`: set-up and yardstick."""
    rc, _, err, wall, _ = _spawn([sys.executable, "-c", code] + args, ROOT,
                                 os.path.join(work, "_sample"))
    if rc != 0:
        raise RuntimeError(f"sample failed: {err.strip()[-300:]}")
    return wall


class Tally:
    """Attempted and failed ops of a run, with the failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, label: str, outcome: Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failures.append(f"{label}: {outcome.reason}")

    def agreement(self, agree: list) -> None:
        checks, failures = agreement_failures(agree)
        self.attempted += checks
        self.failures.extend(f"oracle agreement {f}" for f in failures)


def measure(workload: str, seed: int, seconds: float, work: str):
    """Untraced run: set-up and yardstick samples, rounds until seconds are used."""
    wl = WORKLOADS[workload]
    t_start = time.perf_counter()
    config = [os.path.join(ROOT, CONFIGS[wl.config])]
    setup, yard = [], []
    for _ in range(SETUP_FIRST):
        setup.append(_sample(SETUP_CODE, config, work))
        yard.append(_sample(YARDSTICK_CODE, [], work))
    tally = Tally()
    rounds: List[List[Tuple[Run, Outcome]]] = []
    agree: list = []
    round_times: List[float] = []
    while True:
        k = len(rounds)
        t0 = time.perf_counter()
        rdir = os.path.join(work, f"round{k}")
        os.makedirs(rdir)
        ops = wl.build(round_seed(seed, k), rdir)
        ctx: dict = {}
        pairs = []
        for run in _run_round(ops, rdir, wl.config):
            outcome = evaluate(run, ctx)
            tally.add(f"round {k} {run.op.name}", outcome)
            agree.extend(outcome.agree)
            pairs.append((run, outcome))
        shutil.rmtree(rdir)
        rounds.append(pairs)
        # spread the samples over the run, as the CPU speed drifts
        setup.append(_sample(SETUP_CODE, config, work))
        yard.append(_sample(YARDSTICK_CODE, [], work))
        round_times.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(round_times) > seconds:
            break
    tally.agreement(agree)
    return setup, yard, rounds, tally


def end_to_end(setup: List[float], yard: List[float], rounds
               ) -> Tuple[Dict[str, tuple], List[tuple]]:
    """The end-to-end metrics with their sample counts, and sample rows.

    Rows are (name, n, min, median, percentile, its value), unscaled.
    wall_s sums, over the ops of a round, each op's median wall across the
    run's rounds; wall_s and setup_s are then scaled by YARDSTICK_REF_S over
    the run's median yardstick time.  Over ten seeds of cell-tree-g2 during
    a drift, the unscaled sum spread 21% between runs and the scaled one 9%;
    on exact-check-g2, 23% and 7%.  The IS-health metrics are medians over
    rounds of unscaled op walls.
    """
    pairs = [p for rnd in rounds for p in rnd]
    by_op: Dict[str, List[float]] = {}
    for run, _ in pairs:
        by_op.setdefault(run.op.name, []).append(run.wall)
    scale = YARDSTICK_REF_S / statistics.median(yard)
    raw_wall = sum(statistics.median(v) for v in by_op.values())
    wall = scale * raw_wall
    t1pct, ess_rates = [], []
    for rnd in rounds:
        ok = [(r, o) for r, o in rnd if o.ok]
        est = [(r.wall, o.estimate[0], o.estimate[1]) for r, o in ok
               if o.estimate is not None]
        if est:
            t1pct.append(sum(time_to_1pct(*e) for e in est))
        weighted = [(r.wall, o.ess) for r, o in ok if o.ess is not None]
        if weighted:
            ess_rates.append(sum(e for _, e in weighted)
                             / sum(w for w, _ in weighted))
    values = {  # name -> (value, samples behind it)
        "wall_s": (wall, len(rounds)),
        "setup_s": (scale * statistics.median(setup), len(setup)),
        "steps_per_s": (sum(r.op.steps for r, _ in rounds[0]) / wall, len(rounds)),
        "time_to_1pct_s": (statistics.median(t1pct) if t1pct else None, len(t1pct)),
        "ess_per_s": (statistics.median(ess_rates) if ess_rates else None,
                      len(ess_rates)),
        "peak_rss_mb": (max(r.rss_mb for r, _ in pairs), len(pairs)),
        "raw_wall_s": (raw_wall, len(rounds)),
        "raw_setup_s": (statistics.median(setup), len(setup)),
        "yardstick_s": (statistics.median(yard), len(yard)),
    }
    samples = [("round wall_s", [sum(r.wall for r, _ in rnd) for rnd in rounds]),
               ("setup_s", setup), ("yardstick_s", yard),
               ("op rss_mb", [r.rss_mb for r, _ in pairs])]
    samples += [(f"op {name} wall_s", v) for name, v in sorted(by_op.items())]
    rows = []
    for name, vals in samples:
        s = summarize(vals)
        rows.append((name, s["n"], min(vals), s["median"], s["p"], s["p_value"]))
    return values, rows


def traced(workload: str, seed: int, work: str):
    """Per-layer run: probes, then one round in-process, untraced and traced.

    The round runs twice each way.  Untraced and traced runs of each op are
    interleaved, in alternating order, so that both sides see the same
    drifting CPU speed; each side's wall time is the sum of every op's
    faster run, as for wall_s.  The IS-health metrics come from these
    in-process ops, so they leave out interpreter start.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from bpre.envmodel import environment_from_dict
    from layers import Tracer, instrumented, run_inprocess, run_probes

    wl = WORKLOADS[workload]
    tally = Tally()
    layer, probe_failures = run_probes(ROOT, work, seed, _child_env())
    tally.attempted += 1
    tally.failures.extend(probe_failures)
    with open(os.path.join(ROOT, CONFIGS[wl.config])) as fh:
        env = environment_from_dict(json.load(fh))
    walls: Dict[str, Dict[str, float]] = {"plain": {}, "traced": {}}
    agree, t1pct, ess = [], [], []
    for rep in range(2):
        tracer = Tracer(f"{workload}-seed{seed}-pass{rep}")
        rounds = {mode: wl.build(round_seed(seed, 0), os.path.join(work, f"{mode}{rep}"))
                  for mode in walls}
        ctxs: Dict[str, dict] = {mode: {} for mode in walls}
        for i in range(len(rounds["plain"])):
            for mode in (("plain", "traced") if (rep + i) % 2 == 0
                         else ("traced", "plain")):
                op = rounds[mode][i]
                if mode == "plain":
                    (run,) = run_inprocess([op], env, None)
                else:
                    with instrumented(tracer):
                        (run,) = run_inprocess([op], env, tracer)
                outcome = evaluate(run, ctxs[mode])
                tally.add(f"{mode} {op.name}", outcome)
                agree.extend(outcome.agree)
                if outcome.ok and outcome.estimate is not None:
                    t1pct.append(time_to_1pct(run.wall, *outcome.estimate))
                if outcome.ok and outcome.ess is not None:
                    ess.append((run.wall, outcome.ess))
                walls[mode][op.name] = min(walls[mode].get(op.name, run.wall),
                                           run.wall)
        for mode in walls:
            shutil.rmtree(os.path.join(work, f"{mode}{rep}"), ignore_errors=True)
    tally.agreement(agree)
    plain, with_spans = sum(walls["plain"].values()), sum(walls["traced"].values())
    # t1pct holds each estimate four times: two passes, both sides
    layer["rare_event.time_to_1pct_s"] = (sum(t1pct) / 4, "s")
    layer["rare_event.ess_per_s"] = (sum(e for _, e in ess) / sum(w for w, _ in ess),
                                     "1/s")
    layer["trace.overhead_pct"] = (100.0 * (with_spans - plain) / plain, "%")
    layer["trace.wall_s"] = (with_spans, "s")
    layer["trace.spans"] = (float(len(tracer.spans)), "count")
    return layer, tally, tracer, {"plain": plain, "traced": with_spans}


def _git_commit() -> Optional[str]:
    """HEAD of the checkout's own .git, read from its files; None without one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "commit": _git_commit(), "seed": seed}


def _fmt(v) -> str:
    if v is None:
        return "-"
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_one(workload: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[dict, dict]:
    """One benchmark run; prints its tables.

    Returns the result object and every metric shown, printed-only included.
    """
    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}")
    os.makedirs(work)
    try:
        if trace:
            layer, tally, tracer, walls = traced(workload, seed, work)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            counts = {}
            selfs = self_times(tracer.spans)
            total = sum(selfs.values())
            print(table([("module", "self_s", "share")] + [
                (mod, f"{s:.4f}", f"{s / total:.3f}")
                for mod, s in sorted(selfs.items(), key=lambda kv: -kv[1])]))
            dump = os.path.join(base, f"trace-{workload}-s{seed}.json")
            with open(dump, "w") as fh:
                json.dump({"workload": workload, "seed": seed, "walls": walls,
                           "self_s": selfs, "spans": tracer.spans}, fh)
            print(f"spans written to {os.path.relpath(dump, ROOT)}")
            shown = metrics
        else:
            setup, yard, rounds, tally = measure(workload, seed, seconds, work)
            values, rows = end_to_end(setup, yard, rounds)
            metrics = {k: {"value": values[k][0], "unit": u}
                       for k, u in END_TO_END.items()}
            counts = {k: n for k, (_, n) in values.items()}
            print(table([("sample", "n", "min", "median", "pct", "pct_value")] + [
                tuple(_fmt(x) for x in row) for row in rows]))
            shown = {**metrics, **{k: {"value": values[k][0], "unit": u}
                                   for k, u in PRINTED_ONLY.items()}}
        share = len(tally.failures) / tally.attempted
        print(table([("metric", "value", "unit", "n")] + [
            (k, _fmt(m["value"]), m["unit"], _fmt(counts.get(k)))
            for k, m in shown.items()]
            + [("fail_share", _fmt(share), "ratio", str(tally.attempted))]))
        for reason in tally.failures:
            print(f"FAILED {reason}")
        correct = not tally.failures and all(
            m["value"] is not None for m in metrics.values())
        return ({"correct": correct, "attempted": tally.attempted,
                 "failed": len(tally.failures), "metrics": metrics}, shown)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _missing_files() -> List[str]:
    """Program files the benchmark needs that the checkout lacks."""
    needed = [os.path.join("src", "bpre", "cli.py")] + list(CONFIGS.values())
    return [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", help="with --all: write bench/BENCH_<tag>.json")
    ns = parser.parse_args(argv)
    if ns.tag and not ns.all:
        parser.error("--tag needs --all")
    missing = _missing_files()
    if missing:
        print(f"error: checkout at {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    env = environment(ns.seed)
    print("env " + json.dumps(env, sort_keys=True))
    if not ns.all:
        result, _ = run_one(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
        print(json.dumps(result))
        return 0
    results = {}
    for name in WORKLOADS:
        for trace in (False, True):
            print(f"== {name} trace={int(trace)}")
            result, shown = run_one(name, ns.seed, ns.seconds, trace)
            results[f"{name}/trace{int(trace)}"] = dict(result, metrics=shown)
    if ns.tag:
        path = os.path.join(BENCH_DIR, f"BENCH_{ns.tag}.json")
        with open(path, "w") as fh:
            json.dump({"tag": ns.tag, "env": env, "seconds": ns.seconds,
                       "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
