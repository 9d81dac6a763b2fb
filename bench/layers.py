"""Traced run: per-layer probes and an in-process, span-recorded workload round.

Everything here runs inside the benchmark process with bpre imported from
the checkout's src/.  Spans are recorded by wrappers that this file installs
at run time around the public functions of each bpre module; no bpre source
is changed, and the wrappers are removed again after the traced pass.
Per-step functions (branch_step, draw_env_index) are left unwrapped: one
span per step would cost more than the step, so their cost comes from the
probes instead.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from workloads import CONFIGS, Op, Run

# module -> public functions wrapped with a span in the traced pass
TRACED = {
    "bpre.cli": ("main", "execute", "effective_config", "config_hash",
                 "write_csv", "write_json"),
    "bpre.envmodel": ("environment_from_dict", "environment_to_dict",
                      "build_environment"),
    "bpre.ratefn": ("walk_rate", "tilt_parameter", "lower_deviation_rate",
                    "limit_profile"),
    "bpre.rare_event": ("estimate_lower_tail", "estimate_upper_tail",
                        "take_off_statistics", "conditional_profile",
                        "tilt_toward", "tilt", "empirical_rate"),
    "bpre.simulate": ("final_states", "run"),
    "bpre.oracle": ("population_distribution", "conditional_trajectory"),
    "bpre.cells": ("simulate_cell_tree", "expected_count_identity"),
    "bpre.rng": ("replica_stream",),
}


class Tracer:
    """In-memory spans of one workload run: name, start, end, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap every TRACED function wherever a bpre module holds a reference."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "bpre" or name.startswith("bpre."))]
    patched = []
    try:
        for modname, names in TRACED.items():
            home = importlib.import_module(modname)
            short = modname.split(".", 1)[1]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = tracer.wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        yield
    finally:
        for mod, attr, orig in reversed(patched):
            setattr(mod, attr, orig)


# --- in-process execution of a round ------------------------------------

def run_inprocess(ops: List[Op], env, tracer: Optional[Tracer]) -> List[Run]:
    """Run a round's ops in this process; traced, each in a bench.<op> span."""
    from bpre import cli
    import libclient

    runs = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        result = None
        t0 = time.perf_counter()
        with tracer.span(f"bench.{op.name}") if tracer else contextlib.nullcontext():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    if op.argv is not None:
                        rc = cli.main(op.argv)
                    else:
                        (res,) = libclient.run_ops(env, [op.lib])
                        result, rc = res["result"], 0 if res["error"] is None else 1
                        err.write(res["error"] or "")
            except Exception:  # a crashing op is a failed op, not a crashed run
                rc = 1
                err.write(traceback.format_exc(limit=3))
        wall = time.perf_counter() - t0
        runs.append(Run(op=op, rc=rc, stdout=out.getvalue(),
                        stderr=err.getvalue(), wall=wall, result=result))
    return runs


# --- probes ------------------------------------------------------------

def _per_call(fn: Callable[[], object], number: int, repeat: int = 5) -> float:
    """Seconds per call of fn in the fastest of repeat batches.

    The fastest batch, not the median, because a shared CPU drifts
    between two speeds and noise only ever adds time.
    """
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return min(times)


def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def run_probes(root: str, work: str, seed: int, child_env: dict
               ) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Time each layer's public functions alone; returns (metrics, failures)."""
    from bpre import cli
    from bpre.cells import (CellTreeConfig, expected_count_identity,
                            simulate_cell_tree)
    from bpre.envmodel import environment_from_dict
    from bpre.oracle import conditional_trajectory, population_distribution
    from bpre.ratefn import lower_deviation_rate, tilt_parameter
    from bpre.rare_event import (conditional_profile, estimate_lower_tail,
                                 estimate_upper_tail, take_off_statistics,
                                 tilt_toward)
    from bpre.rng import replica_stream
    from bpre.simulate import SimConfig, branch_step, draw_env_index, final_states

    cfg = {}
    for name, rel in CONFIGS.items():
        with open(os.path.join(root, rel)) as fh:
            cfg[name] = json.load(fh)
    envs = {name: environment_from_dict(c) for name, c in cfg.items()}
    g2 = envs["g2"]
    m: Dict[str, Tuple[float, str]] = {}
    failures: List[str] = []

    # rng, envmodel, simulate
    rng = replica_stream(seed, 0)
    law = g2.components[1]
    m["rng.stream_us"] = (1e6 * _per_call(lambda: replica_stream(seed, 7), 500), "us")
    m["envmodel.from_dict_us"] = (
        1e6 * _per_call(lambda: environment_from_dict(cfg["g2"]), 200), "us")
    m["simulate.env_draw_us"] = (
        1e6 * _per_call(lambda: draw_env_index(g2, rng), 2000), "us")
    m["simulate.branch_small_us"] = (
        1e6 * _per_call(lambda: branch_step(5000, law, rng), 2000), "us")
    m["simulate.branch_big_us"] = (
        1e6 * _per_call(lambda: branch_step(1 << 70, law, rng), 2000), "us")
    sim = SimConfig(env=g2, n=8, seed=seed, replicas=300)
    m["simulate.replica_gen_us"] = (
        1e6 * _per_call(lambda: final_states(sim), 1, repeat=3) / (300 * 8), "us")
    pool = [_timed(lambda: estimate_lower_tail(g2, 8, 0.4, replicas=2000,
                                               seed=seed, workers=w))[0]
            for w in (1, 2, 2, 1)]
    m["simulate.pool_speedup"] = (min(pool[0], pool[3]) / min(pool[1], pool[2]),
                                  "ratio")

    # rare_event: wall per nominal replica-generation, and weight health
    runs = [
        ("lower_gen_us.g2.n8", "g2", 8, 0.4, 500, 2, estimate_lower_tail),
        ("lower_gen_us.g2.n20", "g2", 20, 0.38, 300, 2, estimate_lower_tail),
        ("lower_gen_us.fig2.n40", "fig2", 40, 1.1, 200, 2, estimate_lower_tail),
        ("upper_gen_us.g2.n8", "g2", 8, 1.05, 500, 1, estimate_upper_tail),
        ("takeoff_gen_us.g2.n8", "g2", 8, 0.4, 500, 1, take_off_statistics),
        ("takeoff_gen_us.fig2.n80", "fig2", 80, 1.1, 300, 1, take_off_statistics),
        ("profile_gen_us.g2.n8", "g2", 8, 0.4, 500, 1, conditional_profile),
        ("profile_gen_us.fig2.n40", "fig2", 40, 1.1, 200, 1, conditional_profile),
    ]
    for name, cname, n, c, reps, passes, fn in runs:
        (w1, _), (w2, res) = (_timed(lambda: fn(envs[cname], n, c, replicas=reps,
                                                seed=seed)) for _ in range(2))
        m[f"rare_event.{name}"] = (1e6 * min(w1, w2) / (passes * reps * n), "us")
        if fn is take_off_statistics:
            tag = f"{cname}.n{n}"
            m[f"rare_event.ess_ratio.{tag}"] = (res.ess / reps, "ratio")
            m[f"rare_event.hit_frac.{tag}"] = (res.weights.size / reps, "ratio")
            m[f"rare_event.max_w_share.{tag}"] = (float(res.weights.max()), "ratio")

    def plan(env, n, c):
        ldr = lower_deviation_rate(env, c)
        hold = round(ldr.take_off * n)
        tilt_toward(env, c)
        tilt_toward(env, c * n / (n - hold) if hold < n else c)

    for cname, n, c in (("g2", 8, 0.4), ("fig2", 40, 1.1)):
        m[f"rare_event.plan_ms.{cname}.n{n}"] = (
            1e3 * _per_call(lambda: plan(envs[cname], n, c), 3), "ms")
    m["ratefn.ldr_ms"] = (1e3 * _per_call(lambda: lower_deviation_rate(g2, 0.4), 3), "ms")
    m["ratefn.tilt_us"] = (1e6 * _per_call(lambda: tilt_parameter(g2, 0.6), 50), "us")

    # oracle
    m["oracle.dp_gen_ms.cap1000"] = (
        1e3 * _per_call(lambda: population_distribution(g2, 8, cap=1000), 1, 3) / 8,
        "ms")
    m["oracle.dp_gen_ms.cap2000"] = (
        1e3 * _per_call(lambda: population_distribution(g2, 20, cap=2000), 1, 1) / 20,
        "ms")
    m["oracle.cond_traj_s"] = (
        _per_call(lambda: conditional_trajectory(g2, 10, 0.4), 1, 3), "s")
    tracemalloc.start()
    try:
        population_distribution(g2, 8, cap=2000)
        conditional_trajectory(g2, 10, 0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m["oracle.alloc_peak_mb"] = (peak / 2**20, "MB")

    # cells
    tree = CellTreeConfig(n=8, law1=g2.components[0], law2=g2.components[1],
                          c=0.4, seed=seed, replicas=60)
    wall, res = _timed(lambda: simulate_cell_tree(tree))
    m["cells.tree_ms"] = (1e3 * wall / tree.replicas, "ms")
    m["cells.identity_ms"] = (
        1e3 * _per_call(lambda: expected_count_identity(tree, result=res), 5), "ms")

    # cli: fresh import, CSV writing, replay of an estimate-lower record
    py = [sys.executable]
    imports = [_timed(lambda: subprocess.run(py + ["-c", "import bpre.cli"],
                                             env=child_env, cwd=root, check=True))[0]
               for _ in range(3)]
    m["cli.import_s"] = (statistics.median(imports), "s")
    rows = [(r, 3 ** (r % 40), r * 0.125, r % 9) for r in range(10_000)]
    path = os.path.join(work, "probe-simulate.csv")
    m["cli.write_csv_ms"] = (1e3 * _per_call(
        lambda: cli.write_csv(path, "simulate-v1", ("replica", "z_n", "s_n", "tau"),
                              rows, "0" * 64), 1, 3), "ms")
    rec_dir = os.path.join(work, "probe-reproduce")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["estimate-lower", "--config", CONFIGS["g2"], "--seed",
                       str(seed), "--replicas", "500", "--out-dir", rec_dir])
    wall, proc = _timed(lambda: subprocess.run(
        py + ["-m", "bpre.cli", "reproduce", "--out-dir", rec_dir],
        env=child_env, cwd=root, capture_output=True, text=True, timeout=120))
    m["cli.reproduce_s"] = (wall, "s")
    lines = proc.stdout.strip().splitlines()
    if rc != 0 or proc.returncode != 0 or not lines or not all(
            ln.startswith("PASS") for ln in lines):
        failures.append(f"probe reproduce: rc {rc}/{proc.returncode}, {lines!r}")
    return m, failures
