"""Library calls of the exact-check workload, run in one client process.

Usage: python3 bench/libclient.py CONFIG_JSON OPS_JSON

OPS_JSON is a list of op specs; the client builds the environment from
CONFIG_JSON once, then runs the specs in order, timing each call alone, and
prints one JSON list with the wall time and the plain-number results of
every op.  The runner imports run_ops directly for its in-process traced
run, so both modes make the same calls.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback


def _call(env, spec: dict) -> dict:
    from bpre.oracle import conditional_trajectory, population_distribution
    from bpre.rare_event import conditional_profile, estimate_lower_tail

    kind, n, c = spec["kind"], spec["n"], spec["c"]
    if kind == "oracle":
        k = int(math.floor(math.exp(c * n) + 1e-12))
        dist = population_distribution(env, n, cap=spec["cap"])
        return {"prob": dist.prob_le(k), "k": k,
                "error_bound": dist.le_error_bound(k)}
    if kind == "cond_traj":
        res = conditional_trajectory(env, n, c)
        return {"probability": res.probability,
                "profile": [float(v) for v in res.profile]}
    if kind == "lower":
        est = estimate_lower_tail(env, n, c, replicas=spec["replicas"],
                                  seed=spec["seed"])
        return {m: [r.estimate, r.stderr, r.ess]
                for m, r in (("tilt_only", est.tilt_only),
                             ("two_phase", est.two_phase))}
    if kind == "profile":
        prof = conditional_profile(env, n, c, replicas=spec["replicas"],
                                   seed=spec["seed"], method="tilt_only")
        return {"values": [float(v) for v in prof.values],
                "stderr": [float(v) for v in prof.stderr],
                "ess": prof.ess, "event_estimate": prof.event_estimate}
    raise ValueError(f"unknown op kind {kind!r}")


def run_ops(env, specs: list) -> list:
    """Run each spec; an op that raises is reported, not fatal."""
    out = []
    for spec in specs:
        t0 = time.perf_counter()
        try:
            result, error = _call(env, spec), None
        except Exception:  # one failed op must not hide the others
            result, error = None, traceback.format_exc(limit=3)
        out.append({"name": spec["name"], "wall": time.perf_counter() - t0,
                    "result": result, "error": error})
    return out


def main(argv) -> int:
    from bpre.envmodel import environment_from_dict

    with open(argv[0]) as fh:
        env = environment_from_dict(json.load(fh))
    print(json.dumps(run_ops(env, json.loads(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
