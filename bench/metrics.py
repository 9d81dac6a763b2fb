"""Pure metric arithmetic for the benchmark: no I/O, no timing, no bpre import.

Kept apart from the runner so that the self-tests can check every formula
on hand-made numbers.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

# Percentiles tried, highest first, when summarizing a timing; one is
# reported only when at least MIN_BEYOND samples lie beyond it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def nominal_steps(command: str, replicas: int, n: int) -> int:
    """Branching steps an op is charged with, whatever it skips.

    A step is one offspring-total draw for one population.  Samplers are
    charged replicas * n per pass (estimate-lower makes two passes); a cell
    tree of depth n makes two draws per internal cell, 2 * (2^n - 1).  Ops
    that draw nothing (rate, oracle) are charged 0.
    """
    if command in ("estimate-lower", "reproduce-lower"):
        return 2 * replicas * n
    if command in ("simulate", "estimate-upper", "trajectory", "takeoff",
                   "profile"):
        return replicas * n
    if command == "cells":
        return replicas * 2 * (2 ** n - 1)
    if command in ("rate", "oracle"):
        return 0
    raise ValueError(f"no step count for command {command!r}")


def time_to_1pct(wall: float, estimate: float, stderr: float) -> float:
    """Seconds of this op needed for a 1% relative error: wall * (se/est)^2 / 1e-4.

    Variance falls as 1/replicas, so this is the op's wall time scaled to
    the replica count at which stderr / estimate would be 0.01.
    """
    if estimate <= 0.0:
        raise ValueError(f"estimate {estimate!r} is not positive")
    return wall * (stderr / estimate) ** 2 / 1e-4


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, the highest percentile with MIN_BEYOND samples beyond it, and n.

    Percentiles use the inclusive method of statistics.quantiles; with too
    few samples for any of PERCENTILES, p and p_value are None.
    """
    vals = sorted(values)
    if not vals:
        raise ValueError("no values to summarize")
    n = len(vals)
    out: Dict[str, Optional[float]] = {
        "n": n, "median": statistics.median(vals), "p": None, "p_value": None,
    }
    for p in PERCENTILES:
        permille = int(round(p * 10))   # integer arithmetic: 100 - 99.9 != 0.1
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            cuts = statistics.quantiles(vals, n=1000, method="inclusive")
            out["p"] = p
            out["p_value"] = cuts[permille - 1]
            break
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Self time per span name prefix (the module), in seconds.

    A span's self time is its duration minus the durations of its direct
    children.  Spans of one thread nest without overlap, so subtracting
    the children's durations equals subtracting the interval they cover.
    """
    child_total: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_total[s["parent"]] = (child_total.get(s["parent"], 0.0)
                                        + s["end"] - s["start"])
    out: Dict[str, float] = {}
    for s in spans:
        module = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - child_total.get(s["id"], 0.0)
        out[module] = out.get(module, 0.0) + own
    return out


def z_score(estimate: float, exact: float, stderr: float) -> float:
    """(estimate - exact) / stderr; +-inf when stderr is 0 and they differ."""
    diff = estimate - exact
    if stderr > 0.0:
        return diff / stderr
    if abs(diff) <= 1e-12 * max(1.0, abs(exact)):
        return 0.0
    return math.copysign(math.inf, diff)


def pooled(rows: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Mean of k independent (estimate, stderr) pairs and its stderr."""
    k = len(rows)
    if k == 0:
        raise ValueError("nothing to pool")
    est = math.fsum(r[0] for r in rows) / k
    se = math.sqrt(math.fsum(r[1] * r[1] for r in rows)) / k
    return est, se


def table(rows: List[Tuple[str, ...]]) -> str:
    """Left-aligned plain-text table."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in rows)
