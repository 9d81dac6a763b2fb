"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage (from the repository root):

    python3 bench/steady.py --workload is-deep-fig2 --seeds 1-10

Runs the benchmark once per seed with BENCHMARK.json's command and
run_seconds, then prints, per gated metric, the median, the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4), and the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from metrics import quartile_spread, table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    ns = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values: dict = {}
    for seed in _seeds(ns.seeds):
        proc = subprocess.run(
            spec["command"] + ["--workload", ns.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    rows = [("metric", "median", "spread", "bound")]
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        rows.append((m["name"], f"{statistics.median(v):.6g}",
                     f"{quartile_spread(v):.4f}" if len(v) > 1 else "-",
                     str(m["bound"])))
    print(table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
