#!/usr/bin/env python3
"""Median and spread of each metric over several seeds on one checkout.

    python3 perfbench/spread.py CHECKOUT_DIR --workload k512-h16 --runs 10 --seed 1000

``CHECKOUT_DIR`` is the root of a checkout (with ``src/aflearn``); it is
measured with this copy of the benchmark, so two checkouts measured in turn
see identical benchmark code and settings.  Run ``i`` uses seed
``--seed + i``.  For each metric it prints the median, the spread
(interquartile distance over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) and the metric's bound in
BENCHMARK.json.  The bounds were set against these spreads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def measure(directory, workload, seed, seconds, trace):
    """One run of this benchmark copy against the checkout in ``directory``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=directory, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{directory}: run failed (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory", type=Path, help="root of the checkout to measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="seed of the first run")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    table = {m["name"]: m for m in SPEC["per_layer" if args.trace else "end_to_end"]}
    runs = {}
    for i in range(args.runs):
        values = measure(args.directory, args.workload, args.seed + i, args.seconds, args.trace)
        for name, value in values.items():
            runs.setdefault(name, []).append(value)
        print(f"run {i + 1}/{args.runs} done", file=sys.stderr)

    print(f"{'metric':40s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, meta in table.items():
        print(f"{name:40s} {statistics.median(runs[name]):12.6g} "
              f"{spread(runs[name]):8.3f} {meta.get('bound', ''):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
