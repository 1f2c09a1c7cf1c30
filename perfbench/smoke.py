#!/usr/bin/env python3
"""Smoke test of the benchmark harness; finishes in well under a minute.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at the tiny operation size, so every
operation, check and metric of the harness executes, and then checks that:

- the metrics each mode prints match BENCHMARK.json by name, unit and
  direction, and the workloads match too;
- the counts ``ols.fft_calls_per_hop.*``, ``flops.macs_per_hop.*`` and
  ``checkpoint.load_calls`` repeat exactly on a second seed;
- a run whose program output is wrong (a NaN slipped into a session output)
  reports ``correct: false`` and exits 1;
- in a directory holding only BENCHMARK.json and perfbench/, without the
  package sources, the benchmark exits nonzero and prints no result.

Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

EXACT_COUNTS = ("ols.fft_calls_per_hop.", "flops.macs_per_hop.", "checkpoint.load_calls")


def invoke(workload, seed, trace):
    """run.main in this process; returns (exit code, parsed last stdout line)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                       "--trace", str(trace), "--size", "tiny"])
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def expect(condition, message, problems):
    if not condition:
        problems.append(message)
        print(f"FAIL {message}")


def check_catalogue(bench, spec, problems):
    end_to_end, per_layer = bench.metric_catalogue()
    for key, catalogue in (("end_to_end", end_to_end), ("per_layer", per_layer)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        expect(declared == catalogue, f"BENCHMARK.json {key} differs from the harness",
               problems)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS),
           "BENCHMARK.json workloads differ from the harness", problems)


def check_isolated(problems):
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    out_dir = run.ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out_dir))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "k512-h16", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0, "bare directory run exited 0", problems)
        expect('"metrics"' not in proc.stdout, "bare directory run printed a result",
               problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    problems = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result = invoke(workload, 1, trace)
            print(f"{workload} trace={trace}: exit {rc}, {result['attempted']} checks, "
                  f"{result['failed']} failed, {len(result['metrics'])} metrics")
            expect(rc == 0 and result["correct"], f"{workload} trace={trace} failed", problems)
            expect(result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace={trace}: bad attempted/failed counts", problems)
            names = [m["name"] for m in spec[key]]
            expect(list(result["metrics"]) == names,
                   f"{workload} trace={trace}: metrics differ from BENCHMARK.json", problems)
            units = {m["name"]: m["unit"] for m in spec[key]}
            expect(all(v["unit"] == units.get(k) for k, v in result["metrics"].items()),
                   f"{workload} trace={trace}: units differ from BENCHMARK.json", problems)
            if trace:
                counts[workload] = {k: v["value"] for k, v in result["metrics"].items()
                                    if k.startswith(EXACT_COUNTS)}

    import aflearn
    import bench

    check_catalogue(bench, spec, problems)

    workload = spec["workloads"][0]["name"]
    _, again = invoke(workload, 2, 1)
    repeat = {k: v["value"] for k, v in again["metrics"].items() if k.startswith(EXACT_COUNTS)}
    expect(repeat == counts[workload], f"counts changed with the seed: {repeat}", problems)

    original = aflearn.run_classic_session

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        result.output[0] = float("nan")
        return result

    aflearn.run_classic_session = corrupted
    try:
        rc, result = invoke(workload, 1, 0)
    finally:
        aflearn.run_classic_session = original
    expect(rc == 1 and not result["correct"] and result["failed"] >= 1,
           f"a NaN session output was not caught (exit {rc}, {result})", problems)

    check_isolated(problems)

    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
