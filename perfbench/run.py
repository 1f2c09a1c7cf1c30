#!/usr/bin/env python3
"""Run one aflearn benchmark workload and print its metrics.

From the root of a checkout, which is the code it measures:

    python3 perfbench/run.py --workload k512-h16 --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from an outside-in traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record with machine context and raw samples goes to
``.perfbench/`` in the checkout.  The exit code is 0 only when every
correctness check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# The checkout under test is the working directory, so one copy of the
# benchmark can measure several checkouts (see spread.py).
ROOT = Path.cwd()
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads():
    """One BLAS thread; must run before NumPy loads.

    The workloads are single-stream and their matrices (at most 512 x 16)
    are too small to gain from BLAS threads, while a second thread busy on a
    sibling hardware thread slows the measured one.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_package():
    """Import aflearn from this checkout's src/, and from nowhere else."""
    package = ROOT / "src" / "aflearn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no aflearn sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import aflearn

    if Path(aflearn.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: aflearn imported from {aflearn.__file__}, not {package}")


def parse_args(argv):
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=sorted(bench.SIZES),
                        help="operation sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    cap_blas_threads()
    import_package()
    import bench

    args = parse_args(argv)
    report, spans = bench.run(ROOT, args.workload, args.seed, args.seconds,
                              bool(args.trace), args.size)
    path = bench.write_outputs(ROOT, report, spans)
    bench.print_report(report)
    print(f"# full record: {path.relative_to(ROOT)}")
    print(json.dumps({key: report[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
