"""Benchmark of adaptpart: end-to-end metrics, or per-layer metrics with --trace 1.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload discrete-scenarios --seed 0 --seconds 40 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  What went wrong, if anything, goes to
standard error.  Instance files, reports and span traces are written under
perfbench/out/<workload>/.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("discrete-scenarios", "energy-tight", "cvar-replications")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=_positive, default=30.0,
                        help="how long to keep starting rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's src/ first on the path and make sure adaptpart is
    imported from there, not from anywhere else."""
    package = ROOT / "src" / "adaptpart"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no adaptpart source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import adaptpart
    if Path(adaptpart.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: adaptpart imported from {adaptpart.__file__}, not {package}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS/OpenMP pools are sized when NumPy loads, so pin them first
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    import_program()
    import harness

    out = BENCH / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    runner = harness.traced_run if args.trace else harness.timed_run
    result = runner(args.workload, args.seed, args.seconds, out)
    for problem in result.pop("problems"):
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
