"""Run the benchmark over several seeds and keep every result, for compare.py.

    python3 perfbench/sweep.py --out perfbench/out/results/base --seeds 0-9
    python3 perfbench/sweep.py --out ... --seeds 3,5 --workloads energy-tight --trace 1

Runs are sequential, one process at a time, from the checkout root, with the
command and run length of BENCHMARK.json.  Each run's last output line is
stored as <out>/<workload>/seed<n>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_RUN_TIMEOUT = 900
RUN_TIMEOUT = 180


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    timeout = FIRST_RUN_TIMEOUT
    for workload in args.workloads.split(","):
        if workload not in names:
            parser.error(f"unknown workload {workload!r}")
        folder = args.out / workload
        folder.mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
            timeout = RUN_TIMEOUT
            wall = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                if not lines:
                    continue
            (folder / f"seed{seed}-trace{args.trace}.json").write_text(lines[-1] + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s wall  {lines[-1]}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
