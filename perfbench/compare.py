"""Compare one or two result sets of the benchmark.

    python3 perfbench/compare.py BASE [CHANGE]

A result set is a directory written by sweep.py: <workload>/seed<n>-trace<t>.json,
each file holding the JSON line one run printed.  For every workload and
metric this prints the median and quartiles of each set.  For an end-to-end
metric it also prints the spread (quartile distance over the median) and a
verdict against the metric's bound in BENCHMARK.json:

- one set: "steady" (spread below a third of the bound), "within bound" or
  "unresolved" (spread above the bound);
- two sets: "within bound" or "WORSE" by the change of medians, or
  "unresolved" when either spread exceeds the bound, unless every run of
  CHANGE is better than every run of BASE.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(folder: Path, trace: int) -> dict:
    """{workload: [result, ...]} for the runs with the given trace flag."""
    out: dict = {}
    for path in sorted(folder.glob(f"*/seed*-trace{trace}.json")):
        out.setdefault(path.parent.name, []).append(json.loads(path.read_text()))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(metric: dict, base: list[float], change: list[float] | None) -> str:
    bound = metric["bound"]
    lower_better = metric["better"] == "lower"
    if change is None:
        s = spread(base)
        if s <= bound / 3:
            return "steady"
        return "within bound" if s <= bound else "unresolved"
    if max(spread(base), spread(change)) > bound:
        if lower_better and max(change) < min(base) or \
                not lower_better and min(change) > max(base):
            return "better in every run"
        return "unresolved"
    mb, mc = statistics.median(base), statistics.median(change)
    worse = (mc - mb) / abs(mb) if lower_better else (mb - mc) / abs(mb)
    return f"WORSE by {100 * worse:.1f}%" if worse > bound else "within bound"


def _row(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def failed_share(runs: list[dict]) -> str:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return f"{failed}/{attempted}"


def report(spec: dict, base: Path, change: Path | None) -> int:
    sets = [(base, load_set(base, 0), load_set(base, 1))]
    if change is not None:
        sets.append((change, load_set(change, 0), load_set(change, 1)))
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}")
        for label, plain, _ in sets:
            runs = plain.get(workload, [])
            if runs:
                wrong = sum(not r["correct"] for r in runs)
                print(f"   {label}: {len(runs)} runs, failed {failed_share(runs)}, "
                      f"incorrect runs {wrong}")
                problems += wrong
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in plain.get(workload, [])]
                      for _, plain, _ in sets]
            if not values[0]:
                continue
            cols = "  ".join(_row(v) + f" spread {spread(v):.3f}" for v in values if v)
            other = values[1] if len(values) > 1 and values[1] else None
            result = verdict(metric, values[0], other)
            problems += result.startswith("WORSE") or result == "unresolved"
            print(f"   {name:<12} {cols}  bound {metric['bound']}: {result}")
        for metric in spec["per_layer"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in traced.get(workload, [])]
                      for _, _, traced in sets]
            if values[0]:
                print(f"   {name:<40} " + "  ".join(_row(v) for v in values if v))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    return report(spec, args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
