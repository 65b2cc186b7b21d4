"""Timed and traced runs of one workload through the public adaptpart API.

One operation solves and reports one instance the way `adaptpart run
--out-dir` does: refiner_by_name("auto") -> run -> write_run_report, on a
model and space built by load_document -> document_to_model ->
document_to_space.  A round is one operation per instance of the workload;
a run repeats whole rounds, one after another (closed loop).
"""
from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from adaptpart import engine, instances, refiners, reporting

import inputs
from tracing import Tracer

_clock = time.perf_counter

MIN_ROUNDS = 3
# set-up passes per sample, so that one sample lasts about 0.1 s or more
SETUP_REPS = {"discrete-scenarios": 1, "energy-tight": 25, "cvar-replications": 4}


@dataclass
class Instance:
    name: str
    path: Path
    doc: dict
    epsilon: float
    model: object = None
    space: object = None


def prepare(workload: str, seed: int, out: Path) -> list[Instance]:
    """Write the workload's instance files under out/instances."""
    folder = out / "instances"
    if folder.exists():
        shutil.rmtree(folder)
    folder.mkdir(parents=True)
    made = []
    for name, doc, epsilon in inputs.workload_instances(workload, seed):
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        made.append(Instance(name, path, doc, epsilon))
    return made


def set_up(items: list[Instance]) -> None:
    for inst in items:
        doc = instances.load_document(inst.path)
        inst.model = instances.document_to_model(doc)
        inst.space = instances.document_to_space(doc, inst.model)


def time_set_up(items: list[Instance], reps: int) -> float:
    """Time of one set-up pass, averaged over `reps` passes."""
    gc.collect()
    start = _clock()
    for _ in range(reps):
        set_up(items)
    return (_clock() - start) / reps


def solve(inst: Instance, report_dir: Path):
    refiner = refiners.refiner_by_name("auto", inst.space)
    result = engine.run(inst.model, inst.space, refiner,
                        engine.SolverConfig(epsilon=inst.epsilon))
    reporting.write_run_report(str(report_dir / inst.name), result, inst.space, inst.model)
    return result


def fingerprint(result) -> tuple:
    return (result.termination, result.objective, result.best_upper,
            result.x_star.tobytes(), result.stats["lp_solves"], len(result.records))


class Rounds:
    """Runs rounds, times each operation, keeps the first result of every
    instance and notes any later result that differs from it."""

    def __init__(self, items: list[Instance], report_dir: Path):
        self.items = items
        self.report_dir = report_dir
        self.times = {inst.name: [] for inst in items}
        self.round_times: list[float] = []
        self.first: dict = {}
        self.mismatches: list[str] = []

    def run_round(self) -> None:
        total = 0.0
        for inst in self.items:
            gc.collect()
            start = _clock()
            result = solve(inst, self.report_dir)
            elapsed = _clock() - start
            total += elapsed
            self.times[inst.name].append(elapsed)
            if inst.name not in self.first:
                self.first[inst.name] = result
            elif fingerprint(result) != fingerprint(self.first[inst.name]):
                self.mismatches.append(inst.name)
        self.round_times.append(total)

    @property
    def count(self) -> int:
        return len(self.round_times)

    def solve_s(self) -> float:
        """Sum over instances of the median time to solve and report it."""
        return sum(statistics.median(t) for t in self.times.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def check(workload: str, items: list[Instance], rounds: Rounds) -> tuple[bool, int, list[str]]:
    """Run the oracles on each instance's first result.  Returns (correct,
    failed operations per round, problems)."""
    import oracles   # imports SciPy; only after peak RSS has been read
    problems = [f"{name}: result changed between rounds" for name in rounds.mismatches]
    failed = 0
    for inst in items:
        result = rounds.first[inst.name]
        if workload == "discrete-scenarios":
            verdict = oracles.check_discrete(inst.doc, result, inst.epsilon)
        elif workload == "energy-tight":
            verdict = oracles.check_energy(inst.doc, result, inst.epsilon)
        else:
            verdict = oracles.check_cvar(inst.doc, inst.space.pool, result, inst.epsilon)
        if verdict == oracles.KNOWN_FAULT:
            failed += 1
        elif verdict != oracles.OK:
            problems.append(f"{inst.name}: {verdict}")
    return not problems, failed, problems


def timed_run(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Before every round, one set-up sample builds the models and spaces
    the round then solves, so set-up and solve samples span the same time."""
    items = prepare(workload, seed, out)
    rounds = Rounds(items, out / "reports")
    setup_samples = []
    start = _clock()
    while True:
        setup_samples.append(time_set_up(items, SETUP_REPS[workload]))
        rounds.run_round()
        elapsed = _clock() - start
        if rounds.count >= MIN_ROUNDS and elapsed + elapsed / rounds.count > seconds:
            break
    rss = peak_rss_mb()
    correct, failed, problems = check(workload, items, rounds)
    metrics = {"solve_s": (rounds.solve_s(), "s"),
               "setup_s": (statistics.median(setup_samples), "s"),
               "peak_rss_mb": (rss, "MB")}
    return _result(correct, rounds.count * len(items), rounds.count * failed, metrics, problems)


def traced_run(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Alternate untraced and traced rounds, each after a set-up pass;
    per-layer metrics are medians over traced rounds, and their counts must
    repeat exactly."""
    items = prepare(workload, seed, out)
    tracer = Tracer()
    plain = Rounds(items, out / "reports")
    traced = Rounds(items, out / "reports")
    samples = []
    start = _clock()
    while True:
        set_up(items)
        plain.run_round()
        with tracer.recording():
            set_up(items)
            traced.run_round()
        samples.append({**tracer.solve_metrics(), **tracer.setup_metrics()})
        if traced.count == 1:
            tracer.write_spans(out / f"trace-seed{seed}.jsonl")
        elapsed = _clock() - start
        if traced.count >= 2 and elapsed + elapsed / traced.count > seconds:
            break

    _, failed, problems = check(workload, items, plain)
    for name, result in traced.first.items():
        if fingerprint(result) != fingerprint(plain.first[name]):
            problems.append(f"{name}: traced result differs from the untraced one")
    # every count repeats exactly; report sizes carry the wall time in
    # summary.json, so their digits may vary
    counts = [{k: v for k, v in s.items() if isinstance(v, int) and k != "reporting.bytes"}
              for s in samples]
    if any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced rounds")
    metrics = {name: (_median(samples, name), _unit(name)) for name in samples[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(traced.round_times) - statistics.median(plain.round_times), "s")
    attempted = (plain.count + traced.count) * len(items)
    return _result(not problems, attempted, (plain.count + traced.count) * failed,
                   metrics, problems)


def _median(samples: list[dict], name: str):
    if _unit(name) == "count":
        return samples[0][name]
    return statistics.median(s[name] for s in samples)


def _unit(name: str) -> str:
    if name.endswith("_share") or name.endswith("per_point"):
        return "ratio"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name == "reporting.bytes":
        return "bytes"
    return "count"


def _result(correct, attempted, failed, metrics, problems) -> dict:
    return {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "problems": problems}
