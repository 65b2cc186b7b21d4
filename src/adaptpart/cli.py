"""Command line front end: solve instance files and emit the two bundled
instance families."""
from __future__ import annotations

import argparse
import json
import sys

from . import instances
from . import lp as lplib
from .engine import CONDITIONS, GAP, SolverConfig, run
from .errors import AdaptPartError
from .model import build_aggregated_master
from .refiners import refiner_by_name
from .reporting import partition_trace_json, run_summary, write_run_report

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(v) for v in text.replace(" ", "").split(",") if v != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_matrix(text: str) -> list[list[float]]:
    return [_parse_vector(row) for row in text.split(";") if row.strip() != ""]


def _print_table(records) -> None:
    print("%5s %14s %14s %10s %7s" % ("iter", "lb", "ub", "gap%", "cells"))
    for r in records:
        ub = "%14.6f" % r.upper_bound if r.upper_bound is not None else "%14s" % "-"
        gap = "%10.4f" % (100.0 * r.gap) if r.gap is not None else "%10s" % "-"
        print("%5d %14.6f %s %s %7d" % (r.index, r.lower_bound, ub, gap, r.cell_count))
    x = records[-1].incumbent
    print("x* = [%s]" % ", ".join("%.6f" % float(v) for v in x))


def _print_oracle(model, space, result) -> None:
    # a zero-weight scenario adds nothing to the extensive form
    triples = [(w, h, T) for w, h, T in zip(space.weights, space.hs, space.Ts) if w > 0.0]
    sol = lplib.solve(build_aggregated_master(model, triples))
    diff = abs(sol.objective - result.objective)
    rel = diff / (1.0 + abs(sol.objective))
    print("extensive-form optimum = %.10f" % sol.objective)
    print("solver objective       = %.10f" % result.objective)
    print("relative difference    = %.3e (%s)" % (rel, "agree" if rel <= 1e-6 else "DISAGREE"))


def cmd_run(args) -> int:
    doc = instances.load_document(args.instance)
    model = instances.document_to_model(doc)
    space = instances.document_to_space(doc, model, seed=args.seed,
                                        pool_size=args.mc_pool)
    if args.oracle and space.kind != "discrete":
        print("--oracle requires a discrete instance", file=sys.stderr)
        return EXIT_ERROR
    config = SolverConfig(epsilon=args.epsilon, max_iterations=args.max_iters)
    result = run(model, space, refiner_by_name("auto", space), config)
    _print_table(result.records)
    print("termination: %s after %d iterations (%.3f s, %d LP solves, %d from cached bases)" % (
        result.termination, result.stats["iterations"], result.stats["wall_time_s"],
        result.stats["lp_solves"], result.stats["basis_hits"]))
    if args.oracle:
        _print_oracle(model, space, result)
    if args.out_dir:
        paths = write_run_report(args.out_dir, result, space, model)
        print("report: %s" % ", ".join(sorted(paths.values())))
    if args.verbose >= 1:
        print(json.dumps(run_summary(result), indent=2))
    if args.verbose >= 2:
        print(partition_trace_json(result.partitions, space), end="")
    if result.termination in (GAP, CONDITIONS):
        return EXIT_OK
    return EXIT_NOT_CONVERGED


def cmd_make_lands(args) -> int:
    lo, hi = args.d1_interval
    doc = instances.lands_document(d1_lo=lo, d1_hi=hi, d1_fixed=args.d1_fixed)
    instances.write_document(doc, args.output)
    print("wrote %s" % args.output)
    return EXIT_OK


def cmd_make_cvar(args) -> int:
    doc = instances.cvar_document(mu=args.mu, sigma=args.sigma, delta=args.delta,
                                  seed=args.seed, pool_size=args.mc_pool)
    instances.write_document(doc, args.output)
    print("wrote %s" % args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptpart",
        description="Two-stage stochastic LP solver with adaptive partition refinement")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve an instance file")
    p_run.add_argument("--instance", required=True, help="instance JSON path")
    p_run.add_argument("--epsilon", type=float, default=1e-4,
                       help="relative gap threshold (default 1e-4)")
    p_run.add_argument("--max-iters", type=int, default=100,
                       help="iteration limit (default 100)")
    p_run.add_argument("--seed", type=int, default=None,
                       help="sample pool seed (overrides the instance)")
    p_run.add_argument("--mc-pool", type=int, default=None,
                       help="sample pool size (overrides the instance)")
    p_run.add_argument("--oracle", action="store_true",
                       help="also solve the extensive form (discrete instances)")
    p_run.add_argument("--out-dir", default=None, help="write report files here")
    p_run.add_argument("--verbose", "-v", action="count", default=0)
    p_run.set_defaults(func=cmd_run)

    p_lands = sub.add_parser("make-lands", help="emit the capacity-expansion instance")
    p_lands.add_argument("--output", required=True)
    p_lands.add_argument("--d1-interval", type=float, nargs=2, default=(3.0, 7.0),
                         metavar=("LO", "HI"),
                         help="support of the uncertain demand (default 3 7)")
    p_lands.add_argument("--d1-fixed", type=float, default=None,
                         help="fix the demand, making the instance deterministic")
    p_lands.set_defaults(func=cmd_make_lands)

    p_cvar = sub.add_parser("make-cvar", help="emit the tail-risk portfolio instance")
    p_cvar.add_argument("--output", required=True)
    p_cvar.add_argument("--mu", type=_parse_vector, default="0.05,0.07",
                        help="mean returns, comma separated")
    p_cvar.add_argument("--sigma", type=_parse_matrix, default="0.14,0.053;0.053,0.23",
                        help="return covariance, rows separated by ';'")
    p_cvar.add_argument("--delta", type=float, default=0.1,
                        help="tail probability in (0,1) (default 0.1)")
    p_cvar.add_argument("--seed", type=int, default=instances.DEFAULT_CVAR_SEED)
    p_cvar.add_argument("--mc-pool", type=int, default=instances.DEFAULT_POOL_SIZE)
    p_cvar.set_defaults(func=cmd_make_cvar)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AdaptPartError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
