"""Command-line front end: solve `.dd` instances, fuse proposal lists,
report fusion search-space bounds.

Exit codes: 0 on success, 2 on usage errors, 1 on runtime errors (missing
files, parse errors, violated preconditions).  Results go to stdout,
diagnostics to stderr.  Trace files written by ``solve`` are byte-identical
across reruns with the same seed and flags (absent a time budget).
"""

import argparse
import sys
import time

from .ddio import ParseError, parse_dd, parse_proposals, to_problem, write_proposals, write_trace
from .fusion import (MAX_EXACT_VARIABLES, build_fusion, count_bound, penalty_free_labelings,
                     proposal_counts)
from .model import is_feasible
from .solver import SolverConfig, fuse_sequence, solve


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text):
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qapfuse",
        description="Graph matching solver: dual ascent bounds, greedy proposals, fusion moves.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", help="solve a .dd instance")
    p_solve.add_argument("input", help="path to the .dd instance")
    p_solve.add_argument("--max-batches", type=_positive_int, default=50000)
    p_solve.add_argument("--batch-size", type=_positive_int, default=1)
    p_solve.add_argument("--greedy-generations", type=_positive_int, default=1)
    p_solve.add_argument("--time-budget", type=_positive_float, default=None,
                         metavar="SECONDS")
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--fusion", choices=["qpbo-i", "exact"], default="qpbo-i")
    p_solve.add_argument("--primal", choices=["greedy", "lap"], default="greedy")
    p_solve.add_argument("--trace", default=None, metavar="PATH",
                         help="write the convergence trace CSV here")
    p_solve.add_argument("--output", default=None, metavar="PATH",
                         help="write the best assignment in proposal format here")

    p_fuse = sub.add_parser("fuse", help="fuse a list of proposal assignments")
    p_fuse.add_argument("input", help="path to the .dd instance")
    p_fuse.add_argument("proposals", help="path to the proposal list")
    p_fuse.add_argument("results", help="path for the per-step CSV")
    p_fuse.add_argument("--fusion", choices=["qpbo-i", "exact"], default="qpbo-i")
    p_fuse.add_argument("--seed", type=int, default=0)

    p_bound = sub.add_parser(
        "bound", help="search-space bound for fusing two assignments")
    p_bound.add_argument("input", help="path to the .dd instance")
    p_bound.add_argument("proposals", help="proposal file with exactly two lines")

    return parser


def _load_problem(path):
    with open(path, "r") as handle:
        return to_problem(parse_dd(handle))


def run_solve(args):
    problem = _load_problem(args.input)
    config = SolverConfig(
        max_batches=args.max_batches, batch_size=args.batch_size,
        greedy_generations=args.greedy_generations,
        time_budget_seconds=args.time_budget, seed=args.seed,
        fusion_mode=args.fusion, primal_heuristic=args.primal)
    started = time.perf_counter()
    outcome = solve(problem, config)
    wall = time.perf_counter() - started

    if args.trace is not None:
        write_trace(outcome.trace, args.trace)
    if args.output is not None:
        write_proposals([outcome.best], args.output)

    print(f"energy={outcome.best_energy:.6g} bound={outcome.final_dual_bound:.6g} "
          f"gap={outcome.gap:.6g} optimal={'true' if outcome.proved_optimal else 'false'} "
          f"time={wall:.6g}")
    return 0


def run_fuse(args):
    problem = _load_problem(args.input)
    with open(args.proposals, "r") as handle:
        proposals = parse_proposals(handle, problem)
    if not proposals:
        raise ValueError("proposal file is empty")
    final, steps = fuse_sequence(problem, proposals, mode=args.fusion, rng=args.seed)
    with open(args.results, "w", newline="\n") as out:
        out.write("step,proposal_energy,incumbent_energy\n")
        for step, proposal_energy, incumbent_energy in steps:
            out.write(f"{step},{proposal_energy:.6g},{incumbent_energy:.6g}\n")
    print(f"energy={steps[-1][2]:.6g}")
    return 0


def run_bound(args):
    problem = _load_problem(args.input)
    with open(args.proposals, "r") as handle:
        proposals = parse_proposals(handle, problem)
    if len(proposals) != 2:
        raise ValueError(f"bound needs exactly two proposals, found {len(proposals)}")
    x1, x2 = proposals
    if not is_feasible(problem, x1):
        raise ValueError("the first assignment must be feasible")

    m, n = proposal_counts(problem, x2)
    bound = count_bound(problem, x2)
    line = f"m={m} n={n} bound={'overflow' if bound is None else bound}"

    fp = build_fusion(problem, x1, x2)
    if fp.num_variables <= MAX_EXACT_VARIABLES:
        line += f" count={sum(1 for _ in penalty_free_labelings(fp))}"
    print(line)
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        if args.subcommand == "solve":
            return run_solve(args)
        if args.subcommand == "fuse":
            return run_fuse(args)
        return run_bound(args)
    except (OSError, ParseError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    raise SystemExit(main())
