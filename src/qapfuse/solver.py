"""Full pipeline: dual ascent sweeps, primal proposals, fusion moves.

Each batch runs a fixed number of ascent sweeps; between the edge phase
and the node/label phase of every sweep the solver makes proposals with
the configured primal heuristic (randomized greedy on reparametrized
costs, or the exact assignment-side LAP solution, solved once per sweep)
and fuses each one into the incumbent at once, remembering settled
fusions in a memo (see :mod:`~qapfuse.fusion`) that is emptied whenever
the incumbent improves.  The incumbent's energy is non-increasing, the
dual bound non-decreasing, and the run stops on batch count, wall-clock
budget, or a proved optimum (gap below 1e-6 of the larger of |energy|
and the largest cost magnitude).

Traces are deterministic given the seed: elapsed time in trace records is
a work-proportional virtual clock by default (so identical runs produce
byte-identical trace files), while the time budget always uses the wall
clock.  Pass ``trace_clock=time.perf_counter`` to record real time
instead, at the cost of reproducible traces.
"""

import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dualbca import DualState, sweep
from .greedy import greedy_assignment
from .lap import solve_lap
from .model import (adjusted_tables, all_dummy, assignment_side, energy, is_feasible,
                    validate_assignment)
from .ddio import SolverTraceRecord
from .fusion import fuse

OPTIMALITY_TOLERANCE = 1e-6

# Virtual trace clock: accumulated table-entry operations over this rate
# give "seconds"; deterministic, monotone, roughly work-proportional.
_WORK_RATE = 5.0e7


@dataclass
class SolverConfig:
    """Run parameters; counts must be integers >= 1 and the seed an integer
    >= 0; the seed drives every random choice (greedy node order and fusion
    improvement order)."""
    max_batches: int = 50000
    batch_size: int = 1
    greedy_generations: int = 1
    time_budget_seconds: Optional[float] = None
    seed: int = 0
    fusion_mode: str = "qpbo-i"
    primal_heuristic: str = "greedy"

    def validate(self):
        lows = {"max_batches": 1, "batch_size": 1, "greedy_generations": 1, "seed": 0}
        for name, low in lows.items():
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
        if self.fusion_mode not in ("qpbo-i", "exact"):
            raise ValueError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.primal_heuristic not in ("greedy", "lap"):
            raise ValueError(f"unknown primal heuristic {self.primal_heuristic!r}")
        if self.time_budget_seconds is not None and not self.time_budget_seconds > 0:
            raise ValueError("time budget must be positive")


@dataclass
class SolveOutcome:
    best: np.ndarray
    best_energy: float
    final_dual_bound: float
    gap: float
    trace: list
    proved_optimal: bool


def solve(problem, config=None, *, trace_clock=None):
    """Run the full solver on a problem; returns a SolveOutcome."""
    config = config or SolverConfig()
    config.validate()
    rng = np.random.default_rng(config.seed)
    wall_start = time.perf_counter()

    pair_work, unary_work = problem.table_buffer.size, problem.unary_flat.size
    fusion_work = 16.0 * problem.num_nodes + 64.0
    if trace_clock is not None:
        start = trace_clock()
    work = 0.0
    trace = []
    state = DualState.initial(problem)
    memo = {}  # settled fusions of the current incumbent (see fuse)

    def record(event, best, units):
        """Advance the virtual clock by ``units`` of work, then log the event."""
        nonlocal work
        work += units
        elapsed = work / _WORK_RATE if trace_clock is None else trace_clock() - start
        trace.append(SolverTraceRecord(
            iteration=state.sweep_counter, elapsed_seconds=elapsed,
            dual_bound=state.dual_bound, best_energy=best, event=event))

    incumbent = greedy_assignment(problem, rng)
    best_energy = energy(problem, incumbent)
    record("greedy", best_energy, unary_work + pair_work / 4)

    def proved():
        # Relative to the instance's largest cost when the energy is near 0,
        # so the test reads the same at every cost scale.
        gap = best_energy - state.dual_bound
        return gap <= OPTIMALITY_TOLERANCE * max(problem.cost_scale, abs(best_energy))

    def propose_and_fuse():
        nonlocal incumbent, best_energy
        record("edge-sweep", best_energy, pair_work)
        # The dual state is fixed until the sweep goes on: one LAP proposal,
        # or one set of adjusted tables, serves every generation.
        if config.primal_heuristic == "lap":
            proposal = solve_lap(problem, assignment_side(problem, state.repar))[0]
        else:
            adjusted = adjusted_tables(problem, state.repar)
        for _ in range(config.greedy_generations):
            if config.primal_heuristic == "greedy":
                proposal = greedy_assignment(problem, rng, state.repar, adjusted)
            record(config.primal_heuristic, best_energy, unary_work + pair_work / 4)
            fused = fuse(problem, incumbent, proposal, config.fusion_mode, rng, memo=memo)
            fused_energy = energy(problem, fused)
            improved = fused_energy < best_energy
            if improved:
                incumbent, best_energy = fused, fused_energy
                memo.clear()
            record("improved" if improved else "fusion", best_energy, fusion_work)

    done = proved()
    for _ in range(config.max_batches):
        if done:
            break
        if (config.time_budget_seconds is not None
                and time.perf_counter() - wall_start > config.time_budget_seconds):
            break
        for _ in range(config.batch_size):
            sweep(problem, state, propose_and_fuse)
            record("label-sweep", best_energy, 2.0 * unary_work)
        done = proved()

    gap = best_energy - state.dual_bound
    return SolveOutcome(best=incumbent, best_energy=best_energy,
                        final_dual_bound=state.dual_bound, gap=gap,
                        trace=trace, proved_optimal=proved())


def fuse_sequence(problem, proposals, mode="qpbo-i", rng=0):
    """Fuse a proposal list one after another into a single assignment.

    The incumbent starts from the first feasible proposal (all-dummy if
    none is feasible) and every proposal is fused in order.  Returns the
    final assignment plus per-step records
    ``(step, proposal_energy, incumbent_energy)``; incumbent energies are
    non-increasing.
    """
    proposals = [validate_assignment(problem, x) for x in proposals]
    if not proposals:
        raise ValueError("need at least one proposal")
    rng = np.random.default_rng(rng)

    incumbent = next((x.copy() for x in proposals if is_feasible(problem, x)), None)
    if incumbent is None:
        incumbent = all_dummy(problem)

    steps = []
    incumbent_energy = energy(problem, incumbent)
    for index, x in enumerate(proposals):
        fused = fuse(problem, incumbent, x, mode=mode, rng=rng)
        if not np.array_equal(fused, incumbent):
            fused_energy = energy(problem, fused)
            if fused_energy <= incumbent_energy:
                incumbent, incumbent_energy = fused, fused_energy
        steps.append((index, energy(problem, x), incumbent_energy))
    return incumbent, steps
