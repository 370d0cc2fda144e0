"""qapfuse benchmark: load and solve seeded instances, check every output,
print the metrics.

    python3 benchmarks/run.py --workload knn300-greedy --seed 1 --seconds 60 --trace 0

Run it from the repository root; it imports ``qapfuse`` from ``src/`` and
exits with code 2 when that is missing.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the environment, each metric's median, range and sample
count, and (traced) where the solve time went by layer.

A run generates one instance from ``--seed``, writes it as `.dd` text, and
then repeats rounds while another fits in ``--seconds`` (at least
``MIN_ROUNDS``): each round loads the text (``parse_dd`` + ``to_problem``)
and makes the workload's timed call (``calls_per_setup`` times).

``setup_s`` is the median over the rounds.  The timed call's times
(``solve_s``, ``time_to_target_s``) are built from fastest repeats: every
solve of a run does the same work, and its trace
(``trace_clock=time.perf_counter``) cuts it into intervals between
records; each interval counts with its fastest repeat, and the time is the
sum of those.  A ``fuse_sequence`` counts with its fastest repeat as a
whole.  On a shared host other tenants slow the same solve by up to 1.8x,
switching within a second and drifting over minutes, so a median moves
with how much of a run was disturbed, while the fastest repeat of each
short stretch of the same work is what the program itself costs.  Every
metric line also gives the median, range and sample count of the whole
calls.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds and reports the per-layer metrics of the traced
ones (see ``tracer.py``), plus the tracing overhead on the timed call.
``--spans PATH`` also writes every recorded span as CSV at the end.

Each workload's instance comes from a fixed family seed and every solve
uses solver seed ``SOLVER_SEED``; ``--seed`` draws a renumbering of the
labels.  Runs with different seeds thus solve the same problem written
differently and do the same amount of work: with other solver seeds the
same solve took up to 25% longer or shorter, which would show as spread
from run to run.
"""

import os

# Pin numeric libraries to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILY_SEED = 0
MIN_ROUNDS = 3
SOLVER_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    family: str                  # "knn", "dense" or "fuse"
    size: int
    why: str
    heuristic: str = "greedy"
    batches: int = 0
    free: tuple = ()
    middle: int = 0
    target_frac: float = 1.0     # target energy, as a share of the planted one
    calls_per_setup: int = 1     # untraced timed calls per round
    final_energy: float = None   # exact fusion's determined result


WORKLOADS = {w.name: w for w in (
    # The first fusion reaches 97.7-99.6% of the planted energy; the planted
    # energy itself is reached at the second or third fusion depending on the
    # solver seed, which would make the time to target two-valued.
    Workload("knn300-greedy", "knn", 300, batches=20, target_frac=0.95, calls_per_setup=4,
             why="sparse kNN graph with 11x11 tables: per-edge Python overhead of the "
                 "dual sweep dominates, greedy proposals with qpbo-i fusion"),
    # The first LAP fusion misses the planted energy now and then; 90% of it
    # is always reached.  Set-up takes longer than a solve here, so each
    # round solves three times to gather more repeats per run.
    Workload("dense30-lap", "dense", 30, heuristic="lap", batches=30, target_frac=0.9,
             calls_per_setup=3,
             why="complete 30-node graph with 31x31 tables: a large .dd load, LAP "
                 "proposals that disagree with the incumbent almost everywhere"),
    # Run by hand only; BENCHMARK.json does not list it (see README.md).
    Workload("fuse-exact", "fuse", 16, free=(12, 13, 13, 13), middle=2,
             final_energy=-19.112062630777665,
             why="fuse_sequence in exact mode over fixed proposals with 12-13 free "
                 "variables: all fusion build and enumeration, no dual ascent"),
)}


def load_library():
    """Import qapfuse from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "qapfuse" / "__init__.py").is_file():
        print(f"error: no qapfuse sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import qapfuse
    if Path(qapfuse.__file__).resolve().parent != (src / "qapfuse").resolve():
        print(f"error: imported qapfuse from {qapfuse.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return qapfuse


class Inputs:
    """Everything a run derives from its seed before timing starts."""

    def __init__(self, workload, seed):
        import instances

        self.naive_bound = None
        if workload.family == "fuse":
            base, proposals, self.expected = instances.fusion_sequence(
                FAMILY_SEED, workload.size, workload.free, workload.middle)
            self.inst, self.proposals = instances.relabel(base, seed, proposals)
            self.naive_bound = instances.naive_bound(self.inst)
        else:
            make = instances.knn_instance if workload.family == "knn" else instances.dense_instance
            self.inst, _ = instances.relabel(make(FAMILY_SEED, workload.size), seed)
            planted = instances.energy_by_loops(self.inst, self.inst.planted)
            self.target = workload.target_frac * planted
        self.text = self.inst.dd_text()
        self.tol = 1e-9 * self.inst.cost_scale()


class CheckFailed(Exception):
    pass


def _check(condition, message):
    if not condition:
        raise CheckFailed(message)


def check_setup(qf, inputs, problem):
    import instances

    planted = inputs.inst.planted
    _check(problem.num_nodes == inputs.inst.num_nodes, "node count changed in .dd round trip")
    _check(abs(qf.energy(problem, planted) - instances.energy_by_loops(inputs.inst, planted))
           <= inputs.tol, "planted energy changed in .dd round trip")


def check_solve(qf, inputs, problem, out):
    """Output checks of one solve; returns (index of the first trace record at
    the target, improved fraction)."""
    import instances

    tol = inputs.tol
    _check(qf.is_feasible(problem, out.best), "best assignment is infeasible")
    _check(abs(instances.energy_by_loops(inputs.inst, out.best) - out.best_energy) <= tol,
           "best_energy does not match the re-summed energy")
    _check(out.final_dual_bound <= out.best_energy + tol, "dual bound above best energy")
    bounds = [r.dual_bound for r in out.trace]
    energies = [r.best_energy for r in out.trace if r.best_energy is not None]
    _check(all(b >= a - tol for a, b in zip(bounds, bounds[1:])), "dual bound decreased")
    _check(all(b <= a for a, b in zip(energies, energies[1:])), "incumbent got worse")
    _check(energies and energies[-1] == out.best_energy, "trace ends off the best energy")
    # Only records written after a fusion count: the initial greedy alone
    # reaches the target in some rounds, which would make the time bimodal.
    fusions = [r.event in ("improved", "fusion") for r in out.trace]
    reached = [i for i, (r, fused) in enumerate(zip(out.trace, fusions))
               if fused and r.best_energy <= inputs.target + tol]
    _check(reached, f"target energy {inputs.target!r} not reached")
    improved = (sum(r.event == "improved" for r in out.trace) / sum(fusions)
                if any(fusions) else 0.0)
    return reached[0], improved


def check_fusion(qf, inputs, problem, final, steps, expected, stored):
    """Output checks of one fuse_sequence; returns the improved fraction."""
    import instances

    tol = inputs.tol
    _check(len(steps) == len(expected), "wrong number of fusion steps")
    _check(stored is None or abs(steps[-1][2] - stored) <= tol,
           f"final energy {steps[-1][2]!r}, stored value {stored!r}")
    _check(qf.is_feasible(problem, final), "fused assignment is infeasible")
    _check(abs(instances.energy_by_loops(inputs.inst, final) - steps[-1][2]) <= tol,
           "final energy does not match the re-summed energy")
    best_feasible = None
    previous = None
    for (step, proposal_energy, incumbent_energy), want, x in zip(
            steps, expected, inputs.proposals):
        _check(abs(proposal_energy - instances.energy_by_loops(inputs.inst, x)) <= tol,
               f"step {step}: wrong proposal energy")
        if instances.feasible(x):
            best_feasible = proposal_energy if best_feasible is None else min(
                best_feasible, proposal_energy)
        _check(best_feasible is None or incumbent_energy <= best_feasible + tol,
               f"step {step}: worse than a feasible proposal")
        _check(previous is None or incumbent_energy <= previous + tol,
               f"step {step}: incumbent got worse")
        _check(abs(incumbent_energy - want) <= tol,
               f"step {step}: energy {incumbent_energy!r}, exact fusion gives {want!r}")
        previous = incumbent_energy
    improved = sum(b[2] < a[2] - tol for a, b in zip(steps, steps[1:]))
    return improved / max(1, len(steps) - 1)


def environment():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        commit = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy
    return (f"commit={commit} python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} nproc={os.cpu_count()} cpu={cpu!r}")


class Run:
    """Rounds of one workload; collects samples and counts operations."""

    def __init__(self, qf, workload, inputs):
        self.qf = qf
        self.workload = workload
        self.inputs = inputs
        self.samples = {}
        # Timed-call times: name -> one list of interval durations per repeat.
        self.repeats = {}
        self.outcome = None  # (trace length, best energy) of the first solve
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # Context around each timed call only, so checks are never traced.
        self.timing = nullcontext

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def add_timed(self, name, intervals):
        """One repeat of the timed call, cut into intervals that every
        repeat shares."""
        self.add(name, sum(intervals))
        self.repeats.setdefault(name, []).append(intervals)

    def fastest(self, name):
        """The sum of each interval's fastest repeat."""
        return sum(min(repeats) for repeats in zip(*self.repeats[name]))

    def operation(self, fn, *args):
        """Run one timed operation with its checks; None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any raise is a failed operation, reported below
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def setup(self):
        qf = self.qf
        with self.timing():
            started = time.perf_counter()
            problem = qf.to_problem(qf.parse_dd(self.inputs.text))
            elapsed = time.perf_counter() - started
        check_setup(qf, self.inputs, problem)
        return problem, elapsed

    def solve(self, problem):
        qf = self.qf
        w = self.workload
        config = qf.SolverConfig(max_batches=w.batches, seed=SOLVER_SEED,
                                 primal_heuristic=w.heuristic)
        with self.timing():
            started = time.perf_counter()
            out = qf.solve(problem, config, trace_clock=time.perf_counter)
            elapsed = time.perf_counter() - started
        target_at, improved = check_solve(qf, self.inputs, problem, out)
        outcome = (len(out.trace), out.best_energy)
        self.outcome = self.outcome or outcome
        _check(outcome == self.outcome, "the same solve gave another trace than before")
        marks = [0.0] + [r.elapsed_seconds for r in out.trace] + [elapsed]
        intervals = [b - a for a, b in zip(marks, marks[1:])]
        gap = (out.best_energy - out.final_dual_bound) / abs(out.best_energy)
        return intervals, intervals[:target_at + 1], gap, improved

    def fuse(self, problem, proposals, expected, stored=None):
        qf = self.qf
        with self.timing():
            started = time.perf_counter()
            final, steps = qf.fuse_sequence(problem, proposals, mode="exact", rng=SOLVER_SEED)
            elapsed = time.perf_counter() - started
        improved = check_fusion(qf, self.inputs, problem, final, steps, expected, stored)
        return elapsed, steps[-1][2], improved

    def timed_call(self, problem):
        """The workload's timed call with its checks: (interval durations,
        improved fraction)."""
        if self.workload.family != "fuse":
            result = self.operation(self.solve, problem)
            if result is None:
                return None
            intervals, to_target, gap, improved = result
            self.add_timed("time_to_target_s", to_target)
            self.add("rel_gap", gap)
            return intervals, improved
        inputs = self.inputs
        result = self.operation(self.fuse, problem, inputs.proposals, inputs.expected,
                                self.workload.final_energy)
        if result is None:
            return None
        elapsed, energy, improved = result
        self.add("rel_gap", (energy - inputs.naive_bound) / abs(energy))
        return [elapsed], improved

    def time_to_target_fusion(self, problem):
        """Exact fusion reaches the target at step ``middle``: time that prefix."""
        middle = self.workload.middle
        result = self.operation(self.fuse, problem, self.inputs.proposals[:middle + 1],
                                self.inputs.expected[:middle + 1])
        if result is not None:
            self.add_timed("time_to_target_s", [result[0]])


def _more_rounds(started, r, minimum, seconds):
    """Whether another round fits in ``seconds``, judged by the mean round."""
    elapsed = time.perf_counter() - started
    return r < minimum or elapsed + elapsed / r <= seconds


def run_untraced(run, seconds):
    started = time.perf_counter()
    r = 0
    while _more_rounds(started, r, MIN_ROUNDS, seconds):
        loaded = run.operation(run.setup)
        if loaded is not None:
            problem, elapsed = loaded
            run.add("setup_s", elapsed)
            for _ in range(run.workload.calls_per_setup):
                timed = run.timed_call(problem)
                if timed is not None:
                    run.add_timed("solve_s", timed[0])
                if run.workload.family == "fuse":
                    run.time_to_target_fusion(problem)
            del problem
        r += 1
    run.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def run_traced(run, seconds, spans_out):
    """Alternate traced and untraced rounds; per-layer metrics come from the
    traced ones, the tracing overhead from comparing the two."""
    import layers
    import tracer as tracing

    tracer = tracing.Tracer()
    kept = []
    times = {True: [], False: []}
    started = time.perf_counter()
    r = 0
    while _more_rounds(started, r, 2 * MIN_ROUNDS, seconds):
        traced = r % 2 == 0
        run.timing = (lambda: tracing.install(tracer, run.qf)) if traced else nullcontext
        loaded = run.operation(run.setup)
        timed = run.timed_call(loaded[0]) if loaded is not None else None
        del loaded
        spans = tracer.collect()
        if timed is not None:
            times[traced].append(sum(timed[0]))
            if traced:
                for name, value in layers.metrics(spans, timed[1]).items():
                    run.add(name, value)
        if traced and spans_out:
            kept.append((r, spans))
        r += 1
    run.timing = nullcontext
    if times[True] and times[False]:
        run.add("solver.trace_overhead_frac",
                statistics.median(times[True]) / statistics.median(times[False]) - 1.0)
    if spans_out:
        layers.write_spans(spans_out, kept)


def summarise(run, names):
    lines = []
    metrics = {}
    for name, unit in names:
        values = run.samples.get(name)
        if not values:
            raise SystemExit(f"error: no samples of {name}")
        median = statistics.median(values)
        if name in run.repeats:
            value = run.fastest(name)
            how = f"fastest repeats; median {median:.6g}, "
        else:
            value = median
            how = ""
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"# {name} = {value:.6g} {unit} ({how}min {min(values):.6g}, "
                     f"max {max(values):.6g}, n={len(values)})")
    return lines, metrics


END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("time_to_target_s", "s"),
              ("rel_gap", "ratio"), ("peak_rss_mb", "MB")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, metavar="PATH",
                        help="with --trace 1, write every span as CSV here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    qf = load_library()
    import layers

    workload = WORKLOADS[args.workload]
    run = Run(qf, workload, Inputs(workload, args.seed))
    print(f"# workload={workload.name} seed={args.seed} trace={args.trace} {environment()}")
    if args.trace:
        run_traced(run, args.seconds, args.spans)
        names = layers.PER_LAYER
    else:
        run_untraced(run, args.seconds)
        names = END_TO_END
    lines, metrics = summarise(run, names)
    print("\n".join(lines))
    if args.trace:
        print(layers.self_time_report(run.samples))
    for error in run.errors:
        print(f"# failed: {error}")
    print(f"# error_frac = {run.failed}/{run.attempted} = {run.failed / run.attempted:.6g}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
