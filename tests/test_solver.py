import io
import itertools
from pathlib import Path

import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    brute_force_optimum,
    candidates,
    geometric_matching_instance,
    neighbors,
    random_assignment,
    random_feasible_assignment,
    random_problem,
    scaled_problem,
)


def count_energy_calls(monkeypatch):
    """Route the solver's and fusion's energy evaluations through a spy;
    returns the list it appends to."""
    calls = []
    real = qf.model.energy

    def spy(problem, x):
        calls.append(x)
        return real(problem, x)

    for module in (qf.solver, qf.fusion):
        monkeypatch.setattr(module, "energy", spy)
    return calls


class TestSolve:
    def test_single_node_proved_optimal(self):
        p = qf.Problem(1, 1, [[0]], [np.array([-1.0, 0.0])])
        outcome = qf.solve(p, qf.SolverConfig(max_batches=3))
        assert outcome.proved_optimal
        assert outcome.best_energy == -1.0
        assert np.array_equal(outcome.best, [0])

    def test_regression_bar_and_sandwich(self):
        # 100 seeds of 4-node/4-label instances, exact fusion, 50 batches:
        # the optimum must be found in at least 95 runs and the
        # bound/energy sandwich must hold at every trace record.
        rng = np.random.default_rng(5)
        hits = 0
        for seed in range(100):
            p = random_problem(rng, max_nodes=4, max_labels=4, min_nodes=4)
            opt, _ = brute_force_optimum(p)
            cfg = qf.SolverConfig(max_batches=50, seed=seed, fusion_mode="exact")
            outcome = qf.solve(p, cfg)
            tol = 1e-9 * max(1.0, abs(opt))
            if outcome.best_energy <= opt + tol:
                hits += 1
            assert outcome.best_energy >= opt - tol
            assert outcome.final_dual_bound <= opt + 1e-6
            for record in outcome.trace:
                assert record.dual_bound - 1e-6 <= opt
                if record.best_energy is not None:
                    assert record.best_energy >= opt - tol
        assert hits >= 95

    def test_monotone_trace(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            p = random_problem(rng, max_nodes=5)
            outcome = qf.solve(p, qf.SolverConfig(max_batches=10, seed=seed))
            bounds = [r.dual_bound for r in outcome.trace]
            energies = [r.best_energy for r in outcome.trace
                        if r.best_energy is not None]
            times = [r.elapsed_seconds for r in outcome.trace]
            assert all(b2 >= b1 - 1e-7 for b1, b2 in zip(bounds, bounds[1:]))
            assert all(e2 <= e1 + 1e-9 for e1, e2 in zip(energies, energies[1:]))
            assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
            assert outcome.final_dual_bound <= outcome.best_energy + 1e-6
            assert qf.is_feasible(p, outcome.best)

    def test_identical_runs_identical_traces(self):
        rng = np.random.default_rng(12)
        p = random_problem(rng, max_nodes=5, min_nodes=4)
        cfg = qf.SolverConfig(max_batches=8, seed=3)
        first = qf.solve(p, cfg)
        second = qf.solve(p, cfg)
        buf1, buf2 = io.StringIO(), io.StringIO()
        qf.write_trace(first.trace, buf1)
        qf.write_trace(second.trace, buf2)
        assert buf1.getvalue() == buf2.getvalue()

    @pytest.mark.parametrize("case", ["greedy", "lap", "sparse"])
    def test_trace_matches_golden_file(self, case):
        # The greedy and lap files were written by the edge-by-edge sweep
        # that preceded the level-scheduled one, the sparse file by the
        # greedy that read per-node and per-edge views; the ascent and the
        # proposals must not move.  The geometric instance is a complete
        # graph.  The sparse one has isolated nodes, nodes without
        # candidates and several components, and makes three proposals per
        # sweep, so greedy often runs out of frontier.
        if case == "sparse":
            p = random_problem(np.random.default_rng(7), min_nodes=24, max_nodes=24,
                               max_labels=10, edge_prob=0.08, integer=False)
            assert not all(candidates(p, u) for u in range(p.num_nodes))
            assert not all(neighbors(p))
            cfg = qf.SolverConfig(max_batches=12, seed=5, greedy_generations=3)
        else:
            p, _ = geometric_matching_instance(3, n=12, noise=0.3, outliers=3)
            cfg = qf.SolverConfig(max_batches=12, seed=5, primal_heuristic=case)
        buffer = io.StringIO()
        qf.write_trace(qf.solve(p, cfg).trace, buffer)
        golden = Path(__file__).parent / "data" / f"golden_trace_{case}.csv"
        assert buffer.getvalue().encode() == golden.read_bytes()

    @pytest.mark.parametrize("scale", [1e-10, 1e10])
    def test_optimality_claim_is_scale_invariant(self, scale):
        rng = np.random.default_rng(90)
        problems = [random_problem(rng, max_nodes=8, min_nodes=7, integer=False,
                                   edge_prob=0.7) for _ in range(10)]
        problems.append(geometric_matching_instance(3, n=12, noise=0.3, outliers=3)[0])
        cfg = qf.SolverConfig(max_batches=8, seed=1)
        proved = set()
        for p in problems:
            base, other = qf.solve(p, cfg), qf.solve(scaled_problem(p, scale), cfg)
            assert other.proved_optimal == base.proved_optimal
            assert other.trace[-1].iteration == base.trace[-1].iteration
            proved.add(base.proved_optimal)
        assert proved == {True, False}

    @pytest.mark.parametrize("scale", [1e-10, 1e9, 1e12])
    def test_monotonicity_check_is_scale_invariant(self, scale):
        # Rounding of the bound grows with the cost scale: a fixed absolute
        # slack raised a false alarm at sweep 85 with costs x 1e9.
        p, _ = geometric_matching_instance(9, n=12, noise=0.3, outliers=3)
        outcome = qf.solve(scaled_problem(p, scale), qf.SolverConfig(max_batches=100, seed=0))
        assert outcome.trace[-1].iteration == 100

    def test_lap_primal_heuristic(self):
        rng = np.random.default_rng(13)
        p = random_problem(rng, max_nodes=5, min_nodes=4)
        cfg = qf.SolverConfig(max_batches=10, primal_heuristic="lap",
                              fusion_mode="exact")
        outcome = qf.solve(p, cfg)
        assert qf.is_feasible(p, outcome.best)
        assert any(r.event == "lap" for r in outcome.trace)
        opt, _ = brute_force_optimum(p)
        assert outcome.final_dual_bound <= opt + 1e-6

    def test_one_lap_solve_per_sweep(self, monkeypatch):
        # The dual state stays put between generations, so one LAP solve
        # per sweep serves all three of them.
        calls = []
        real = qf.solver.solve_lap

        def spy(problem, costs):
            calls.append(costs.copy())
            return real(problem, costs)

        monkeypatch.setattr(qf.solver, "solve_lap", spy)
        p, _ = geometric_matching_instance(3, n=12, noise=0.3, outliers=3)
        cfg = qf.SolverConfig(max_batches=6, batch_size=2, greedy_generations=3,
                              seed=5, primal_heuristic="lap")
        trace = qf.solve(p, cfg).trace
        sweeps = sum(r.event == "edge-sweep" for r in trace)
        assert sweeps == 12
        assert len(calls) == sweeps
        assert sum(r.event == "lap" for r in trace) == 3 * sweeps

    def test_each_sweeps_bound_equals_a_fresh_bound(self, monkeypatch):
        # Greedy solves hand the sweep the adjusted tables they built, one
        # set per sweep for all generations; the bound it records from them
        # is bit for bit the bound of the state.  LAP solves build none.
        built, checked = [], []
        real_tables, real_sweep = qf.solver.adjusted_tables, qf.solver.sweep

        def tables_spy(problem, repar):
            built.append(1)
            return real_tables(problem, repar)

        def sweep_spy(problem, state, between):
            real_sweep(problem, state, between)
            assert state.dual_bound.hex() == qf.dual_bound(problem, state.repar).hex()
            checked.append(state.dual_bound)

        monkeypatch.setattr(qf.solver, "adjusted_tables", tables_spy)
        monkeypatch.setattr(qf.solver, "sweep", sweep_spy)
        rng = np.random.default_rng(15)
        problems = [geometric_matching_instance(3, n=12, noise=0.3, outliers=3)[0]]
        problems += [random_problem(rng, max_nodes=9, min_nodes=6, max_labels=5, edge_prob=0.7,
                                    integer=False) for _ in range(4)]
        for p, heuristic in itertools.product(problems, ("greedy", "lap")):
            built.clear()
            checked.clear()
            cfg = qf.SolverConfig(max_batches=6, batch_size=2, greedy_generations=3,
                                  seed=5, primal_heuristic=heuristic)
            trace = qf.solve(p, cfg).trace
            sweeps = sum(r.event == "edge-sweep" for r in trace)
            assert sweeps == len(checked) > 1
            assert len(built) == (heuristic == "greedy") * sweeps
            assert sum(r.event == heuristic for r in trace[1:]) == 3 * sweeps

    def test_one_energy_evaluation_per_fusion(self, monkeypatch):
        # fuse compares its result with the incumbent on the auxiliary
        # energy, and the solver already holds the incumbent's energy.
        calls = count_energy_calls(monkeypatch)
        p, _ = geometric_matching_instance(3, n=12, noise=0.3, outliers=3)
        for heuristic in ("greedy", "lap"):
            calls.clear()
            cfg = qf.SolverConfig(max_batches=10, seed=5, primal_heuristic=heuristic)
            trace = qf.solve(p, cfg).trace
            fusions = sum(r.event in ("fusion", "improved") for r in trace)
            assert fusions > 0
            assert len(calls) <= 1 + fusions

    def test_time_budget_stops_early(self):
        rng = np.random.default_rng(14)
        p = random_problem(rng, max_nodes=5, min_nodes=5, edge_prob=1.0)
        cfg = qf.SolverConfig(max_batches=10**9, time_budget_seconds=0.05)
        outcome = qf.solve(p, cfg)  # must return promptly
        assert outcome.trace

    def test_spent_time_budget_stops_before_the_first_batch(self):
        rng = np.random.default_rng(14)
        p = random_problem(rng, max_nodes=5, min_nodes=5, edge_prob=1.0)
        # Without a budget the first batch runs: the start is not proved optimal.
        assert "label-sweep" in [r.event for r in qf.solve(p, qf.SolverConfig(max_batches=1)).trace]
        outcome = qf.solve(p, qf.SolverConfig(time_budget_seconds=1e-9))
        assert [r.event for r in outcome.trace] == ["greedy"]
        assert not outcome.proved_optimal

    @pytest.mark.parametrize("field,value", [
        ("max_batches", 0), ("batch_size", 0), ("greedy_generations", -1),
        ("fusion_mode", "ilp"), ("primal_heuristic", "bp"),
        ("time_budget_seconds", 0.0), ("time_budget_seconds", float("nan")),
        ("seed", -1), ("max_batches", 2.5), ("batch_size", 2.0),
        ("greedy_generations", 1.5), ("seed", 0.5),
    ])
    def test_config_validation(self, field, value):
        cfg = qf.SolverConfig(**{field: value})
        with pytest.raises(ValueError, match=field.split("_")[0]):  # the message names the field
            cfg.validate()

    def test_non_integral_count_fails_validation_not_the_solve(self):
        p = qf.Problem(1, 1, [[0]], [np.array([-1.0, 0.0])])
        with pytest.raises(ValueError, match="max_batches must be an integer"):
            qf.solve(p, qf.SolverConfig(max_batches=2.5))
        # numpy integers are integers.
        outcome = qf.solve(p, qf.SolverConfig(max_batches=np.int64(2), seed=np.uint8(3)))
        assert outcome.best.tolist() == [0]

    def test_geometric_matching_recovers_planted_solution(self):
        # Wide-baseline-style instances: the solver must match or beat the
        # planted matching's energy and certify optimality via the bound.
        for seed in range(3):
            problem, planted = geometric_matching_instance(seed)
            planted_energy = qf.energy(problem, planted)
            outcome = qf.solve(problem, qf.SolverConfig(max_batches=400, seed=seed))
            assert outcome.best_energy <= planted_energy + 1e-9
            assert outcome.proved_optimal
            assert np.array_equal(outcome.best, planted)

    def test_planted_optimum_through_dd_pipeline(self):
        # 20-point instance with a dominant diagonal written in .dd form:
        # the planted matching is provably optimal (any deviation forfeits
        # far more than the noise can repay), and the solver must find and
        # certify exactly that energy.
        rng = np.random.default_rng(123)
        n = 20
        header = []
        pair_lines = []
        ids = {}
        planted = 0.0
        aid = 0
        for u in range(n):
            for s in range(n):
                cost = -100.0 if u == s else float(np.round(rng.uniform(-1, 1), 3))
                if u == s:
                    planted += cost
                header.append(f"a {aid} {u} {s} {cost}")
                ids[(u, s)] = aid
                aid += 1
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.3:
                    c = float(np.round(rng.uniform(-0.5, 0.0), 3))
                    pair_lines.append(f"e {ids[(u, u)]} {ids[(v, v)]} {c}")
                    planted += c
        text = "\n".join([f"p {n} {n} {n * n} {len(pair_lines)}"]
                         + header + pair_lines) + "\n"
        problem = qf.to_problem(qf.parse_dd(text))
        assert qf.energy(problem, np.arange(n, dtype=np.int64)) == pytest.approx(planted)
        outcome = qf.solve(problem, qf.SolverConfig(max_batches=50, seed=0))
        assert outcome.best_energy == pytest.approx(planted, abs=1e-9)
        assert outcome.proved_optimal
        assert np.array_equal(outcome.best, np.arange(n))


class TestFuseSequence:
    def test_single_proposal_returned_unchanged(self):
        rng = np.random.default_rng(21)
        p = random_problem(rng, max_nodes=5, min_nodes=3)
        x = random_feasible_assignment(p, rng)
        final, steps = qf.fuse_sequence(p, [x])
        assert np.array_equal(final, x)
        assert steps == [(0, qf.energy(p, x), qf.energy(p, x))]

    def test_repeated_proposal_is_idempotent(self):
        rng = np.random.default_rng(22)
        p = random_problem(rng, max_nodes=5, min_nodes=3)
        x = random_feasible_assignment(p, rng)
        final, steps = qf.fuse_sequence(p, [x] * 10)
        assert np.array_equal(final, x)
        incumbent_energies = [s[2] for s in steps]
        assert len(set(incumbent_energies)) == 1

    def test_prefix_monotone_and_below_every_proposal(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            p = random_problem(rng, max_nodes=5, min_nodes=5)
            proposals = [random_feasible_assignment(p, rng) for _ in range(20)]
            final, steps = qf.fuse_sequence(p, proposals, mode="exact")
            incumbent = [s[2] for s in steps]
            assert all(b <= a + 1e-9 for a, b in zip(incumbent, incumbent[1:]))
            final_energy = incumbent[-1]
            assert all(final_energy <= qf.energy(p, x) + 1e-9 for x in proposals)
            assert qf.is_feasible(p, final)

    def test_one_energy_evaluation_per_fusion(self, monkeypatch):
        # Each step scores its proposal; the fusion adds at most one
        # evaluation, of a result that differs from the incumbent.
        calls = count_energy_calls(monkeypatch)
        rng = np.random.default_rng(24)
        p = random_problem(rng, max_nodes=7, min_nodes=7, max_labels=7)
        proposals = [random_assignment(p, rng) for _ in range(12)]
        final, steps = qf.fuse_sequence(p, proposals, mode="qpbo-i")
        assert len(calls) <= 1 + 2 * len(proposals)
        assert steps[-1][2] == qf.model.energy(p, final)

    def test_infeasible_prefix_falls_back_to_dummy_seed(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([-1.0, 0.0]), np.array([-2.0, 0.0])])
        bad = np.array([0, 0])
        final, steps = qf.fuse_sequence(p, [bad])
        assert qf.is_feasible(p, final)
        # the infeasible proposal is still scored in the step record
        assert steps[0][1] == qf.energy(p, bad)

    def test_empty_sequence_rejected(self):
        p = qf.Problem(1, 1, [[0]], [np.array([0.0, 0.0])])
        with pytest.raises(ValueError):
            qf.fuse_sequence(p, [])
