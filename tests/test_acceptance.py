"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them inline).

Criterion 7 needs the public `hotel` wide-baseline matching instances in
`.dd` format; point QAPFUSE_HOTEL_DIR at a directory containing
``energy_hotel_frame*.dd`` files (or drop them into tests/data/hotel/).
Without them that criterion is skipped with a clear marker.
"""

import io
import os
import time
from pathlib import Path

import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    brute_force_optimum,
    enumerate_binary_energies,
    lap_optimum_by_enumeration,
    random_assignment,
    random_feasible_assignment,
    random_problem,
    random_reparametrization,
    restricted_space_optimum,
    restricted_space_optimum_pruned,
)
from test_lap import random_lap_instance


def report(number, name, status="PASS"):
    print(f"\nACCEPTANCE {number} ({name}): {status}")


def test_criterion_1_exactness_sandwich():
    # 500 random instances, |V| <= 5, |L_u| <= 4, integer costs in [-9, 9]:
    # at every trace record, dual bound - 1e-6 <= brute-force optimum <=
    # incumbent energy.  Full-suite budget: under 60 seconds.
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    cfg_base = dict(max_batches=4, batch_size=1, greedy_generations=1,
                    fusion_mode="exact")
    for trial in range(500):
        problem = random_problem(rng, max_nodes=5, max_labels=4, cost_range=9)
        optimum, _ = brute_force_optimum(problem)
        outcome = qf.solve(problem, qf.SolverConfig(seed=trial, **cfg_base))
        tol = 1e-9 * max(1.0, abs(optimum))
        for record in outcome.trace:
            assert record.dual_bound - 1e-6 <= optimum
            if record.best_energy is not None:
                assert optimum <= record.best_energy + tol
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, "exactness sandwich")


def test_criterion_2_dual_monotonicity():
    # 10,000 dual steps (one edge level, or the node or label phase) on
    # random states: the bound never decreases by more than 1e-7.
    rng = np.random.default_rng(1002)
    steps = 0
    while steps < 10_000:
        problem = random_problem(rng, max_nodes=4, max_labels=3)
        repar = random_reparametrization(problem, rng)
        bound = qf.dual_bound(problem, repar)

        def check():
            nonlocal bound, steps
            new = qf.dual_bound(problem, repar)
            assert new >= bound - 1e-7
            bound = new
            steps += 1

        for _ in range(3):  # several passes per state mixes step kinds
            for level in range(len(problem.batches)):
                qf.update_edge_messages(problem, repar, level)
                check()
            qf.update_node_messages(problem, repar)
            check()
            qf.update_label_messages(problem, repar)
            check()
    report(2, "dual monotonicity")


def test_criterion_3_fusion_monotonicity():
    # 1,000 random (feasible x1, arbitrary x2) pairs: both modes feasible
    # and monotone; exact mode equals restricted-space brute force, checked
    # up to 16 free variables.
    rng = np.random.default_rng(1003)
    for trial in range(1000):
        if trial % 100 == 0:
            # permutation proposals on a 16-node instance: all nodes free
            problem, x1, x2 = _large_fusion_pair(rng)
            oracle, _ = restricted_space_optimum_pruned(problem, x1, x2)
        else:
            problem = random_problem(rng, max_nodes=6)
            x1 = random_feasible_assignment(problem, rng)
            x2 = random_assignment(problem, rng)
            oracle, _ = restricted_space_optimum(problem, x1, x2)
        e1 = qf.energy(problem, x1)
        e2_feasible = qf.is_feasible(problem, x2)
        e2 = qf.energy(problem, x2)

        exact = qf.fuse(problem, x1, x2, mode="exact", rng=trial)
        assert qf.is_feasible(problem, exact)
        assert qf.energy(problem, exact) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

        approx = qf.fuse(problem, x1, x2, mode="qpbo-i", rng=trial)
        assert qf.is_feasible(problem, approx)
        for fused in (exact, approx):
            fused_energy = qf.energy(problem, fused)
            assert fused_energy <= e1 + 1e-9
            if e2_feasible:
                assert fused_energy <= e2 + 1e-9
    report(3, "fusion monotonicity")


def _large_fusion_pair(rng, n=16, num_labels=20):
    """16-node instance with two permutation proposals disagreeing on
    every node, so the exact fusion runs at its 16-variable limit."""
    candidates = [list(range(num_labels))] * n
    unary = [np.append(rng.integers(-9, 10, num_labels).astype(float), 0.0)
             for _ in range(n)]
    pairwise = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.25:
                pairwise[(u, v)] = rng.integers(-9, 10, (num_labels + 1,
                                                         num_labels + 1)).astype(float)
    problem = qf.Problem(n, num_labels, candidates, unary, pairwise)
    x1 = rng.permutation(num_labels)[:n].astype(np.int64)
    shift = np.roll(np.arange(num_labels), 1)
    x2 = shift[x1].astype(np.int64)  # derangement of x1: every node differs
    return problem, x1, x2


def test_criterion_4_qpbo_correctness():
    # 500 random 2-8 variable binary problems: labeled variables agree with
    # an enumerated optimal labeling; fully submodular cases are fully
    # labeled and exactly optimal.
    rng = np.random.default_rng(1004)
    from test_qpbo import agreeing_optimum_exists, random_binary_problem
    for trial in range(500):
        k = int(rng.integers(2, 9))
        unary, pairs, tables = random_binary_problem(
            rng, k, force_submodular=(trial % 2 == 0))
        result = qf.roof_duality(unary, pairs, tables)
        energies = enumerate_binary_energies(unary, pairs, tables)
        best = min(energies.values())
        assert result.flow_value <= best + 1e-9
        assert agreeing_optimum_exists(result.labels, energies)
        if all(t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1] >= 0 for t in tables):
            assert (result.labels >= 0).all()
            assert result.flow_value == pytest.approx(best, abs=1e-9)
            assert energies[tuple(result.labels)] == pytest.approx(best, abs=1e-9)
    report(4, "QPBO correctness")


def test_criterion_5_search_space_bound():
    # 200 random proposal pairs, |V| <= 6: enumerated feasible-solution
    # count of the auxiliary problem <= 2^m (|V|/n + 1)^n.
    rng = np.random.default_rng(1005)
    for _ in range(200):
        problem = random_problem(rng, max_nodes=6)
        x1 = random_feasible_assignment(problem, rng)
        x2 = random_assignment(problem, rng)
        _, count = restricted_space_optimum(problem, x1, x2)
        bound = qf.count_bound(problem, x2)
        assert bound is not None
        assert count <= bound
    report(5, "search-space bound")


def test_criterion_6_lap_exactness():
    # 200 random cost matrices, <= 7 nodes: solver value equals the
    # enumeration over all partial injections.
    rng = np.random.default_rng(1006)
    for _ in range(200):
        p, costs = random_lap_instance(rng, max_nodes=7)
        labels, value = qf.solve_lap(p, costs)
        assert value == pytest.approx(lap_optimum_by_enumeration(p, costs),
                                      rel=1e-9, abs=1e-9)
        used = [s for s in labels if s != qf.DUMMY]
        assert len(used) == len(set(used))
    report(6, "LAP exactness")


def _hotel_directory():
    env = os.environ.get("QAPFUSE_HOTEL_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).parent / "data" / "hotel")
    for path in candidates:
        if path.is_dir() and list(path.glob("*.dd")):
            return path
    return None


def test_criterion_7_hotel_reproduction():
    # Known optima on the public hotel instances: hotel1 (frame1-frame8)
    # -4570.58 +- 0.01 and hotel2 (frame1-frame15) -4498.03 +- 0.01 with a
    # 10 s budget; across all instances present, at least 100 of 105 reach
    # their optimum within 1 s each.  Skipped when the data is absent.
    directory = _hotel_directory()
    if directory is None:
        report(7, "hotel reproduction", "SKIPPED: data not present")
        pytest.skip(
            "hotel .dd instances not found: set QAPFUSE_HOTEL_DIR or place "
            "them under tests/data/hotel/ (see README)")

    named = {
        "energy_hotel_frame1frame8.dd": -4570.58,
        "energy_hotel_frame1frame15.dd": -4498.03,
    }
    for filename, optimum in named.items():
        path = directory / filename
        if not path.exists():
            continue
        with open(path) as handle:
            problem = qf.to_problem(qf.parse_dd(handle))
        outcome = qf.solve(problem, qf.SolverConfig(time_budget_seconds=10.0))
        assert outcome.best_energy == pytest.approx(optimum, abs=0.01)

    # Optima for the full set, when provided alongside the instances as a
    # two-column file "name energy".
    optima_file = directory / "optima.txt"
    if optima_file.exists():
        listed = {}
        for line in optima_file.read_text().splitlines():
            if line.strip():
                name, value = line.split()
                listed[name] = float(value)
        reached = 0
        total = 0
        for name, optimum in listed.items():
            path = directory / name
            if not path.exists():
                continue
            total += 1
            with open(path) as handle:
                problem = qf.to_problem(qf.parse_dd(handle))
            outcome = qf.solve(problem, qf.SolverConfig(time_budget_seconds=1.0))
            if abs(outcome.best_energy - optimum) <= 0.01:
                reached += 1
        if total >= 105:
            assert reached >= 100
    report(7, "hotel reproduction")


def test_criterion_8_determinism():
    # Identical seed/config on the same instance produce byte-identical
    # trace files.
    rng = np.random.default_rng(1008)
    for seed in range(5):
        problem = random_problem(rng, max_nodes=5, min_nodes=4)
        cfg = qf.SolverConfig(max_batches=6, seed=seed)
        buffers = []
        for _ in range(2):
            outcome = qf.solve(problem, cfg)
            buf = io.StringIO()
            qf.write_trace(outcome.trace, buf)
            buffers.append(buf.getvalue().encode())
        assert buffers[0] == buffers[1]
    report(8, "determinism")


def test_criterion_9_reparametrization_invariance():
    # 1,000 random (instance, messages, assignment) tuples: the three-term
    # decomposition reproduces the energy to 1e-9 relative.
    rng = np.random.default_rng(1009)
    from test_model import identity_total
    for _ in range(1000):
        problem = random_problem(rng, max_nodes=5, max_labels=4)
        repar = random_reparametrization(problem, rng)
        x = random_assignment(problem, rng)
        e = qf.energy(problem, x)
        assert identity_total(problem, repar, x) == pytest.approx(e, rel=1e-9, abs=1e-9)
    report(9, "reparametrization invariance")
