import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    brute_force_optimum,
    candidates,
    greedy_by_loops,
    neighbors,
    random_problem,
    random_reparametrization,
)

from test_dualbca import aligned_chain_problem


def test_single_node_unique_argmin():
    p = qf.Problem(1, 1, [[0]], [np.array([-1.0, 0.0])])
    x = qf.greedy_assignment(p, 0)
    assert np.array_equal(x, [0])


def test_shared_label_forces_one_dummy():
    # Two isolated nodes share the only label; exactly one can take it.
    p = qf.Problem(2, 1, [[0], [0]],
                   [np.array([-1.0, 0.0]), np.array([-1.0, 0.0])])
    winners = set()
    for seed in range(20):
        x = qf.greedy_assignment(p, seed)
        assert qf.is_feasible(p, x)
        assert sorted(x) == [qf.DUMMY, 0]
        winners.add(int(np.argmax(x == 0)))
    assert winners == {0, 1}  # the seed decides who wins


def test_feasible_and_never_below_optimum():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = random_problem(rng, max_nodes=5, min_nodes=5)
        opt, _ = brute_force_optimum(p)
        best = np.inf
        for seed in range(1000):
            x = qf.greedy_assignment(p, seed)
            assert qf.is_feasible(p, x)
            best = min(best, qf.energy(p, x))
        assert best >= opt - 1e-9


def test_deterministic_given_seed():
    rng = np.random.default_rng(8)
    p = random_problem(rng, max_nodes=6, min_nodes=4)
    r = qf.Reparametrization(p)
    for seed in (0, 1, 1234):
        a = qf.greedy_assignment(p, seed)
        b = qf.greedy_assignment(p, seed)
        assert np.array_equal(a, b)
        c = qf.greedy_assignment(p, seed, r)
        d = qf.greedy_assignment(p, seed, r)
        assert np.array_equal(c, d)


def test_zero_messages_match_original_when_costs_scale_cleanly():
    # With no pairwise costs and zero dummy costs, halving the unaries
    # preserves every argmin, so the zero-message reparametrized costs pick
    # exactly what the original costs pick.
    rng = np.random.default_rng(90)
    for _ in range(20):
        p = random_problem(rng, max_nodes=6, min_nodes=2, edge_prob=0.0,
                           dummy_cost=0.0)
        r = qf.Reparametrization(p)
        for seed in range(10):
            a = qf.greedy_assignment(p, seed)
            b = qf.greedy_assignment(p, seed, r)
            assert np.array_equal(a, b)


def test_dummy_loses_ties_and_low_label_wins():
    p = qf.Problem(1, 3, [[0, 1, 2]], [np.array([0.0, 0.0, 1.0, 0.0])])
    x = qf.greedy_assignment(p, 0)
    assert x[0] == 0  # labels 0, 1 and dummy tie at 0; lowest real label wins


def test_reparametrized_proposals_always_feasible():
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_problem(rng, max_nodes=6)
        st = qf.DualState.initial(p)
        qf.sweep(p, st)
        for seed in range(10):
            x = qf.greedy_assignment(p, seed, st.repar)
            assert qf.is_feasible(p, x)


def test_converged_duals_make_greedy_exact():
    # After running the ascent to a fixed point on an instance with a
    # unique optimum and a tight bound, greedy recovers the optimum for
    # every seed.
    p = aligned_chain_problem()
    opt, xopt = brute_force_optimum(p)
    st = qf.DualState.initial(p)
    for _ in range(50):
        qf.sweep(p, st)
    assert st.dual_bound == pytest.approx(opt, abs=1e-7)
    for seed in range(100):
        x = qf.greedy_assignment(p, seed, st.repar)
        assert np.array_equal(x, xopt)


def test_frontier_discipline():
    # Candidates 0..n-1 at unary cost label - n, a free dummy and zero tables
    # on a random graph's edges: each visited node takes the lowest label not
    # yet used, so the labels are the visit order.  Replay: every visited
    # node after the first must touch the already visited set whenever any
    # unvisited node does.
    rng = np.random.default_rng(70)
    for _ in range(20):
        graph = random_problem(rng, max_nodes=7, min_nodes=4, edge_prob=0.5)
        n = graph.num_nodes
        p = qf.Problem(n, n, [range(n)] * n, [np.append(np.arange(n) - n, 0.0)] * n,
                       {edge: np.zeros((n + 1, n + 1)) for edge in graph.edges})
        x = qf.greedy_assignment(p, 3)
        assert sorted(x) == list(range(n))
        nbrs = neighbors(p)
        seen = set()
        for u in np.argsort(x):
            if seen:
                frontier = {w for v in seen for w in nbrs[v]} - seen
                if frontier:
                    assert u in frontier
            seen.add(u)


def test_matches_loop_reference():
    # Exact equality with the plain-loop greedy of the helpers, on the
    # original costs, after a few sweeps and on random messages, over
    # shapes that empty the frontier mid-run: isolated nodes, disconnected
    # parts, no edges at all, and nodes without candidates.
    rng = np.random.default_rng(91)
    seen = dict.fromkeys(["no candidates", "isolated node", "no edges", "disconnected"], 0)
    for trial in range(80):
        p = random_problem(rng, max_nodes=10, max_labels=6, integer=trial % 2 == 0,
                           edge_prob=[0.0, 0.15, 0.4, 0.8][trial % 4])
        nbrs = neighbors(p)
        reached, stack = {0}, [0]
        while stack:
            for v in nbrs[stack.pop()]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        seen["no candidates"] += any(not candidates(p, u) for u in range(p.num_nodes))
        seen["isolated node"] += any(not nb for nb in nbrs)
        seen["no edges"] += not p.edges
        seen["disconnected"] += bool(p.edges) and len(reached) < p.num_nodes

        st = qf.DualState.initial(p)
        for _ in range(3):
            qf.sweep(p, st)
        for repar in (None, st.repar, random_reparametrization(p, rng)):
            for seed in range(3):
                assert np.array_equal(qf.greedy_assignment(p, seed, repar),
                                      greedy_by_loops(p, seed, repar))
    assert all(seen.values()), seen
