import numpy as np
import pytest
from hypothesis import given, settings, strategies

import qapfuse as qf
from helpers import (
    brute_force_optimum,
    candidates,
    greedy_by_loops,
    neighbors,
    pairwise_tables,
    random_problem,
    random_reparametrization,
    rebuild_message_sums,
    scaled_problem,
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


def test_node_skips_two_taken_labels():
    # Nodes 0 and 1 each want one label; node 2 prefers label 0, then 1,
    # then 2.  Visited last, it finds its two cheapest slots taken, so the
    # argmin runs three times; visited second after node 0, twice.
    p = qf.Problem(3, 3, [[0], [1], [0, 1, 2]],
                   [np.array([-10.0, 0.0]), np.array([-10.0, 0.0]),
                    np.array([-3.0, -2.0, -1.0, 0.0])])
    expected = {(0, 1, 2), (0, qf.DUMMY, 1), (qf.DUMMY, 1, 0)}
    for repar in (None, random_reparametrization(p, np.random.default_rng(5), scale=0.1)):
        outcomes = set()
        for seed in range(30):
            x = qf.greedy_assignment(p, seed, repar)
            assert np.array_equal(x, greedy_by_loops(p, seed, repar))
            outcomes.add(tuple(x.tolist()))
        assert outcomes == expected


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


def assert_matches_loops(p, rng, seeds=range(3), message_scale=3.0):
    """Greedy equals the plain-loop greedy on the original costs, after a
    few sweeps and on random messages."""
    st = qf.DualState.initial(p)
    for _ in range(3):
        qf.sweep(p, st)
    for repar in (None, st.repar, random_reparametrization(p, rng, scale=message_scale)):
        for seed in seeds:
            assert np.array_equal(qf.greedy_assignment(p, seed, repar),
                                  greedy_by_loops(p, seed, repar))


@pytest.mark.parametrize("scale", [2.0**-40, 2.0**40], ids=["2^-40", "2^40"])
def test_matches_loop_reference_at_extreme_scales(scale):
    rng = np.random.default_rng(92)
    for trial in range(20):
        p = random_problem(rng, max_nodes=9, max_labels=6, integer=trial % 2 == 0,
                           edge_prob=0.5)
        assert_matches_loops(scaled_problem(p, scale), rng, message_scale=3.0 * scale)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=strategies.integers(0, 2**32 - 1), k=strategies.integers(-40, 40),
       greedy_seed=strategies.integers(0, 2**16))
def test_labels_unchanged_when_costs_and_messages_scale_by_a_power_of_two(seed, k, greedy_seed):
    # Scaling every cost, and every message of a dual state after three
    # sweeps, by 2^k scales every score exactly, so every argmin stays.
    rng = np.random.default_rng(seed)
    p = random_problem(rng, max_nodes=8, max_labels=5, integer=seed % 2 == 0, edge_prob=0.5)
    q = scaled_problem(p, 2.0**k)
    state = qf.DualState.initial(p)
    for _ in range(3):
        qf.sweep(p, state)
    scaled = qf.Reparametrization(q)
    for name in ("edge_flat", "label_flat", "msg_sums"):
        getattr(scaled, name)[:] = getattr(state.repar, name) * 2.0**k
    assert np.array_equal(qf.greedy_assignment(q, greedy_seed),
                          qf.greedy_assignment(p, greedy_seed))
    assert np.array_equal(qf.greedy_assignment(q, greedy_seed, scaled),
                          qf.greedy_assignment(p, greedy_seed, state.repar))


def mixed_magnitudes(rng, shape):
    """Costs from {-2^53, 2^53, -3, ..., 3}: a sum of them depends on the
    order of its terms."""
    return rng.choice([-2.0**53, 2.0**53, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], size=shape)


def test_hub_sums_its_neighbours_in_assignment_order():
    # Node 0 neighbours every other node, and its tables mix magnitudes so
    # that adding its neighbours' columns in another order, such as
    # ascending node order, picks other labels; nodes 1..9 also form a path.
    rng = np.random.default_rng(93)
    n, labels = 10, 6
    for _ in range(20):
        cand = [sorted(rng.choice(labels, size=int(rng.integers(2, labels + 1)),
                                  replace=False).tolist()) for _ in range(n)]
        shape = [len(c) + 1 for c in cand]
        edges = [(0, v) for v in range(1, n)] + [(v, v + 1) for v in range(1, n - 1)]
        p = qf.Problem(n, labels, cand, [mixed_magnitudes(rng, k) for k in shape],
                       {(u, v): mixed_magnitudes(rng, (shape[u], shape[v])) for u, v in edges})
        assert len(neighbors(p)[0]) >= 8
        assert_matches_loops(p, rng, seeds=range(10))


def test_node_left_only_its_costly_dummy():
    # Four nodes want the same two labels, and their dummies cost far
    # more than any label: the two visited last must still take the dummy.
    rng = np.random.default_rng(94)
    for _ in range(10):
        unary = [np.append(rng.integers(-9, 0, size=2).astype(float), 1e6) for _ in range(4)]
        tables = {(u, v): rng.integers(-3, 4, size=(3, 3)).astype(float)
                  for u in range(4) for v in range(u + 1, 4) if rng.random() < 0.7}
        p = qf.Problem(4, 2, [[0, 1]] * 4, unary, tables)
        for seed in range(10):
            x = qf.greedy_assignment(p, seed)
            assert sorted(x.tolist()) == [qf.DUMMY, qf.DUMMY, 0, 1]
        assert_matches_loops(p, rng)


def test_ties_between_signed_zeros():
    # Every cost is -0.0, 0.0 or 1.0, so totals tie between zeros of both
    # signs; the first minimum wins whatever the signs.
    rng = np.random.default_rng(95)
    for _ in range(30):
        p = random_problem(rng, max_nodes=8, max_labels=5, edge_prob=0.5)
        n = p.num_nodes
        p = qf.Problem(n, p.num_labels, [candidates(p, u) for u in range(n)],
                       [rng.choice([-0.0, 0.0, 1.0], size=len(candidates(p, u)) + 1)
                        for u in range(n)],
                       {(u, v): rng.choice([-0.0, 0.0, 1.0], size=table.shape)
                        for (u, v), table in pairwise_tables(p).items()})
        assert_matches_loops(p, rng, message_scale=0.0)


def test_pushed_cells_add_the_lower_endpoints_message_first():
    # Edge (0, 1) carries message 2^53 on node 0's label and [1, -3] on
    # node 1's slots.  Node 0 takes label 0 whenever it goes first, and
    # then node 1's totals are -4 + ((1 + 2^53) + 1) = 2^53 - 4 for label 1
    # and 3 + ((-3 + 2^53) - 3) = 2^53 - 3 for the dummy: label 1 wins.
    # Adding node 1's message first would give 2^53 - 2 against 2^53 - 3.
    # Visited first, node 1 takes label 1 as well (-4 against 3).
    p = qf.Problem(2, 2, [[0], [1]], [np.zeros(2), np.zeros(2)],
                   {(0, 1): np.array([[1.0, -3.0], [0.0, 0.0]])})
    r = qf.Reparametrization(p)
    (mu, mv), = p.msg_start
    r.edge_flat[mu:mu + 2] = [2.0**53, 0.0]
    r.edge_flat[mv:mv + 2] = [1.0, -3.0]
    r.label_flat[p.offsets[1]] = -3.0
    rebuild_message_sums(p, r)
    firsts = set()
    for seed in range(10):
        x = qf.greedy_assignment(p, seed, r)
        assert x.tolist() == [0, 1]
        assert np.array_equal(greedy_by_loops(p, seed, r), x)
        firsts.add(int(np.random.default_rng(seed).integers(2)))
    assert firsts == {0, 1}  # both visit orders occur
