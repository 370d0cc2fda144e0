import numpy as np
import pytest
from hypothesis import given, settings, strategies

import qapfuse as qf
from helpers import (
    assignment_cost,
    brute_force_optimum,
    candidates,
    edge_message,
    edge_table,
    label_message,
    label_owners,
    matching_cost,
    message_sum,
    neighbors,
    pairwise_tables,
    random_problem,
    random_reparametrization,
    scaled_problem,
    signed_zero_copy,
    unary_costs,
)


def aligned_chain_problem():
    """Chain 0-1-2, three labels, node i prefers label i, pairwise rewards
    the aligned combination.  Unique optimum (0, 1, 2) at energy -13; the
    relaxation is tight here and the bound reaches it within two sweeps."""
    cand = [[0, 1, 2]] * 3
    unary = [np.array([-3.0, 1.0, 1.0, 0.0]),
             np.array([1.0, -3.0, 1.0, 0.0]),
             np.array([1.0, 1.0, -3.0, 0.0])]
    t01 = np.zeros((4, 4))
    t01[0, 1] = -2.0
    t01[1, 0] = 1.0
    t12 = np.zeros((4, 4))
    t12[1, 2] = -2.0
    t12[2, 1] = 1.0
    return qf.Problem(3, 3, cand, unary, {(0, 1): t01, (1, 2): t12})


class TestDualBound:
    def test_single_node_tight(self):
        p = qf.Problem(1, 1, [[0]], [np.array([-1.0, 0.0])])
        r = qf.Reparametrization(p)
        # matching side min(-0.5, 0) plus label term min(0, -0.5)
        assert qf.dual_bound(p, r) == pytest.approx(-1.0)
        opt, _ = brute_force_optimum(p)
        assert opt == -1.0

    def test_edge_free_formula(self):
        # With no edges and zero dummy costs the zero-message bound is the
        # sum of per-node halved-unary minima plus per-label clipped minima.
        rng = np.random.default_rng(14)
        for _ in range(20):
            p = random_problem(rng, max_nodes=5, min_nodes=2, edge_prob=0.0,
                               dummy_cost=0.0)
            r = qf.Reparametrization(p)
            expected = sum(min(unary_costs(p, u)) / 2.0 for u in range(p.num_nodes))
            for s, owners in label_owners(p).items():
                expected += min(0.0, min(unary_costs(p, u)[i] / 2.0 for u, i in owners))
            assert qf.dual_bound(p, r) == pytest.approx(expected)

    def test_weak_duality_on_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p = random_problem(rng, max_nodes=4, max_labels=3)
            r = random_reparametrization(p, rng)
            opt, _ = brute_force_optimum(p)
            assert qf.dual_bound(p, r) <= opt + 1e-9 * max(1.0, abs(opt))

class TestEdgeUpdate:
    def test_zero_edge_is_fixed_point(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([0.0, 0.0])] * 2,
                       {(0, 1): np.zeros((2, 2))})
        r = qf.Reparametrization(p)
        assert len(p.batches) == 1 and len(p.batches[0]) == 1
        qf.update_edge_messages(p, r, 0)
        assert np.allclose(edge_message(p, r, 0, 1), 0.0)
        assert np.allclose(edge_message(p, r, 1, 0), 0.0)

    def test_two_node_bound_matches_enumeration(self):
        # Identity-style pairwise on two nodes: a single edge update makes
        # the bound equal to the exhaustively enumerated optimum.
        cand = [[0, 1]] * 2
        unary = [np.zeros(3), np.zeros(3)]
        table = np.zeros((3, 3))
        table[0, 0] = 1.0
        table[1, 1] = 1.0
        p = qf.Problem(2, 2, cand, unary, {(0, 1): table})
        opt, _ = brute_force_optimum(p)
        r = qf.Reparametrization(p)
        qf.update_edge_messages(p, r, 0)
        assert qf.dual_bound(p, r) == pytest.approx(opt, abs=1e-9)

    def test_second_application_leaves_bound_unchanged(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            p = random_problem(rng, max_nodes=4, min_nodes=2, edge_prob=1.0)
            if not p.edges:
                continue
            r = random_reparametrization(p, rng)
            level = int(rng.integers(len(p.batches)))
            qf.update_edge_messages(p, r, level)
            first = qf.dual_bound(p, r)
            qf.update_edge_messages(p, r, level)
            second = qf.dual_bound(p, r)
            assert second == pytest.approx(first, abs=1e-9)


class TestNodeUpdate:
    def test_midpoint_arithmetic(self):
        # Matching-side values (4, 10, 6): two smallest are 4 and 6, so the
        # real labels settle at their midpoint 5; the dummy keeps 6.
        p = qf.Problem(1, 2, [[0, 1]], [np.array([8.0, 20.0, 6.0])])
        r = qf.Reparametrization(p)
        values = matching_cost(p, r, 0)
        np.testing.assert_allclose(values, [4.0, 10.0, 6.0])
        before = qf.dual_bound(p, r)
        qf.update_node_messages(p, r)
        after = matching_cost(p, r, 0)
        np.testing.assert_allclose(after, [5.0, 5.0, 6.0])
        assert qf.dual_bound(p, r) >= before - 1e-12

    def test_all_equal_is_noop(self):
        p = qf.Problem(1, 2, [[0, 1]], [np.array([6.0, 6.0, 3.0])])
        r = qf.Reparametrization(p)
        r.label_flat[:2] = [0.0, 0.0]
        base = matching_cost(p, r, 0)
        # make all three entries equal by shifting the label messages
        r.label_flat[:2] = [3.0 - base[0], 3.0 - base[1]]
        qf.update_node_messages(p, r)
        np.testing.assert_allclose(matching_cost(p, r, 0), [3.0, 3.0, 3.0])

    def test_equalizes_real_labels(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            p = random_problem(rng, max_nodes=4)
            r = random_reparametrization(p, rng)
            qf.update_node_messages(p, r)
            for u in range(p.num_nodes):
                k = len(candidates(p, u))
                if k:
                    values = matching_cost(p, r, u)[:k]
                    assert np.ptp(values) <= 1e-9


class TestLabelUpdate:
    def test_single_owner_splits_with_dummy(self):
        # Assignment-side value -4 against the zero dummy node: both end at
        # the midpoint -2.
        p = qf.Problem(1, 1, [[0]], [np.array([-8.0, 0.0])])
        r = qf.Reparametrization(p)
        assert assignment_cost(p, r, 0)[0] == pytest.approx(-4.0)
        qf.update_label_messages(p, r)
        assert assignment_cost(p, r, 0)[0] == pytest.approx(-2.0)

    def test_dummy_minimal_case(self):
        # All assignment-side values positive: the dummy node is minimal,
        # owners settle at half the cheapest owner value.
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([6.0, 0.0]), np.array([14.0, 0.0])])
        r = qf.Reparametrization(p)
        qf.update_label_messages(p, r)
        assert assignment_cost(p, r, 0)[0] == pytest.approx(1.5)
        assert assignment_cost(p, r, 1)[0] == pytest.approx(1.5)

    def test_unowned_label_is_noop(self):
        # Label 1 has no owner: adding it to the pool changes nothing, and
        # with no owned label at all the update leaves the state alone.
        p = qf.Problem(1, 2, [[0]], [np.array([-3.0, 1.0])])
        q = qf.Problem(1, 1, [[0]], [np.array([-3.0, 1.0])])
        r, t = qf.Reparametrization(p), qf.Reparametrization(q)
        qf.update_label_messages(p, r)
        qf.update_label_messages(q, t)
        assert np.array_equal(label_message(p, r, 0), label_message(q, t, 0))
        assert qf.dual_bound(p, r) == qf.dual_bound(q, t)
        empty = qf.Problem(1, 2, [[]], [np.array([1.0])])
        r = qf.Reparametrization(empty)
        before = qf.dual_bound(empty, r)
        qf.update_label_messages(empty, r)
        assert qf.dual_bound(empty, r) == before
        assert np.array_equal(label_message(empty, r, 0), [0.5])

    def test_equalizes_owners(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            p = random_problem(rng, max_nodes=4)
            r = random_reparametrization(p, rng)
            qf.update_label_messages(p, r)
            for owners in label_owners(p).values():
                values = [assignment_cost(p, r, u)[i] for u, i in owners]
                assert np.ptp(values) <= 1e-9


class TestMonotonicity:
    def test_thousand_random_states_per_step_kind(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 1000:
            p = random_problem(rng, max_nodes=4, max_labels=3)
            r = random_reparametrization(p, rng)
            bound = qf.dual_bound(p, r)

            def step(update, *args):
                nonlocal bound, checked
                update(p, r, *args)
                new = qf.dual_bound(p, r)
                assert new >= bound - 1e-7
                bound = new
                checked += 1

            for level in range(len(p.batches)):
                step(qf.update_edge_messages, level)
            step(qf.update_node_messages)
            step(qf.update_label_messages)


class TestSweep:
    def test_no_edges_two_node_toy_tight_after_one_sweep(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([-5.0, 0.0]), np.array([-3.0, 0.0])])
        opt, _ = brute_force_optimum(p)
        assert opt == -5.0
        st = qf.DualState.initial(p)
        qf.sweep(p, st)
        assert st.dual_bound == pytest.approx(opt, abs=1e-9)

    def test_tree_tight_after_two_sweeps(self):
        p = aligned_chain_problem()
        opt, _ = brute_force_optimum(p)
        st = qf.DualState.initial(p)
        qf.sweep(p, st)
        qf.sweep(p, st)
        assert st.dual_bound == pytest.approx(opt, abs=1e-7)

    def test_between_runs_once_after_the_edge_phase(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, max_nodes=4, min_nodes=3, edge_prob=1.0)
        after_edges = qf.Reparametrization(p)
        for level in range(len(p.batches)):
            qf.update_edge_messages(p, after_edges, level)
        st = qf.DualState.initial(p)
        seen = []
        qf.sweep(p, st, lambda: seen.append(
            (st.repar.edge_flat.copy(), st.repar.label_flat.copy(), st.sweep_counter)))
        assert len(seen) == 1
        edge_msgs, label_msgs, counter = seen[0]
        # every edge level has run, the node/label phase has not
        assert np.any(edge_msgs != 0.0)
        assert np.array_equal(edge_msgs, after_edges.edge_flat)
        assert np.array_equal(label_msgs, after_edges.label_flat)
        assert not np.array_equal(st.repar.label_flat, label_msgs)
        assert counter == 0 and st.sweep_counter == 1

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e12])
    def test_real_drop_raises_at_any_scale(self, scale):
        # The chain is tight after two sweeps, so a third gains nothing and
        # the planted excess of 1e-6 of the cost scale is a real drop.
        p = scaled_problem(aligned_chain_problem(), scale)
        st = qf.DualState.initial(p)
        qf.sweep(p, st)
        qf.sweep(p, st)
        st.dual_bound += 1e-6 * p.cost_scale
        with pytest.raises(RuntimeError, match="decreased across sweep 3"):
            qf.sweep(p, st)

    def test_bound_monotone_across_sweeps(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            p = random_problem(rng, max_nodes=5)
            st = qf.DualState.initial(p)
            previous = st.dual_bound
            for _ in range(8):
                qf.sweep(p, st)
                assert st.dual_bound >= previous - 1e-7
                previous = st.dual_bound

    def test_invariance_identity_after_many_steps(self):
        from test_model import identity_total
        from helpers import random_assignment
        rng = np.random.default_rng(62)
        for _ in range(20):
            p = random_problem(rng, max_nodes=5)
            st = qf.DualState.initial(p)
            for _ in range(5):
                qf.sweep(p, st)
            x = random_assignment(p, rng)
            e = qf.energy(p, x)
            assert identity_total(p, st.repar, x) == pytest.approx(e, rel=1e-9, abs=1e-9)


def spy_on_bound(monkeypatch):
    """Record every call that :mod:`qapfuse.dualbca` makes to its dual_bound:
    the fallback of :func:`qapfuse.sweep` and :meth:`DualState.initial`."""
    calls, real = [], qf.dualbca.dual_bound
    monkeypatch.setattr(qf.dualbca, "dual_bound", lambda *args: calls.append(1) or real(*args))
    return calls


def bound_case(rng, k):
    """A random problem and a random dual state, every cost and message
    scaled by 2^k.  The problem is small and dense or larger and sparse,
    its costs mostly real, else small integers, a tenth of them -0.0.  A
    third of the problems have their unaries shifted down by 2 to 4 cost
    ranges: a sum of node minima far from 0 lets the sweep skip the edge
    minima, while the unshifted real-cost ones put rounding residues in
    reach of the sum."""
    integer, large, shifted = rng.random(3) < (1 / 3, 1 / 2, 1 / 3)
    spread = 2 if integer else 9
    p = random_problem(rng, max_nodes=40 if large else 12, min_nodes=13 if large else 1,
                       max_labels=5, edge_prob=0.08 if large else 0.5, integer=integer,
                       cost_range=spread)
    shift, n = spread * int(rng.integers(2, 5)) * shifted, p.num_nodes
    p = qf.Problem(n, p.num_labels, [candidates(p, u) for u in range(n)],
                   [np.array(unary_costs(p, u)) - shift for u in range(n)], pairwise_tables(p))
    p = scaled_problem(signed_zero_copy(p, rng, share=0.1), 2.0**k)
    return p, qf.DualState(random_reparametrization(p, rng, scale=3.0 * 2.0**k), -np.inf)


def assert_bounds_are_fresh(problem, state, sweeps=4):
    for _ in range(sweeps):
        qf.sweep(problem, state)
        assert state.dual_bound.hex() == qf.dual_bound(problem, state.repar).hex()


class TestSweepBound:
    """A sweep records the bound that :func:`qapfuse.dual_bound` computes
    afresh, bit for bit, whether it skips the edge minima or not."""

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40, 2.0**40], ids=["1", "2^-40", "2^40"])
    def test_sweeps_bound_is_bitwise_a_fresh_bound(self, scale):
        rng = np.random.default_rng(22)
        for trial in range(60):
            p = scaled_problem(random_problem(rng, max_nodes=7, max_labels=5, edge_prob=0.6,
                                              integer=trial % 2 == 0), scale)
            assert_bounds_are_fresh(p, qf.DualState(
                random_reparametrization(p, rng, scale=3.0 * scale), -np.inf))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=strategies.integers(0, 2**32 - 1), k=strategies.integers(-40, 40))
    def test_property_at_power_of_two_scales(self, seed, k):
        assert_bounds_are_fresh(*bound_case(np.random.default_rng(seed), k))

    def test_skip_and_fallback_both_run(self, monkeypatch):
        calls, rng, sweeps = spy_on_bound(monkeypatch), np.random.default_rng(23), 0
        for _ in range(100):
            p, st = bound_case(rng, int(rng.integers(-40, 41)))
            assert_bounds_are_fresh(p, st)
            sweeps += 4
        fallbacks = len(calls)
        assert sweeps / 20 < sweeps - fallbacks and sweeps / 2 < fallbacks, (fallbacks, sweeps)

    def test_zero_node_sum_falls_back(self, monkeypatch):
        p = qf.Problem(3, 2, [[0, 1], [0], [1]], [np.zeros(3), np.zeros(2), np.zeros(2)],
                       {(0, 1): np.zeros((3, 2)), (1, 2): np.zeros((2, 2))})
        st = qf.DualState.initial(p)
        calls = spy_on_bound(monkeypatch)
        assert_bounds_are_fresh(p, st, sweeps=1)
        assert len(calls) == 1 and st.dual_bound == 0.0

    def test_tables_that_dwarf_the_node_sum_fall_back(self, monkeypatch):
        # The node minima sum to about 1, a quarter ulp of which is far
        # below the rounding allowance of 2^40-sized tables.
        big = 2.0**40
        p = qf.Problem(2, 1, [[0], [0]], [np.array([1.0, 0.5]), np.array([-3.0, 0.25])],
                       {(0, 1): np.array([[big, 0.1], [0.3, big]])})
        st = qf.DualState.initial(p)
        calls = spy_on_bound(monkeypatch)
        assert_bounds_are_fresh(p, st, sweeps=1)
        node_min = np.minimum.reduceat(qf.model.matching_side(p, st.repar), p.offsets[:-1])
        assert len(calls) == 1 and 0.0 < abs(node_min.sum()) < 16.0


def assert_sweeps_match_reference(problem, state, sweeps=4):
    """Sweep the library and the reference side by side; bounds, edge
    messages, label messages and message sums must agree bit for bit."""
    ref = ReferenceAscent(problem, state.repar)
    for _ in range(sweeps):
        qf.sweep(problem, state)
        ref.sweep()
        assert state.dual_bound == ref.bound()
        for (u, v), msg in ref.edge.items():
            assert edge_message(problem, state.repar, u, v).tobytes() == msg.tobytes()
        for u in range(problem.num_nodes):
            assert label_message(problem, state.repar, u).tobytes() == ref.label[u].tobytes()
            assert message_sum(problem, state.repar, u).tobytes() == ref.sums[u].tobytes()


class ReferenceAscent:
    """Edge-by-edge ascent written out from the update formulas, on plain
    dicts and lists read once from the problem and the starting state:
    edges in lexicographic order, then each node, then each label, each
    term of the bound added one at a time."""

    def __init__(self, problem, repar):
        self.p = problem
        self.costs = [np.array(unary_costs(problem, u)) for u in range(problem.num_nodes)]
        self.tables = {edge: edge_table(problem, e) for e, edge in enumerate(problem.edges)}
        self.owners = label_owners(problem)
        self.edge = {}
        for u, v in problem.edges:
            self.edge[(u, v)] = edge_message(problem, repar, u, v)
            self.edge[(v, u)] = edge_message(problem, repar, v, u)
        self.label = [label_message(problem, repar, u) for u in range(problem.num_nodes)]
        self.sums = [message_sum(problem, repar, u) for u in range(problem.num_nodes)]

    def unary(self, u):
        return self.costs[u] / 2.0 + self.label[u] - self.sums[u]

    def assignment(self, u):
        return self.costs[u] / 2.0 - self.label[u]

    def set_edge(self, u, v, values):
        self.sums[u] += values - self.edge[(u, v)]
        self.edge[(u, v)] = values

    def sweep(self):
        p = self.p
        for u, v in p.edges:
            table = self.tables[(u, v)]
            msg_u = self.edge[(u, v)] + self.unary(u)
            msg_v = self.edge[(v, u)] + self.unary(v)
            adjusted = table + msg_u[:, None] + msg_v[None, :]
            msg_u = msg_u - 0.5 * adjusted.min(axis=1)
            msg_v = -(table + msg_u[:, None]).min(axis=0)
            adjusted = table + msg_u[:, None] + msg_v[None, :]
            msg_u = msg_u - adjusted.min(axis=1)
            self.set_edge(u, v, msg_u)
            self.set_edge(v, u, msg_v)
        for u in range(p.num_nodes):
            k = self.costs[u].size - 1
            if k:
                values = self.unary(u)
                m1, m2 = sorted(values.tolist())[:2]
                self.label[u][:k] += (m1 + m2) / 2.0 - values[:k]
        for s, owners in sorted(self.owners.items()):
            values = [self.assignment(u)[i] for u, i in owners]
            m1, m2 = sorted(values + [0.0])[:2]
            for (u, i), value in zip(owners, values):
                self.label[u][i] += value - (m1 + m2) / 2.0

    def bound(self):
        p = self.p
        total = 0.0
        for u in range(p.num_nodes):
            total += float(self.unary(u).min())
        for u, v in p.edges:
            table = self.tables[(u, v)] + self.edge[(u, v)][:, None] + self.edge[(v, u)][None, :]
            total += float(table.min())
        labels = 0.0
        for owners in self.owners.values():
            best = 0.0
            for u, i in owners:
                best = min(best, self.assignment(u)[i])
            labels += best
        return total + labels


class TestLevelScheduledSweep:
    def test_levels_are_node_disjoint_and_respect_edge_order(self):
        # Each batch entry's edges are found by their u-side message block;
        # the entry's tables, endpoint slot indices and v-side blocks must
        # be theirs.
        rng = np.random.default_rng(70)
        for _ in range(30):
            p = random_problem(rng, max_nodes=9, edge_prob=0.5)
            by_block = {int(mu): e for e, (mu, _) in enumerate(p.msg_start)}
            levels = []
            for batch in p.batches:
                level = []
                for table, iu, iv, mu, mv in batch:
                    g, a, b = table.shape
                    assert table.transpose(2, 0, 1).flags.c_contiguous
                    assert np.shares_memory(table, p.table_buffer)
                    run = [by_block[mu + a * i] for i in range(g)]
                    assert run == sorted(run)
                    for i, e in enumerate(run):
                        u, v = p.edges[e]
                        assert np.array_equal(table[i], edge_table(p, e))
                        assert np.array_equal(iu[i], np.arange(p.offsets[u], p.offsets[u + 1]))
                        assert np.array_equal(iv[i], np.arange(p.offsets[v], p.offsets[v + 1]))
                        assert p.msg_start[e][1] == mv + b * i
                    level += [p.edges[e] for e in run]
                levels.append(level)
            assert sorted(e for level in levels for e in level) == p.edges
            level_of = {e: i for i, level in enumerate(levels) for e in level}
            for level in levels:
                ends = [w for e in level for w in e]
                assert len(ends) == len(set(ends))
            for j, (u, v) in enumerate(p.edges):
                earlier = [level_of[e] for e in p.edges[:j] if {u, v} & set(e)]
                assert level_of[(u, v)] == 1 + max(earlier, default=-1)

    def test_sweep_equals_edge_by_edge_reference_exactly(self):
        rng = np.random.default_rng(71)
        seen = dict.fromkeys(["mixed shapes", "no candidates", "isolated node",
                              "no edges", "unowned label"], 0)
        for trial in range(80):
            p = random_problem(rng, max_nodes=10, max_labels=5, integer=False,
                               edge_prob=0.0 if trial % 8 == 0 else 0.6)
            size = [len(candidates(p, u)) for u in range(p.num_nodes)]
            seen["mixed shapes"] += any(len(batch) > 1 for batch in p.batches)
            seen["no candidates"] += 0 in size
            seen["isolated node"] += any(not nb for nb in neighbors(p))
            seen["no edges"] += not p.edges
            seen["unowned label"] += len(label_owners(p)) < p.num_labels
            if trial % 2:
                st = qf.DualState(random_reparametrization(p, rng), -np.inf)
            else:
                st = qf.DualState.initial(p)
            assert_sweeps_match_reference(p, st)
        assert all(seen.values()), seen

    def test_sweep_equals_reference_on_ties_and_signed_zeros(self):
        # Small integer costs tie exactly, and the ascent's halvings keep
        # them exact; a share of the cells is -0.0.  Messages must match
        # the reference bit for bit, signs of zeros included.
        rng = np.random.default_rng(72)
        seen = dict.fromkeys(["single-row tables", "single-column tables", "one-table runs"], 0)
        for _ in range(60):
            p = signed_zero_copy(random_problem(rng, max_nodes=8, max_labels=4, cost_range=2), rng)
            shapes = [table.shape for batch in p.batches for table, *_ in batch]
            seen["single-row tables"] += any(a == 1 for _, a, _ in shapes)
            seen["single-column tables"] += any(b == 1 for _, _, b in shapes)
            seen["one-table runs"] += any(g == 1 for g, _, _ in shapes)
            assert_sweeps_match_reference(p, qf.DualState.initial(p))
        assert all(seen.values()), seen
