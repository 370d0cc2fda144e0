import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    energy_by_resummation,
    feasible_by_pairwise_scan,
    random_assignment,
    random_problem,
    random_reparametrization,
)


def identity_total(problem, repar, x):
    """Three-term decomposition that must reproduce the plain energy."""
    total = 0.0
    for u in range(problem.num_nodes):
        total += qf.reparametrized_unary(problem, repar, u, int(x[u]))
        total += qf.lap_unary(problem, repar, u, int(x[u]))
    for u, v in problem.edges:
        total += qf.reparametrized_pairwise(problem, repar, u, v, int(x[u]), int(x[v]))
    return total


class TestEnergy:
    def test_all_dummy_zero_costs(self):
        p = qf.Problem(2, 2, [[0], [1]],
                       [np.array([3.0, 0.0]), np.array([-1.0, 0.0])],
                       {(0, 1): np.zeros((2, 2))})
        assert qf.energy(p, qf.all_dummy(p)) == 0.0

    def test_single_node_single_term(self):
        p = qf.Problem(1, 1, [[0]], [np.array([-3.5, 0.0])])
        assert qf.energy(p, np.array([0])) == -3.5

    def test_matches_resummation_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_problem(rng, max_nodes=4, max_labels=3, min_nodes=2)
            x = random_assignment(p, rng)
            assert qf.energy(p, x) == pytest.approx(
                energy_by_resummation(p, x), rel=1e-12, abs=1e-12)

    def test_edge_removal_is_additive(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            p = random_problem(rng, max_nodes=5, min_nodes=2, edge_prob=0.9)
            if not p.edges:
                continue
            x = random_assignment(p, rng)
            u, v = p.edges[0]
            term = p.pairwise[(u, v)][p.local_index(u, x[u]), p.local_index(v, x[v])]
            reduced = {e: t for e, t in p.pairwise.items() if e != (u, v)}
            p2 = qf.Problem(p.num_nodes, p.num_labels,
                            [list(c) for c in p.candidate_labels],
                            [c.copy() for c in p.unary], reduced)
            assert qf.energy(p, x) - qf.energy(p2, x) == pytest.approx(term, abs=1e-12)

    def test_equals_resummation_exactly_on_varied_shapes(self):
        # Unary terms in node order, then pairwise terms in edge order.
        rng = np.random.default_rng(102)
        for _ in range(100):
            p = random_problem(rng, max_nodes=8, max_labels=5, integer=False)
            x = random_assignment(p, rng)
            assert qf.energy(p, x) == energy_by_resummation(p, x)

    def test_domain_violation_rejected(self):
        p = qf.Problem(1, 3, [[0]], [np.array([1.0, 0.0])])
        with pytest.raises(ValueError):
            qf.energy(p, np.array([2]))


class TestValidation:
    # Node 0 owns labels 0 and 1, node 1 owns label 0 (num_labels = 2).
    # Each rejected label below would alias a real (node, label) slot if
    # only the slot lookup were consulted.
    PROBLEM = qf.Problem(2, 2, [[0, 1], [0]],
                         [np.array([1.0, 2.0, 0.0]), np.array([3.0, 0.0])],
                         {(0, 1): np.arange(6.0).reshape(3, 2)})

    @pytest.mark.parametrize("x", [
        [0, 1],            # label outside node 1's candidates
        [-2, 0],           # below DUMMY
        [0, -2],           # below DUMMY, aliases node 0's label 1
        [2, 0],            # == num_labels, aliases node 0's dummy
        [3, 0],            # > num_labels, aliases node 1's label 0
        [0, 2],            # == num_labels, aliases node 1's dummy
    ])
    def test_rejects_labels_outside_the_candidates(self, x):
        with pytest.raises(ValueError):
            qf.validate_assignment(self.PROBLEM, np.array(x))
        with pytest.raises(ValueError):
            qf.energy(self.PROBLEM, np.array(x))

    @pytest.mark.parametrize("x", [[0], [0, 0, 0], [[0, 0]]])
    def test_rejects_wrong_length(self, x):
        with pytest.raises(ValueError):
            qf.validate_assignment(self.PROBLEM, np.array(x))

    def test_accepts_every_candidate_and_dummy(self):
        for x in ([0, 0], [1, 0], [qf.DUMMY, 0], [1, qf.DUMMY], [qf.DUMMY, qf.DUMMY]):
            assert np.array_equal(qf.validate_assignment(self.PROBLEM, x), x)

    def test_empty_problem(self):
        p = qf.Problem(0, 3, [], [])
        assert qf.energy(p, np.zeros(0, dtype=np.int64)) == 0.0
        with pytest.raises(ValueError):
            qf.validate_assignment(p, [0])

    def test_costs_are_read_only(self):
        p = self.PROBLEM
        with pytest.raises(ValueError):
            p.pairwise[(0, 1)][0, 0] = 9.0
        with pytest.raises(ValueError):
            p.unary[0][0] = 9.0
        with pytest.raises(ValueError):
            p.table_buffer[0] = 9.0


class TestFeasibility:
    def test_all_dummy_feasible(self):
        p = qf.Problem(3, 1, [[0], [0], [0]],
                       [np.array([0.0, 0.0])] * 3)
        assert qf.is_feasible(p, qf.all_dummy(p))

    def test_shared_label_infeasible(self):
        p = qf.Problem(2, 1, [[0], [0]], [np.array([0.0, 0.0])] * 2)
        assert not qf.is_feasible(p, np.array([0, 0]))

    def test_matches_pairwise_scan_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            p = random_problem(rng, max_nodes=5, min_nodes=5)
            x = random_assignment(p, rng)
            assert qf.is_feasible(p, x) == feasible_by_pairwise_scan(x)


class TestReparametrization:
    def test_zero_messages_halve_unary(self):
        p = qf.Problem(1, 1, [[0]], [np.array([4.0, 0.0])])
        r = qf.Reparametrization(p)
        assert qf.reparametrized_unary(p, r, 0, 0) == 2.0

    def test_direct_formula(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([0.0, 0.0])] * 2,
                       {(0, 1): np.zeros((2, 2))})
        r = qf.Reparametrization(p)
        r.set_label_msg(0, np.array([1.0]))
        r.set_edge_msg(0, 1, np.array([0.5, 0.0]))
        # theta/2 + label message - edge message = 0 + 1 - 0.5
        assert qf.reparametrized_unary(p, r, 0, 0) == pytest.approx(0.5)

    def test_pairwise_identity_at_zero(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, max_nodes=3, min_nodes=2, edge_prob=1.0)
        r = qf.Reparametrization(p)
        u, v = p.edges[0]
        table = qf.reparametrized_pairwise_table(p, r, u, v)
        np.testing.assert_allclose(table, p.pairwise[(u, v)])

    def test_pairwise_message_sum(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([0.0, 0.0])] * 2,
                       {(0, 1): np.zeros((2, 2))})
        r = qf.Reparametrization(p)
        r.set_edge_msg(0, 1, np.array([1.0, 0.0]))
        r.set_edge_msg(1, 0, np.array([2.0, 0.0]))
        assert qf.reparametrized_pairwise(p, r, 0, 1, 0, 0) == pytest.approx(3.0)

    def test_dummy_label_message_is_pinned(self):
        rng = np.random.default_rng(19)
        p = random_problem(rng, max_nodes=4)
        r = random_reparametrization(p, rng)
        for u in range(p.num_nodes):
            assert r.label_msg[u][-1] == p.unary[u][-1] / 2.0
            assert qf.lap_unary(p, r, u, qf.DUMMY) == 0.0

    def test_invariance_identity(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            p = random_problem(rng, max_nodes=5, max_labels=4)
            r = random_reparametrization(p, rng)
            x = random_assignment(p, rng)
            e = qf.energy(p, x)
            assert identity_total(p, r, x) == pytest.approx(e, rel=1e-9, abs=1e-9)
