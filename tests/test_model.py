import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    adjusted_table,
    assignment_cost,
    candidates,
    edge_table,
    energy_by_resummation,
    feasible_by_pairwise_scan,
    label_message,
    local_index,
    matching_cost,
    neighbors,
    pairwise_tables,
    random_assignment,
    random_problem,
    random_reparametrization,
    rebuild_message_sums,
    same_problem_bytes,
    scaled_problem,
    table_cell,
    unary_costs,
)


def identity_total(problem, repar, x):
    """Three-term decomposition that must reproduce the plain energy: the
    matching-side and assignment-side unaries, then the message-adjusted
    edge tables, each computed here from the costs and the messages."""
    total = 0.0
    for u in range(problem.num_nodes):
        i = local_index(problem, u, x[u])
        total += float(matching_cost(problem, repar, u)[i])
        total += float(assignment_cost(problem, repar, u)[i])
    for u, v in problem.edges:
        table = adjusted_table(problem, repar, u, v)
        total += float(table[local_index(problem, u, x[u]), local_index(problem, v, x[v])])
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
            term = table_cell(p, 0, local_index(p, u, x[u]), local_index(p, v, x[v]))
            reduced = {e: t for e, t in pairwise_tables(p).items() if e != (u, v)}
            nodes = range(p.num_nodes)
            p2 = qf.Problem(p.num_nodes, p.num_labels, [candidates(p, w) for w in nodes],
                            [unary_costs(p, w) for w in nodes], reduced)
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

    # A label with a fractional part is refused, not cut to its integer
    # part, and a uint64 label is not wrapped round to a signed one; the
    # lowest failing node is reported.
    @pytest.mark.parametrize("x,message", [
        ([0.7, -1.0], "node 0: label 0.7 not an integer"),
        ([0.5, 0.4], "node 0: label 0.5 not an integer"),
        ([1.0, -0.5], r"node 1: label -0.5 not an integer"),
        ([np.nan, 0.0], "node 0: label nan not an integer"),
        ([3.0, 0.5], r"node 0: label 3.0 not in its candidate set"),
        (np.array([1.0, 1e300]), "node 1: label 1e\\+300 not in its candidate set"),
        (np.array([1, 2 ** 64 - 1], np.uint64), f"node 1: label {2 ** 64 - 1} not in its candidate"),
    ])
    def test_rejects_non_integral_labels(self, x, message):
        for check in (qf.validate_assignment, qf.energy, qf.is_feasible):
            with pytest.raises(ValueError, match=message):
                check(self.PROBLEM, x)

    @pytest.mark.parametrize("x", [[1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], np.array([-1.0, -1.0])])
    def test_integral_floats_read_as_ints(self, x):
        ints = np.asarray(x).astype(np.int64)
        read = qf.validate_assignment(self.PROBLEM, x)
        assert read.dtype == np.int64 and np.array_equal(read, ints)
        assert qf.energy(self.PROBLEM, x) == qf.energy(self.PROBLEM, ints)
        assert qf.is_feasible(self.PROBLEM, x) == qf.is_feasible(self.PROBLEM, ints)

    def test_costs_are_read_only(self):
        p = self.PROBLEM
        with pytest.raises(ValueError):
            p.batches[0][0][0][0, 0, 0] = 9.0
        with pytest.raises(ValueError):
            p.unary_flat[0] = 9.0
        with pytest.raises(ValueError):
            p.table_buffer[0] = 9.0

    @pytest.mark.parametrize("args,message", [
        ((-1, 2, [], []), "negative sizes"),
        ((1, -1, [[]], [[0.0]]), "negative sizes"),
        ((2, 2, [[0]], [[1.0, 0.0], [0.0]]), "one entry per node"),
        ((2, 2, [[0], [2]], [[1.0, 0.0], [1.0, 0.0]]), "node 1: candidate label out of range"),
        ((1, 2, [[-1]], [[1.0, 0.0]]), "node 0: candidate label out of range"),
        ((1, 2, [[1, 0]], [[1.0, 2.0, 0.0]]), "node 0: candidate labels must be strictly"),
        ((1, 2, [[0, 1]], [[1.0, 0.0]]), "node 0: unary vector must have 3 entries"),
        ((2, 2, [[0], [1]], [[1.0, 0.0], [np.inf, 0.0]]), "node 1: non-finite unary cost"),
        ((2, 2, [[0], [1]], [[1.0, 0.0], [2.0, 0.0]], {(1, 0): np.zeros((2, 2))}),
         r"bad edge \(1, 0\)"),
        ((2, 2, [[0], [1]], [[1.0, 0.0], [2.0, 0.0]], {(0, 2): np.zeros((2, 2))}),
         r"bad edge \(0, 2\)"),
        ((2, 2, [[0], [1]], [[1.0, 0.0], [2.0, 0.0]], {(0, 1): np.zeros((2, 3))}),
         r"edge \(0, 1\): table shape \(2, 3\), expected \(2, 2\)"),
        ((2, 2, [[0], [1]], [[1.0, 0.0], [2.0, 0.0]], {(0, 1): [[1.0, np.nan], [3.0, 4.0]]}),
         r"edge \(0, 1\): non-finite pairwise cost"),
    ])
    def test_constructor_rejects(self, args, message):
        with pytest.raises(ValueError, match=message):
            qf.Problem(*args)

    @pytest.mark.parametrize("args,message", [
        ((1, 2, [np.array([1.9])], [[1.0, 0.0]]), "node 0: candidate label not an integer"),
        ((1, 2, [[0.5]], [[1.0, 0.0]]), "node 0: candidate label not an integer"),
        ((2, 3, [[0], [1, np.nan]], [[1.0, 0.0], [1.0, 2.0, 0.0]]),
         "node 1: candidate label not an integer"),
        ((1, 2, [[np.inf]], [[1.0, 0.0]]), "node 0: candidate label out of range"),
        ((1, 2.5, [[0]], [[1.0, 0.0]]), "not integers: 1, 2.5"),
        ((1.5, 2, [[0]], [[1.0, 0.0]]), "not integers: 1.5, 2"),
    ])
    def test_constructor_rejects_non_integers(self, args, message):
        with pytest.raises(ValueError, match=message):
            qf.Problem(*args)

    def test_integral_floats_build_the_bytes_of_ints(self):
        as_ints = qf.Problem(2, 3, [[0, 2], [1]], [[1.0, 2.0, 0.0], [3.0, 0.0]],
                             {(0, 1): np.arange(6.0).reshape(3, 2)})
        as_floats = qf.Problem(2.0, np.float64(3), [np.array([0.0, 2.0]), [1.0]],
                               [[1.0, 2.0, 0.0], [3.0, 0.0]], {(0, 1): np.arange(6.0).reshape(3, 2)})
        assert (as_floats.num_nodes, as_floats.num_labels) == (2, 3)
        assert same_problem_bytes(as_floats, as_ints)

    def test_edges_are_python_int_pairs(self):
        p = qf.Problem(2, 1, [[0], [0]], [[0.0, 0.0]] * 2,
                       {(np.int64(0), np.int64(1)): np.zeros((2, 2))})
        assert p.edges == [(0, 1)]
        assert all(type(end) is int for edge in p.edges for end in edge)

    # The first failing node, in node order, is reported with its first
    # failing check; nodes come before edges, and edges go in sorted order.
    @pytest.mark.parametrize("args,message", [
        ((3, 2, [[0], [2], [1]], [[1.0, 0.0], [1.0, 0.0], [np.nan, 0.0]]),
         "node 1: candidate label out of range"),
        ((3, 2, [[0], [0], [3]], [[1.0, 0.0], [np.inf, 0.0], [1.0, 0.0]]),
         "node 1: non-finite unary cost"),
        ((3, 2, [[0], [1], [0]], [[0.0, 0.0]] * 3,
          {(1, 2): np.zeros((3, 2)), (0, 1): [[np.nan, 0.0], [0.0, 0.0]]}),
         r"edge \(0, 1\): non-finite pairwise cost"),
        ((3, 2, [[0], [1], [0]], [[0.0, 0.0]] * 3,
          {(1, 2): np.full((2, 2), np.inf), (0, 2): np.zeros((2, 3)), (0, 5): np.zeros((2, 2))}),
         r"edge \(0, 2\): table shape \(2, 3\), expected \(2, 2\)"),
        ((3, 2, [[0], [1], [0]], [[0.0, 0.0]] * 3,
          {(1, 2): np.full((2, 2), np.nan), (0, 1): np.zeros((2, 2)),
           (0, 2): [[0.0, 0.0], [0.0, -np.inf]]}),
         r"edge \(0, 2\): non-finite pairwise cost"),
        ((3, 2, [[0], [1], [0]], [[0.0, 0.0], [0.0, 0.0], [0.0, np.nan]],
          {(0, 1): np.zeros((3, 3))}),
         "node 2: non-finite unary cost"),
    ])
    def test_constructor_reports_the_first_failure(self, args, message):
        with pytest.raises(ValueError, match=message):
            qf.Problem(*args)

    def test_nested_lists_build_the_bytes_of_arrays(self):
        rng = np.random.default_rng(29)
        for trial in range(40):
            p = random_problem(rng, max_nodes=6, edge_prob=0.6, integer=trial % 2 == 0)
            tables = pairwise_tables(p)
            args = (p.num_nodes, p.num_labels, [candidates(p, u) for u in range(p.num_nodes)])
            as_arrays = qf.Problem(*args, [np.array(unary_costs(p, u)) for u in range(p.num_nodes)],
                                   tables)
            as_lists = qf.Problem(*args, [list(unary_costs(p, u)) for u in range(p.num_nodes)],
                                  {e: t.tolist() for e, t in tables.items()})
            assert same_problem_bytes(as_lists, as_arrays)
            assert same_problem_bytes(as_lists, p)


class TestLayout:
    def test_adjacency_matches_edge_list(self):
        rng = np.random.default_rng(103)
        for trial in range(60):
            p = random_problem(rng, max_nodes=9, edge_prob=[0.0, 0.2, 0.7][trial % 3])
            nbrs = neighbors(p)
            assert p.nbr_start.tolist() == np.cumsum([0] + [len(nb) for nb in nbrs]).tolist()
            for u in range(p.num_nodes):
                lo, hi = p.nbr_start[u], p.nbr_start[u + 1]
                assert p.nbr_nodes[lo:hi].tolist() == nbrs[u]
                assert [p.edges[e] for e in p.nbr_edges[lo:hi]] == [
                    (min(u, v), max(u, v)) for v in nbrs[u]]


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
        assert qf.model.matching_side(p, r)[0] == 2.0

    def test_direct_formula(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([0.0, 0.0])] * 2,
                       {(0, 1): np.zeros((2, 2))})
        r = qf.Reparametrization(p)
        r.label_flat[0] = 1.0
        r.edge_flat[p.msg_start[0, 0]:p.msg_start[0, 0] + 2] = [0.5, 0.0]
        rebuild_message_sums(p, r)
        # theta/2 + label message - edge message = 0 + 1 - 0.5
        assert qf.model.matching_side(p, r)[0] == pytest.approx(0.5)

    def test_pairwise_identity_at_zero(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, max_nodes=3, min_nodes=2, edge_prob=1.0)
        r = qf.Reparametrization(p)
        u, v = p.edges[0]
        assert not r.edge_flat.any()
        np.testing.assert_allclose(adjusted_table(p, r, u, v), edge_table(p, 0))

    def test_pairwise_message_sum(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([0.0, 0.0])] * 2,
                       {(0, 1): np.zeros((2, 2))})
        r = qf.Reparametrization(p)
        (mu, mv), = p.msg_start
        r.edge_flat[mu:mu + 2] = [1.0, 0.0]
        r.edge_flat[mv:mv + 2] = [2.0, 0.0]
        assert adjusted_table(p, r, 0, 1)[0, 0] == pytest.approx(3.0)

    def test_dummy_label_message_is_pinned(self):
        rng = np.random.default_rng(19)
        p = random_problem(rng, max_nodes=4)
        r = random_reparametrization(p, rng)
        for u in range(p.num_nodes):
            assert label_message(p, r, u)[-1] == unary_costs(p, u)[-1] / 2.0
            assert qf.assignment_side(p, r)[p.offsets[u + 1] - 1] == 0.0

    @pytest.mark.parametrize("scale", [1.0, 2.0**-40, 2.0**40], ids=["1", "2^-40", "2^40"])
    def test_adjusted_tables_add_the_lower_endpoints_message_first(self, scale):
        # Messages of both magnitudes 2^53 and 1 make the order of the two
        # additions show in the cells.
        rng = np.random.default_rng(2025)
        for trial in range(40):
            p = scaled_problem(random_problem(rng, max_nodes=6, max_labels=4, edge_prob=0.7,
                                              integer=trial % 2 == 0), scale)
            r = random_reparametrization(p, rng, scale=3.0 * scale)
            big = rng.random(r.edge_flat.size) < 0.3
            r.edge_flat[big] = rng.choice([-1.0, 1.0], big.sum()) * 2.0**53 * scale
            rebuild_message_sums(p, r)
            adjusted = qf.model.adjusted_tables(p, r)
            assert adjusted.shape == p.table_buffer.shape
            for e, (u, v) in enumerate(p.edges):
                table = adjusted_table(p, r, u, v)
                for (i, j), want in np.ndenumerate(table):
                    got = adjusted[p.edge_start[e] + i + j * p.edge_stride[e]]
                    assert got.tobytes() == want.tobytes()

    def test_invariance_identity(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            p = random_problem(rng, max_nodes=5, max_labels=4)
            r = random_reparametrization(p, rng)
            x = random_assignment(p, rng)
            e = qf.energy(p, x)
            assert identity_total(p, r, x) == pytest.approx(e, rel=1e-9, abs=1e-9)
