import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    brute_force_optimum,
    feasible_by_pairwise_scan,
    random_assignment,
    random_feasible_assignment,
    random_problem,
    restricted_space_optimum,
)


def two_node_shared_label_problem():
    p = qf.Problem(2, 1, [[0], [0]],
                   [np.array([-1.0, 0.0]), np.array([-2.0, 0.0])],
                   {(0, 1): np.zeros((2, 2))})
    return p


def assert_terms_match_costs(p, x1, x2, fp):
    """Check fp's unary rows and tables cell by cell, with exact ==, against
    a reconstruction from the problem's costs: each side's unary cost plus
    its edges to folded neighbours in edge order, each free pair's edge
    cost, and big_cost times the label-clash indicator.  Returns the
    reconstructed penalty-free (unary, tables) and the tables' clash masks.
    """
    n = p.num_nodes
    free = [u for u in range(n) if x1[u] != x2[u]]
    var = {u: i for i, u in enumerate(free)}
    held = {int(x1[u]) for u in range(n) if u not in var and x1[u] != qf.DUMMY}
    label = [(int(x1[u]), int(x2[u])) for u in free]

    local = p.local_index
    unary = np.zeros((len(free), 2))
    for i, u in enumerate(free):
        for side in (0, 1):
            value = p.unary[u][local(u, label[i][side])]
            for v in p.neighbors[u]:  # ascending, which is edge order
                if v not in var:
                    value += p.pairwise_table(u, v)[local(u, label[i][side]), local(v, x1[v])]
            unary[i, side] = value
    tables, clash = {}, {}
    for i, u in enumerate(free):
        for j in range(i + 1, len(free)):
            v = free[j]
            mask = np.array([[label[i][a] == label[j][b] != qf.DUMMY for b in (0, 1)]
                             for a in (0, 1)])
            if (u, v) in p.pairwise:
                tables[(i, j)] = np.array([[p.pairwise[(u, v)][local(u, label[i][a]),
                                                               local(v, label[j][b])]
                                            for b in (0, 1)] for a in (0, 1)])
            elif mask.any():
                tables[(i, j)] = np.zeros((2, 2))
            if (i, j) in tables:
                clash[(i, j)] = mask

    ranges = [np.ptp(row) for row in unary] + [np.ptp(t) for t in tables.values()]
    assert fp.big_cost == pytest.approx(1.0 + sum(ranges), rel=1e-12)
    assert fp.big_cost > sum(ranges)
    big = fp.big_cost
    held_mask = np.array([[s != qf.DUMMY and s in held for s in pair] for pair in label],
                         dtype=bool).reshape(-1, 2)
    assert fp.unary.shape == unary.shape
    assert np.all(fp.unary == unary + big * held_mask)
    assert set(fp.tables) == set(tables)
    for key, table in tables.items():
        assert np.all(fp.tables[key] == table + big * clash[key])
    return unary, tables, clash


def consistency_instances(rng):
    """(problem, feasible x1, x2) triples, degenerate shapes included."""
    for _ in range(100):
        p = random_problem(rng, max_nodes=5)
        yield p, random_feasible_assignment(p, rng), random_assignment(p, rng)
    for _ in range(20):  # no edges
        p = random_problem(rng, max_nodes=5, edge_prob=0.0)
        yield p, random_feasible_assignment(p, rng), random_assignment(p, rng)
    # Nodes without candidates, next to one with candidates.
    p = qf.Problem(3, 2, [[], [0, 1], []],
                   [np.array([1.5]), np.array([-1.0, 2.0, 0.5]), np.array([-0.25])],
                   {(0, 1): np.array([[0.5, -2.0, 1.0]]), (1, 2): np.array([[3.0], [-1.5], [0.0]])})
    for x2 in ([qf.DUMMY, 0, qf.DUMMY], [qf.DUMMY, 1, qf.DUMMY]):
        yield p, qf.all_dummy(p), np.array(x2)
    # Every node free: x2 differs from x1 everywhere.
    found = 0
    while found < 20:
        p = random_problem(rng, max_nodes=5, min_nodes=2)
        if any(p.num_candidates(u) == 0 for u in range(p.num_nodes)):
            continue
        found += 1
        x1 = random_feasible_assignment(p, rng)
        x2 = np.array([rng.choice([s for s in [qf.DUMMY, *p.candidate_labels[u].tolist()]
                                   if s != x1[u]]) for u in range(p.num_nodes)])
        assert np.all(x1 != x2)
        yield p, x1, x2
    # A table that holds nothing but a penalty (no edge between the nodes).
    p = qf.Problem(3, 2, [[0, 1], [0], [1]],
                   [np.array([-1.0, 0.5, 0.0]), np.array([-2.0, 0.0]), np.array([1.0, 0.0])])
    yield p, np.array([0, qf.DUMMY, 1]), np.array([1, 0, qf.DUMMY])


class TestBuildFusion:
    def test_identical_proposals_fold_everything(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, max_nodes=5, min_nodes=3)
        x = random_feasible_assignment(p, rng)
        fp = qf.build_fusion(p, x, x)
        assert fp.num_variables == 0
        assert fp.base_energy == pytest.approx(qf.energy(p, x))

    def test_single_conflict_cell(self):
        # x1 = (a, #), x2 = (#, a): label a shared between node 0's side 0
        # and node 1's side 1, so exactly the (0, 1) cell is penalized, and
        # the penalty lands on the edge's (zero) table.
        p = two_node_shared_label_problem()
        x1 = np.array([0, qf.DUMMY])
        x2 = np.array([qf.DUMMY, 0])
        fp = qf.build_fusion(p, x1, x2)
        assert fp.num_variables == 2
        assert fp.big_cost == 1.0 + 1.0 + 2.0 + 0.0  # 1 + unary and table ranges
        assert np.array_equal(fp.unary, [[-1.0, 0.0], [0.0, -2.0]])
        assert list(fp.tables) == [(0, 1)]
        assert np.array_equal(fp.tables[(0, 1)], [[0.0, fp.big_cost], [0.0, 0.0]])

    def test_penalty_table_created_without_edge(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([-1.0, 0.0]), np.array([-2.0, 0.0])])
        fp = qf.build_fusion(p, np.array([0, qf.DUMMY]), np.array([qf.DUMMY, 0]))
        assert fp.big_cost == 4.0
        assert list(fp.tables) == [(0, 1)]
        assert np.array_equal(fp.tables[(0, 1)], [[0.0, fp.big_cost], [0.0, 0.0]])

    def test_feasible_pair_penalties_only_off_diagonal(self):
        # With both proposals feasible, shared labels occur only across
        # proposals, so penalties sit on the (0,1)/(1,0) cells, which keeps
        # the penalty tables submodular under the chosen ordering.
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = random_problem(rng, max_nodes=6)
            x1 = random_feasible_assignment(p, rng)
            x2 = random_feasible_assignment(p, rng)
            fp = qf.build_fusion(p, x1, x2)
            _, costs, clash = assert_terms_match_costs(p, x1, x2, fp)
            for key, table in fp.tables.items():
                assert not clash[key][0, 0] and not clash[key][1, 1]
                assert table[0, 0] == costs[key][0, 0] and table[1, 1] == costs[key][1, 1]

    def test_infeasible_incumbent_rejected(self):
        p = two_node_shared_label_problem()
        with pytest.raises(ValueError):
            qf.build_fusion(p, np.array([0, 0]), np.array([qf.DUMMY, qf.DUMMY]))

    def test_binary_energy_consistency(self):
        # base + restricted evaluation == original energy + penalty count
        # times the big cost, for every labeling of the free variables, and
        # the decode is feasible exactly when no penalty is active.
        rng = np.random.default_rng(13)
        for p, x1, x2 in consistency_instances(rng):
            fp = qf.build_fusion(p, x1, x2)
            assert_terms_match_costs(p, x1, x2, fp)
            for code in range(2 ** fp.num_variables):
                bits = [(code >> i) & 1 for i in range(fp.num_variables)]
                decoded = fp.decode(bits)
                violated = sum(
                    1 for u in range(p.num_nodes) for v in range(u + 1, p.num_nodes)
                    if decoded[u] == decoded[v] != qf.DUMMY)
                expected = qf.energy(p, decoded) + fp.big_cost * violated
                assert fp.binary_energy(bits) == pytest.approx(
                    expected, rel=1e-9, abs=1e-6)
                assert qf.is_feasible(p, decoded) == (violated == 0)

    def test_costs_between_folded_nodes_only_move_the_constant(self):
        # An outlier on an edge between two folded nodes changes neither the
        # variables' terms nor the penalty; only the folded constant.
        rng = np.random.default_rng(21)
        tested = 0
        while tested < 20:
            p = random_problem(rng, max_nodes=7, min_nodes=4, edge_prob=1.0)
            x1 = random_feasible_assignment(p, rng)
            x2 = random_assignment(p, rng)
            x2[:2] = x1[:2]
            fp = qf.build_fusion(p, x1, x2)
            if fp.num_variables < 2:
                continue
            tested += 1
            pairwise = {edge: table.copy() for edge, table in p.pairwise.items()}
            pairwise[(0, 1)][p.local_index(0, x1[0]), p.local_index(1, x1[1])] += 1e16
            outlier = qf.Problem(p.num_nodes, p.num_labels, p.candidate_labels,
                                 p.unary, pairwise)
            other = qf.build_fusion(outlier, x1, x2)
            assert np.array_equal(other.unary, fp.unary)
            assert list(other.tables) == list(fp.tables)
            assert all(np.array_equal(other.tables[k], t) for k, t in fp.tables.items())
            assert other.big_cost == fp.big_cost
            assert np.array_equal(qf.solve_qpbo(other).labels, qf.solve_qpbo(fp).labels)
            assert other.base_energy != fp.base_energy

    def test_decode_endpoints(self):
        rng = np.random.default_rng(40)
        p = random_problem(rng, max_nodes=5, min_nodes=3)
        x1 = random_feasible_assignment(p, rng)
        x2 = random_assignment(p, rng)
        fp = qf.build_fusion(p, x1, x2)
        k = fp.num_variables
        assert np.array_equal(fp.decode([0] * k), x1)
        assert np.array_equal(fp.decode([1] * k), x2)


class TestCountBound:
    def test_all_dummy_uses_n_zero_convention(self):
        p = qf.Problem(3, 3, [[0], [1], [2]], [np.array([0.0, 0.0])] * 3)
        assert qf.count_bound(p, qf.all_dummy(p)) == 8  # 2^3

    def test_feasible_distinct_labels(self):
        p = qf.Problem(3, 3, [[0], [1], [2]], [np.array([0.0, 0.0])] * 3)
        x2 = np.array([0, 1, 2])
        assert qf.count_bound(p, x2) == 8  # (3/3 + 1)^3

    def test_two_node_distinct(self):
        p = qf.Problem(2, 2, [[0], [1]], [np.array([0.0, 0.0])] * 2)
        assert qf.count_bound(p, np.array([0, 1])) == 4  # (2/2 + 1)^2

    def test_saturation(self):
        n = 200
        p = qf.Problem(n, 1, [[] for _ in range(n)],
                       [np.array([0.0])] * n)
        assert qf.count_bound(p, qf.all_dummy(p)) is None  # 2^200 overflows

    def test_enumerated_count_never_exceeds_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = random_problem(rng, max_nodes=6)
            x1 = random_feasible_assignment(p, rng)
            x2 = random_assignment(p, rng)
            _, count = restricted_space_optimum(p, x1, x2)
            bound = qf.count_bound(p, x2)
            assert bound is not None and count <= bound


class TestSolveQpbo:
    def test_wraps_auxiliary_problem(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, max_nodes=5, min_nodes=3)
        x1 = random_feasible_assignment(p, rng)
        x2 = random_assignment(p, rng)
        fp = qf.build_fusion(p, x1, x2)
        result = qf.solve_qpbo(fp)
        assert result.labels.shape == (fp.num_variables,)
        best = min(fp.binary_energy([(code >> i) & 1 for i in range(fp.num_variables)])
                   for code in range(2 ** fp.num_variables))
        assert result.flow_value <= best + 1e-6


class TestFuse:
    def test_identity_fusion(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, max_nodes=5, min_nodes=2)
        x = random_feasible_assignment(p, rng)
        for mode in ("exact", "qpbo-i"):
            assert np.array_equal(qf.fuse(p, x, x, mode=mode), x)

    def test_optimum_in_search_space_is_found(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            p = random_problem(rng, max_nodes=5, dummy_cost=0.0)
            opt, xopt = brute_force_optimum(p)
            fused = qf.fuse(p, qf.all_dummy(p), xopt, mode="exact")
            assert qf.energy(p, fused) <= opt + 1e-9

    def test_exact_matches_restricted_space_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = random_problem(rng, max_nodes=6)
            x1 = random_feasible_assignment(p, rng)
            x2 = random_assignment(p, rng)
            fused = qf.fuse(p, x1, x2, mode="exact", rng=0)
            oracle, _ = restricted_space_optimum(p, x1, x2)
            assert qf.energy(p, fused) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_qpbo_mode_feasible_and_monotone(self):
        rng = np.random.default_rng(37)
        for trial in range(200):
            p = random_problem(rng, max_nodes=6)
            x1 = random_feasible_assignment(p, rng)
            x2 = random_assignment(p, rng)
            fused = qf.fuse(p, x1, x2, mode="qpbo-i", rng=trial)
            assert qf.is_feasible(p, fused)
            assert qf.energy(p, fused) <= qf.energy(p, x1) + 1e-9
            if feasible_by_pairwise_scan(x2):
                assert qf.energy(p, fused) <= qf.energy(p, x2) + 1e-9

    def test_qpbo_mode_exact_when_tables_submodular(self):
        rng = np.random.default_rng(41)
        tested = 0
        while tested < 50:
            p = random_problem(rng, max_nodes=5)
            x1 = random_feasible_assignment(p, rng)
            x2 = random_assignment(p, rng)
            fp = qf.build_fusion(p, x1, x2)
            submodular = all(
                t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1] >= 0
                for t in fp.tables.values())
            if not submodular or fp.num_variables == 0:
                continue
            tested += 1
            fused = qf.fuse(p, x1, x2, mode="qpbo-i", rng=0)
            oracle, _ = restricted_space_optimum(p, x1, x2)
            assert qf.energy(p, fused) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_exact_mode_size_guard(self):
        n = 25
        p = qf.Problem(n, n, [[i] for i in range(n)],
                       [np.array([-1.0, 0.0])] * n)
        x2 = np.arange(n, dtype=np.int64)
        with pytest.raises(ValueError):
            qf.fuse(p, qf.all_dummy(p), x2, mode="exact")

    def test_unknown_mode_rejected(self):
        p = two_node_shared_label_problem()
        with pytest.raises(ValueError):
            qf.fuse(p, qf.all_dummy(p), qf.all_dummy(p), mode="ilp")

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(53)
        p = random_problem(rng, max_nodes=6, min_nodes=4)
        x1 = random_feasible_assignment(p, rng)
        x2 = random_assignment(p, rng)
        a = qf.fuse(p, x1, x2, mode="qpbo-i", rng=7)
        b = qf.fuse(p, x1, x2, mode="qpbo-i", rng=7)
        assert np.array_equal(a, b)
