from fractions import Fraction

import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    brute_force_optimum,
    candidates,
    feasible_by_pairwise_scan,
    improve_by_loops,
    local_index,
    neighbors,
    pair_cost,
    pairwise_tables,
    random_assignment,
    random_feasible_assignment,
    random_problem,
    restricted_space_optimum,
    scaled_problem,
    signed_zero_copy,
    unary_costs,
)


def qpbo_labels(fp):
    return qf.roof_duality(fp.unary, fp.pairs, fp.tables, constant=fp.base_energy).labels


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

    nbrs = neighbors(p)
    unary = np.zeros((len(free), 2))
    for i, u in enumerate(free):
        for side in (0, 1):
            value = unary_costs(p, u)[local_index(p, u, label[i][side])]
            for v in nbrs[u]:  # ascending, which is edge order
                if v not in var:
                    value += pair_cost(p, u, v, label[i][side], x1[v])
            unary[i, side] = value
    tables, clash = {}, {}
    for i, u in enumerate(free):
        for j in range(i + 1, len(free)):
            v = free[j]
            mask = np.array([[label[i][a] == label[j][b] != qf.DUMMY for b in (0, 1)]
                             for a in (0, 1)])
            if (u, v) in p.edges:
                tables[(i, j)] = np.array([[pair_cost(p, u, v, label[i][a], label[j][b])
                                            for b in (0, 1)] for a in (0, 1)])
            elif mask.any():
                tables[(i, j)] = np.zeros((2, 2))
            if (i, j) in tables:
                clash[(i, j)] = mask

    ranges = [np.ptp(row) for row in unary] + [np.ptp(t) for t in tables.values()]
    assert fp.big_cost == pytest.approx(2.0 * sum(ranges) if sum(ranges) else 1.0, rel=1e-12)
    assert fp.big_cost > sum(ranges)
    big = fp.big_cost
    held_mask = np.array([[s != qf.DUMMY and s in held for s in pair] for pair in label],
                         dtype=bool).reshape(-1, 2)
    assert fp.unary.shape == unary.shape
    assert np.all(fp.unary == unary + big * held_mask)
    keys = [tuple(pair) for pair in fp.pairs.tolist()]
    assert fp.pairs.shape == (len(keys), 2) and fp.tables.shape == (len(keys), 2, 2)
    assert all(i < j for i, j in keys) and len(set(keys)) == len(keys)
    assert set(keys) == set(tables)
    # The edges between free nodes come first, in edge order.
    edge_keys = [(var[u], var[v]) for u, v in p.edges if u in var and v in var]
    assert keys[:len(edge_keys)] == edge_keys
    for key, table in zip(keys, fp.tables):
        assert np.all(table == tables[key] + big * clash[key])
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
        if any(not candidates(p, u) for u in range(p.num_nodes)):
            continue
        found += 1
        x1 = random_feasible_assignment(p, rng)
        x2 = np.array([rng.choice([s for s in [qf.DUMMY, *candidates(p, u)]
                                   if s != x1[u]]) for u in range(p.num_nodes)])
        assert np.all(x1 != x2)
        yield p, x1, x2
    # A table that holds nothing but a penalty (no edge between the nodes).
    p = qf.Problem(3, 2, [[0, 1], [0], [1]],
                   [np.array([-1.0, 0.5, 0.0]), np.array([-2.0, 0.0]), np.array([1.0, 0.0])])
    yield p, np.array([0, qf.DUMMY, 1]), np.array([1, 0, qf.DUMMY])
    # Every range 0: the penalty falls back to 1.
    p = qf.Problem(2, 1, [[0], [0]], [np.zeros(2)] * 2, {(0, 1): np.zeros((2, 2))})
    yield p, np.array([0, qf.DUMMY]), np.array([qf.DUMMY, 0])


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
        assert fp.big_cost == 2.0 * (1.0 + 2.0 + 0.0)  # twice the unary and table ranges
        assert np.array_equal(fp.unary, [[-1.0, 0.0], [0.0, -2.0]])
        assert fp.pairs.tolist() == [[0, 1]]
        assert np.array_equal(fp.tables, [[[0.0, fp.big_cost], [0.0, 0.0]]])

    def test_penalty_table_created_without_edge(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([-1.0, 0.0]), np.array([-2.0, 0.0])])
        fp = qf.build_fusion(p, np.array([0, qf.DUMMY]), np.array([qf.DUMMY, 0]))
        assert fp.big_cost == 6.0
        assert fp.pairs.tolist() == [[0, 1]]
        assert np.array_equal(fp.tables, [[[0.0, fp.big_cost], [0.0, 0.0]]])

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
            for key, table in zip(map(tuple, fp.pairs.tolist()), fp.tables):
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
            pairwise = pairwise_tables(p)
            pairwise[(0, 1)][local_index(p, 0, x1[0]), local_index(p, 1, x1[1])] += 1e16
            nodes = range(p.num_nodes)
            outlier = qf.Problem(p.num_nodes, p.num_labels, [candidates(p, u) for u in nodes],
                                 [unary_costs(p, u) for u in nodes], pairwise)
            other = qf.build_fusion(outlier, x1, x2)
            assert np.array_equal(other.unary, fp.unary)
            assert np.array_equal(other.pairs, fp.pairs)
            assert np.array_equal(other.tables, fp.tables)
            assert other.big_cost == fp.big_cost
            assert np.array_equal(qpbo_labels(other), qpbo_labels(fp))
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

    def test_equals_the_rational_formula(self, monkeypatch):
        # Every (m, n) pair on |V| < 40 nodes, against 2^m * (|V|/n + 1)^n
        # in exact fractions, rounded up, 2^m alone for n = 0.
        for V in range(40):
            p = qf.Problem(V, 0, [[]] * V, [[0.0]] * V)
            for m in range(70):
                for n in range(V + 1):
                    monkeypatch.setattr(qf.fusion, "proposal_counts", lambda *_: (m, n))
                    exact = Fraction(2) ** m * ((Fraction(V, n) + 1) ** n if n else 1)
                    ceiling = -(-exact.numerator // exact.denominator)
                    assert qf.count_bound(p, None) == (ceiling if ceiling < 2**63 else None)


class TestRoofDualityOnFusion:
    def test_reads_auxiliary_problem(self):
        rng = np.random.default_rng(5)
        p = random_problem(rng, max_nodes=5, min_nodes=3)
        x1 = random_feasible_assignment(p, rng)
        x2 = random_assignment(p, rng)
        fp = qf.build_fusion(p, x1, x2)
        result = qf.roof_duality(fp.unary, fp.pairs, fp.tables, constant=fp.base_energy)
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
                for t in fp.tables)
            if not submodular or fp.num_variables == 0:
                continue
            tested += 1
            fused = qf.fuse(p, x1, x2, mode="qpbo-i", rng=0)
            oracle, _ = restricted_space_optimum(p, x1, x2)
            assert qf.energy(p, fused) == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("scale", [2.0**-46, 2.0**40])
    def test_qpbo_mode_invariant_under_power_of_two_scaling(self, scale):
        # Scaling every cost by a power of two is exact, so the result must
        # not move.  Every other proposal shares no label with the incumbent;
        # the rest are random, so uniqueness penalties come into play.
        rng = np.random.default_rng(43)
        tested = 0
        while tested < 200:
            p = random_problem(rng, max_nodes=7, min_nodes=4, max_labels=9, integer=False)
            x1 = random_feasible_assignment(p, rng)
            if tested % 2:
                x2 = random_assignment(p, rng)
            else:
                x2 = np.full(p.num_nodes, qf.DUMMY)
                used = set(x1.tolist())
                for u in rng.permutation(p.num_nodes):
                    options = [s for s in candidates(p, u) if s not in used]
                    if options and rng.random() < 0.8:
                        x2[u] = options[int(rng.integers(len(options)))]
                        used.add(x2[u])
            if np.sum(x1 != x2) < 2:
                continue
            tested += 1
            fused = qf.fuse(p, x1, x2, mode="qpbo-i", rng=tested)
            scaled = qf.fuse(scaled_problem(p, scale), x1, x2, mode="qpbo-i", rng=tested)
            assert np.array_equal(scaled, fused)

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


def fractional_label_problem():
    return qf.Problem(2, 2, [[0, 1], [0, 1]],
                      [np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 3.0])],
                      {(0, 1): np.arange(9.0).reshape(3, 3)})


class TestFractionalLabels:
    @pytest.mark.parametrize("x1, x2", [([0.7, -1.0], [1, 0]), ([0, -1], [1.5, 0]),
                                        ([-1, 0], [1.5, 0])])
    def test_fuse_refuses_a_label_with_a_fractional_part(self, x1, x2):
        p = fractional_label_problem()
        for mode in ("qpbo-i", "exact"):
            # A memo with an entry is looked up, so fuse validates first.
            for memo in (None, {}, {b"": (np.zeros(2, dtype=np.int64), 2)}):
                with pytest.raises(ValueError, match="not an integer"):
                    qf.fuse(p, x1, x2, mode=mode, memo=memo)

    @pytest.mark.parametrize("x1, x2", [([-1, 0], [1.5, 0]), ([0.5, -1], [1, 0])])
    def test_build_fusion_refuses_a_label_with_a_fractional_part(self, x1, x2):
        with pytest.raises(ValueError, match="not an integer"):
            qf.build_fusion(fractional_label_problem(), x1, x2)

    def test_integral_floats_fuse_as_their_integers(self):
        p = fractional_label_problem()
        for mode in ("qpbo-i", "exact"):
            assert np.array_equal(qf.fuse(p, [0.0, -1.0], [1.0, 0.0], mode=mode),
                                  qf.fuse(p, [0, -1], [1, 0], mode=mode))
        fp = qf.build_fusion(p, [-1.0, 0.0], [1.0, 0.0])
        assert fp.proposal.dtype == np.int64 and fp.proposal.tolist() == [1, 0]


def fusion_cases(rng, count, max_nodes=7, max_labels=5, edge_prob=0.6):
    """(problem, feasible x1, x2) with at least one free variable: integer
    costs, real costs, small-integer ties, and ties with signed zeros."""
    made = 0
    while made < count:
        kind = made % 4
        p = random_problem(rng, max_nodes, max_labels, cost_range=9 if kind < 2 else 1,
                           edge_prob=edge_prob, min_nodes=2, integer=kind != 1)
        if kind == 3:
            p = signed_zero_copy(p, rng)
        x1, x2 = random_feasible_assignment(p, rng), random_assignment(p, rng)
        if np.any(x1 != x2):
            made += 1
            yield p, x1, x2


def starting_bits(fp):
    """qpbo-i's start: roof duality's labels, the rest from the better of
    the two reference labelings (the proposal's only when it is feasible)."""
    labels = qpbo_labels(fp)
    zeros = np.zeros(fp.num_variables, dtype=np.int64)
    reference = int(feasible_by_pairwise_scan(fp.proposal)
                    and fp.binary_energy(zeros + 1) < fp.binary_energy(zeros))
    return np.where(labels >= 0, labels, reference), bool(np.any(labels < 0))


def first_pass_flips_nothing(fp, bits):
    """True iff one pass of the loop descent, in any order, keeps ``bits``
    (a pass visits each variable once, so a flip in it is never undone)."""
    return improve_by_loops(fp, bits, np.random.default_rng(0), rounds=1).tolist() == list(bits)


class TestFirstPassCheck:
    def test_matches_the_descent_by_loops(self):
        # Settled or not, the bits and the generator's state must be the
        # loop's; half the starts are qpbo-i's own, half random bits.
        rng = np.random.default_rng(67)
        seen = dict.fromkeys(["settled", "descended"], 0)
        for trial, (p, x1, x2) in enumerate(fusion_cases(rng, 2000)):
            fp = qf.build_fusion(p, x1, x2)
            k = fp.num_variables
            bits = starting_bits(fp)[0] if trial % 2 else rng.integers(0, 2, k)
            ours, loops = np.random.default_rng(trial), np.random.default_rng(trial)
            got, settled = qf.fusion._improve(fp, bits.copy(), ours)
            assert got.tolist() == improve_by_loops(fp, bits, loops).tolist()
            assert ours.bit_generator.state == loops.bit_generator.state
            assert settled == first_pass_flips_nothing(fp, bits)
            seen["settled" if settled else "descended"] += 1
        assert min(seen.values()) > 200, seen


    def test_sums_each_delta_in_the_loops_order(self):
        # Variable 0's delta at the all-zeros start is -1, then +2^54, then
        # -2^54: in that order -1 + 2^54 rounds to 2^54 and the sum is 0, so
        # the first pass flips nothing; any other order gives -1.
        big = 2.0**54
        unary = np.array([[1.0, 0.0], [0.0, 5.0], [0.0, 5.0]])
        tables = np.zeros((2, 2, 2))
        tables[0, 1, 0], tables[1, 1, 0] = big, -big
        nodes = np.arange(3)
        fp = qf.FusionProblem(nodes, nodes, nodes, unary, np.array([[0, 1], [0, 2]]), tables,
                              0.0, 1.0)
        bits = np.zeros(3, dtype=np.int64)
        ours, loops = np.random.default_rng(0), np.random.default_rng(0)
        got, settled = qf.fusion._improve(fp, bits.copy(), ours)
        assert got.tolist() == improve_by_loops(fp, bits, loops).tolist() == [0, 0, 0]
        assert ours.bit_generator.state == loops.bit_generator.state
        assert settled and first_pass_flips_nothing(fp, bits)


def hit_case(rng):
    """A (problem, x1, x2) whose qpbo-i fusion is settled."""
    for p, x1, x2 in fusion_cases(rng, 10**6):
        fp = qf.build_fusion(p, x1, x2)
        if first_pass_flips_nothing(fp, starting_bits(fp)[0]):
            return p, x1, x2


class TestMemo:
    def test_a_shared_memo_changes_no_result_and_no_draw(self):
        # Larger problems, so that qpbo-i's own start needs a flip now and then.
        rng = np.random.default_rng(71)
        seen = dict.fromkeys(["stored", "not stored", "partly unlabelled"], 0)
        cases = fusion_cases(rng, 600, max_nodes=10, max_labels=6, edge_prob=0.8)
        for trial, (p, x1, x2) in enumerate(cases):
            fp = qf.build_fusion(p, x1, x2)
            bits, partly = starting_bits(fp)
            settled = first_pass_flips_nothing(fp, bits)
            plain, kept, memo = np.random.default_rng(trial), np.random.default_rng(trial), {}
            for call in range(2):
                want = qf.fuse(p, x1, x2, rng=plain)
                got = qf.fuse(p, x1, x2, rng=kept, memo=memo)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert kept.bit_generator.state == plain.bit_generator.state
                # An entry only for a fusion whose first pass flipped nothing.
                assert len(memo) == settled
            seen["stored" if settled else "not stored"] += 1
            seen["partly unlabelled"] += partly
        assert min(seen.values()) >= 15, seen

    def test_a_hit_builds_and_solves_nothing(self, monkeypatch):
        p, x1, x2 = hit_case(np.random.default_rng(73))
        memo = {}
        first = qf.fuse(p, x1, x2, rng=5, memo=memo)
        assert len(memo) == 1

        def refuse(*args, **kwargs):
            raise AssertionError("a memo hit must not rebuild or re-solve the fusion")

        monkeypatch.setattr(qf.fusion, "build_fusion", refuse)
        monkeypatch.setattr(qf.fusion, "roof_duality", refuse)
        again = qf.fuse(p, list(x1), np.array(x2, dtype=float), rng=5, memo=memo)
        assert np.array_equal(again, first)
        again[:] = qf.DUMMY  # the caller owns the copy it was given
        assert np.array_equal(qf.fuse(p, x1, x2, rng=5, memo=memo), first)

    def test_holds_at_most_its_cap_dropping_the_oldest(self, monkeypatch):
        monkeypatch.setattr(qf.fusion, "_MEMO_ENTRIES", 2)
        rng = np.random.default_rng(79)
        p = random_problem(rng, max_nodes=8, min_nodes=8, max_labels=5)
        while p.num_labels < 4:
            p = random_problem(rng, max_nodes=8, min_nodes=8, max_labels=5)
        x1 = random_feasible_assignment(p, rng)
        memo, stored = {}, []
        for _ in range(100):
            x2 = random_assignment(p, rng)
            key = x1.tobytes() + x2.tobytes()
            if key not in stored:
                qf.fuse(p, x1, x2, memo=memo)
                stored += [key] if key in memo else []
                assert list(memo) == stored[-2:]
        assert len(stored) >= 4

    def test_exact_mode_leaves_the_memo_alone(self):
        p, x1, x2 = hit_case(np.random.default_rng(83))
        memo = {}
        qf.fuse(p, x1, x2, mode="exact", memo=memo)
        assert memo == {}
