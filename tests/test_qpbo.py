import re

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

import qapfuse as qf
from helpers import enumerate_binary_energies

NO_PAIRS, NO_TABLES = np.empty((0, 2), dtype=np.int64), np.empty((0, 2, 2))


def random_binary_problem(rng, num_vars, edge_prob=0.6, force_submodular=False):
    """(unary, pairs, tables) in roof_duality's flat format."""
    unary = rng.uniform(-5.0, 5.0, (num_vars, 2))
    pairs, tables = [], []
    for i in range(num_vars):
        for j in range(i + 1, num_vars):
            if rng.random() < edge_prob:
                t = rng.uniform(-5.0, 5.0, (2, 2))
                if force_submodular:
                    defect = t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1]
                    if defect < 0:
                        t[0, 1] -= defect
                pairs.append((i, j))
                tables.append(t)
    return (unary, np.array(pairs, dtype=np.int64).reshape(-1, 2),
            np.array(tables).reshape(-1, 2, 2))


def agreeing_optimum_exists(labels, energies, tol=1e-9):
    floor = min(energies.values())
    for bits, value in energies.items():
        if value <= floor + tol:
            if all(l < 0 or l == b for l, b in zip(labels, bits)):
                return True
    return False


def test_maxflow_small_network():
    g = qf.MaxFlow(4, [0, 0, 2, 2, 3], [2, 3, 3, 1, 1], [3.0, 2.0, 5.0, 2.0, 3.0])
    flow, side = g.max_flow(0, 1)
    assert flow == pytest.approx(5.0)
    assert side[0] and not side[1]


def test_maxflow_matches_scipy_on_integer_networks():
    # Networks shaped like roof duality's (an arc from the source to every
    # other node and from it to the sink) plus random arcs anywhere.  With
    # integer capacities every flow and residual is exact.  The set the
    # source reaches in the residual network is the same for every maximum
    # flow (the minimal minimum cut), so it is compared with scipy's.
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(0, 4 * n))
        inner = np.arange(2, n)
        tails = np.concatenate((np.zeros(n - 2, dtype=np.int64), inner, rng.integers(0, n, m)))
        heads = np.concatenate((inner, np.ones(n - 2, dtype=np.int64), rng.integers(0, n, m)))
        capacities = rng.integers(-2**18, 2**20, tails.size).astype(float)  # a fifth dropped
        flow, reached = qf.MaxFlow(n, tails, heads, capacities).max_flow(0, 1)

        arc = (capacities > 0) & (tails != heads)
        graph = csr_array((capacities[arc].astype(np.int32), (tails[arc], heads[arc])),
                          shape=(n, n))
        expected = maximum_flow(graph, 0, 1)
        residual = graph.toarray() - expected.flow.toarray()
        scipy_reached = np.zeros(n, dtype=bool)
        scipy_reached[breadth_first_order(csr_array(residual > 0), 0,
                                          return_predecessors=False)] = True
        assert flow == expected.flow_value
        assert np.array_equal(reached, scipy_reached)


def test_maxflow_matches_scipy_on_roof_duality_networks(monkeypatch):
    # The doubled networks of 20-30 variable problems grow deep search
    # trees whose nodes go free and must be regrown from their neighbours,
    # which small random networks seldom need.  Integer costs make every
    # capacity a multiple of 1/2, so doubled they are exact int32s.
    networks = []

    class Recorded(qf.MaxFlow):
        def __init__(self, *args):
            networks.append(args)
            super().__init__(*args)

    monkeypatch.setattr(qf.qpbo, "MaxFlow", Recorded)
    rng = np.random.default_rng(37)
    for _ in range(120):
        k = int(rng.integers(20, 31))
        i, j = np.triu_indices(k, 1)
        keep = rng.random(i.size) < rng.uniform(0.2, 0.8)
        tables = rng.integers(-20, 21, (int(keep.sum()), 2, 2)).astype(float)
        qf.roof_duality(rng.integers(-20, 21, (k, 2)).astype(float),
                        np.stack((i[keep], j[keep]), 1), tables)

    for n, tails, heads, capacities in networks:
        flow, reached = qf.MaxFlow(n, tails, heads, capacities).max_flow(0, 1)
        arc = capacities > 0  # the arcs MaxFlow keeps; (0, 0) is one of those dropped
        graph = csr_array(((2 * capacities[arc]).astype(np.int32), (tails[arc], heads[arc])),
                          shape=(n, n))
        expected = maximum_flow(graph, 0, 1)
        residual = graph.toarray() - expected.flow.toarray()
        scipy_reached = np.zeros(n, dtype=bool)
        scipy_reached[breadth_first_order(csr_array(residual > 0), 0,
                                          return_predecessors=False)] = True
        assert 2 * flow == expected.flow_value
        assert np.array_equal(reached, scipy_reached)


def test_maxflow_matches_cut_enumeration_on_float_networks():
    # Capacities are integers times 2^-20 at scales 2^-40, 1 and 2^40, so
    # every push, residual and cut value is exact.  Each network has nodes
    # with a source arc, a sink arc, both or neither, random arcs anywhere
    # (with the terminals at random positions), a self-loop, an arc into the
    # source, an arc out of the sink and a parallel copy of a random arc.
    # The flow must equal the smallest cut over all 2^(n-2) source sets, and
    # the nodes it reaches the intersection of the smallest cuts' source sets.
    rng = np.random.default_rng(31)
    for scale in (2.0**-40, 1.0, 2.0**40):
        for _ in range(150):
            n = int(rng.integers(2, 11))
            source, sink = (int(v) for v in rng.choice(n, 2, replace=False))
            inner = np.setdiff1d(np.arange(n), (source, sink))
            fed, drained = inner[rng.random(inner.size) < 0.7], inner[rng.random(inner.size) < 0.7]
            m, w = int(rng.integers(0, 3 * n)), rng.integers(0, n, 3)
            tails = np.concatenate((np.full(fed.size, source), drained, rng.integers(0, n, m),
                                    [w[0], w[1], sink]))
            heads = np.concatenate((fed, np.full(drained.size, sink), rng.integers(0, n, m),
                                    [source, w[1], w[2]]))
            copy = int(rng.integers(tails.size))
            tails, heads = np.append(tails, tails[copy]), np.append(heads, heads[copy])
            capacities = rng.integers(-2**10, 2**20, tails.size) * 2.0**-20 * scale
            flow, reached = qf.MaxFlow(n, tails, heads, capacities).max_flow(source, sink)

            sides = np.zeros((2 ** inner.size, n), dtype=bool)
            sides[:, source] = True
            sides[:, inner] = (np.arange(2 ** inner.size)[:, None] >> np.arange(inner.size)) & 1
            cut = (sides[:, tails] & ~sides[:, heads]) @ np.maximum(capacities, 0.0)
            assert flow == cut.min()
            assert np.array_equal(reached, sides[cut == cut.min()].all(axis=0))


def test_maxflow_second_call_finds_no_flow_and_the_same_cut():
    # The second search runs no augmentation, so its cut comes from a
    # source tree grown once over the first call's residual network.
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(0, 4 * n))
        inner = np.arange(2, n)
        tails = np.concatenate((np.zeros(n - 2, dtype=np.int64), inner, rng.integers(0, n, m)))
        heads = np.concatenate((inner, np.ones(n - 2, dtype=np.int64), rng.integers(0, n, m)))
        graph = qf.MaxFlow(n, tails, heads, rng.uniform(-1.0, 5.0, tails.size))
        _, reached = graph.max_flow(0, 1)
        again, reached_again = graph.max_flow(0, 1)
        assert again == 0.0
        assert np.array_equal(reached_again, reached)


@pytest.mark.parametrize("capacity", [np.nan, np.inf, -np.inf])
def test_maxflow_refuses_non_finite_capacities(capacity):
    with pytest.raises(ValueError, match=re.escape(f"arc 0 (0 -> 2) has capacity {capacity}")):
        qf.MaxFlow(3, [0, 2], [2, 1], [capacity, 1.0])


@pytest.mark.parametrize("tails, heads, capacities, message", [
    ([0, 5], [5, 1], [1.0, 1.0], "arc 0 (0 -> 5) is not in a 3-node network"),
    ([0, 2, -1], [2, 1, 1], [1.0, 1.0, 1.0], "arc 2 (-1 -> 1) is not in a 3-node network"),
    ([0, 2], [2, 3], [1.0, 1.0], "arc 1 (2 -> 3) is not in a 3-node network"),
    ([0, 2], [2], [1.0, 1.0], "2 tails, 1 heads, 2 capacities"),
    ([0, 2], [2, 1], [1.0], "2 tails, 2 heads, 1 capacities"),
])
def test_maxflow_refuses_malformed_arcs(tails, heads, capacities, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        qf.MaxFlow(3, tails, heads, capacities)


@pytest.mark.parametrize("pairs, message", [
    # Unchecked, variable -1's copy and anti-copy are the source and the
    # sink: the labels claimed both bits 0 at a "bound" of 0, yet bits
    # (0, 1) cost -1.
    ([[-1, 1]], "pair row 0 (-1, 1): need two distinct variables in [0, 2)"),
    ([[0, 1], [0, 2]], "pair row 1 (0, 2): need two distinct variables in [0, 2)"),
    ([[1, 1]], "pair row 0 (1, 1): need two distinct variables in [0, 2)"),
])
def test_roof_duality_refuses_malformed_pairs(pairs, message):
    tables = [[[0.0, 5.0], [5.0, 0.0]]] * len(pairs)
    with pytest.raises(ValueError, match=re.escape(message)):
        qf.roof_duality([[0.0, 1.0], [0.0, -1.0]], pairs, tables)


@pytest.mark.parametrize("tables, message", [
    # Unchecked, the first two reached the routing's np.stack, whose shape
    # error named neither argument, and a flat array was read as one table.
    (NO_TABLES, "tables has shape (0, 2, 2): need one 2x2 table for each of 1 pair rows"),
    ([[[0.0, 5.0], [5.0, 0.0]]] * 2,
     "tables has shape (2, 2, 2): need one 2x2 table for each of 1 pair rows"),
    ([0.0, 5.0, 5.0, 0.0], "tables has shape (4,): need one 2x2 table for each of 1 pair rows"),
])
def test_roof_duality_refuses_tables_not_one_per_pair_row(tables, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        qf.roof_duality([[0.0, 1.0], [0.0, -1.0]], [[0, 1]], tables)


@pytest.mark.parametrize("source, sink, message", [
    (0, 0, "source and sink are the same node 0"),
    (0, 4, "sink 4 is not a node of a 4-node network"),
    (-1, 1, "source -1 is not a node of a 4-node network"),
])
def test_maxflow_rejects_bad_terminals(source, sink, message):
    graph = qf.MaxFlow(4, [0, 2, 3], [2, 1, 1], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        graph.max_flow(source, sink)


def test_single_variable_exact():
    result = qf.roof_duality(np.array([[5.0, 3.0]]), NO_PAIRS, NO_TABLES)
    assert result.labels[0] == 1
    assert result.flow_value == pytest.approx(3.0)
    assert result.persistency_certified[0]


@pytest.mark.parametrize("tables", [[], np.empty((0, 4)), NO_TABLES])
def test_no_pairs_take_any_empty_tables(tables):
    result = qf.roof_duality([[5.0, 3.0]], [], tables)
    assert result.labels.tolist() == [1] and result.flow_value == 3.0


def test_two_variable_submodular_matches_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(100):
        unary, pairs, tables = random_binary_problem(rng, 2, edge_prob=1.0,
                                                     force_submodular=True)
        result = qf.roof_duality(unary, pairs, tables)
        energies = enumerate_binary_energies(unary, pairs, tables)
        best = min(energies.values())
        assert (result.labels >= 0).all()
        assert result.flow_value == pytest.approx(best, abs=1e-9)
        assert energies[tuple(result.labels)] == pytest.approx(best, abs=1e-9)


def test_frustrated_supermodular_cycle():
    # Equal-label conflict pattern: a 3-cycle of diagonal penalties cannot
    # be ordered into a submodular problem; the relaxation goes half
    # integral and leaves variables unlabeled.
    unary = np.zeros((3, 2))
    table = np.array([[1.0, 0.0], [0.0, 1.0]])
    pairs, tables = np.array([[0, 1], [0, 2], [1, 2]]), np.array([table] * 3)
    result = qf.roof_duality(unary, pairs, tables)
    assert (result.labels < 0).any()
    energies = enumerate_binary_energies(unary, pairs, tables)
    assert result.flow_value <= min(energies.values()) + 1e-9
    assert agreeing_optimum_exists(result.labels, energies)


def test_persistency_on_random_problems():
    rng = np.random.default_rng(29)
    for trial in range(300):
        k = int(rng.integers(2, 9))
        unary, pairs, tables = random_binary_problem(
            rng, k, force_submodular=(trial % 2 == 0))
        result = qf.roof_duality(unary, pairs, tables)
        energies = enumerate_binary_energies(unary, pairs, tables)
        assert result.flow_value <= min(energies.values()) + 1e-9
        assert agreeing_optimum_exists(result.labels, energies)
        submodular = all(t[0, 1] + t[1, 0] - t[0, 0] - t[1, 1] >= 0
                         for t in tables)
        if submodular:
            assert (result.labels >= 0).all()
            assert result.flow_value == pytest.approx(min(energies.values()), abs=1e-9)


def test_constant_passes_through():
    result = qf.roof_duality(np.array([[0.0, 2.0]]), NO_PAIRS, NO_TABLES, constant=7.5)
    assert result.flow_value == pytest.approx(7.5)


def test_separable_tables_at_large_cost_scale():
    # A table a_i + b_j has defect 0 in exact arithmetic; at 1e12 its two
    # routed halves' defects round to tiny values of either sign, which the
    # network build must not reject.
    rng = np.random.default_rng(61)
    scale = 1e12
    for _ in range(2000):
        k = int(rng.integers(2, 9))
        unary = rng.uniform(-5.0, 5.0, (k, 2)) * scale
        pairs = np.array([(i, j) for i in range(k) for j in range(i + 1, k)
                          if rng.random() < 0.6], dtype=np.int64).reshape(-1, 2)
        a, b = rng.uniform(-5.0, 5.0, (2, len(pairs), 2))
        tables = (a[:, :, None] + b[:, None, :]) * scale
        result = qf.roof_duality(unary, pairs, tables)
        energies = enumerate_binary_energies(unary, pairs, tables)
        tol = 1e-9 * (np.abs(unary).sum() + np.abs(tables).sum())
        assert result.flow_value <= min(energies.values()) + tol
        assert agreeing_optimum_exists(result.labels, energies, tol)


@pytest.mark.parametrize("scale", [2.0**-46, 2.0**40])
def test_power_of_two_scaling_leaves_labels_unchanged(scale):
    # Every step of the network build and the flow scales exactly by a
    # power of two, so with a saturation threshold relative to the largest
    # capacity the labels stay and the bound scales exactly.
    rng = np.random.default_rng(67)
    for trial in range(400):
        k = int(rng.integers(2, 9))
        unary, pairs, tables = random_binary_problem(rng, k, force_submodular=(trial % 2 == 0))
        base = qf.roof_duality(unary, pairs, tables, constant=1.5)
        scaled = qf.roof_duality(unary * scale, pairs, tables * scale, constant=1.5 * scale)
        assert np.array_equal(scaled.labels, base.labels)
        assert scaled.flow_value == base.flow_value * scale
