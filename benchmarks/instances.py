"""Seeded instance families for the benchmark, and the independent oracles
that check the solver's outputs.

Every generator takes a seed and is vectorised with numpy; the costs
handed to ``write_dd`` are Python floats, because ``write_dd`` writes costs
with ``repr`` and ``repr(np.float64(x))`` is ``np.float64(x)`` under numpy
2, which ``parse_dd`` rejects.

Costs follow the ``.dd`` convention: real assignments and pairs carry
costs, the dummy costs 0, so a good matching has negative energy.

The oracles (:func:`energy_by_loops`, :func:`exact_fusion`,
:func:`naive_bound`) re-walk the generator's own arrays and share no code
with the library they check.
"""

import io
from dataclasses import dataclass

import numpy as np

DUMMY = -1


@dataclass
class Instance:
    """One generated instance.

    ``cand[u]`` is node u's sorted candidate labels; ``unary[u]`` their costs
    (no dummy entry); ``tables[e]`` the real-label block of edge ``edges[e]``
    (u < v), rows over ``cand[u]`` and columns over ``cand[v]``.
    """
    num_nodes: int
    num_labels: int
    cand: list
    unary: list
    edges: list
    tables: list
    planted: np.ndarray

    def dd_text(self):
        """The instance as `.dd` text, written by the library's ``write_dd``."""
        from qapfuse import DdAssignment, DdInstance, write_dd

        first_id = np.cumsum([0] + [len(c) for c in self.cand])
        assignments = [
            DdAssignment(int(first_id[u] + i), u, s, c)
            for u in range(self.num_nodes)
            for i, (s, c) in enumerate(zip(self.cand[u].tolist(), self.unary[u].tolist()))]
        sink = io.StringIO()
        write_dd(DdInstance(self.num_nodes, self.num_labels, assignments,
                            _PairTerms(self, first_id)), sink)
        return sink.getvalue()

    def cost_scale(self):
        return (sum(float(np.abs(c).sum()) for c in self.unary)
                + sum(float(np.abs(t).sum()) for t in self.tables))


class _PairTerms:
    """The pairwise lines of an Instance, made one edge at a time so that
    writing the text never holds every term in memory at once."""

    def __init__(self, inst, first_id):
        self.inst = inst
        self.first_id = first_id

    def __len__(self):
        return sum(t.size for t in self.inst.tables)

    def __iter__(self):
        from qapfuse import DdPairwiseTerm

        for (u, v), table in zip(self.inst.edges, self.inst.tables):
            ku, kv = table.shape
            ids_u = np.repeat(self.first_id[u] + np.arange(ku), kv).tolist()
            ids_v = np.tile(self.first_id[v] + np.arange(kv), ku).tolist()
            for a, b, c in zip(ids_u, ids_v, table.ravel().tolist()):
                yield DdPairwiseTerm(a, b, c)


def _pair_distances(a, b):
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))


def knn_instance(seed, n=300, candidates=10, neighbours=8):
    """Sparse geometric matching with a planted permutation.

    Points ``P`` (unit density) map to labels at ``Q[planted[u]] = P[u]``
    plus noise.  Each node's candidates are its nearest labels (the planted
    one always included); unary costs are distance plus descriptor noise;
    edges join each node to its nearest neighbours, and a pair (s, t) on
    edge (u, v) costs the distortion of the displacement P_v - P_u.
    """
    rng = np.random.default_rng(seed)
    side = np.sqrt(n)
    P = rng.uniform(0.0, side, (n, 2))
    planted = rng.permutation(n)
    Q = np.empty((n, 2))
    Q[planted] = P + rng.normal(0.0, 0.25, (n, 2))

    dist = _pair_distances(P, Q)
    nearest = np.argsort(dist, axis=1)[:, :candidates]
    missing = ~(nearest == planted[:, None]).any(axis=1)
    nearest[missing, -1] = planted[missing]
    cand = [np.sort(row) for row in nearest]
    unary = [dist[u, c] + rng.normal(0.0, 0.4, c.size) - 1.0 for u, c in enumerate(cand)]

    near = np.argsort(_pair_distances(P, P), axis=1)[:, 1:neighbours + 1]
    edges = sorted({(min(u, v), max(u, v)) for u in range(n) for v in near[u].tolist()})
    tables = []
    for u, v in edges:
        want = P[v] - P[u]
        got = Q[cand[v]][None, :, :] - Q[cand[u]][:, None, :]
        distortion = ((got - want) ** 2).sum(axis=-1)
        tables.append(np.minimum(distortion, 3.0) - 1.0)
    return Instance(n, n, cand, unary, edges, tables, planted)


def dense_instance(seed, n=30):
    """Hotel-like dense matching: n landmarks seen in two frames.

    Every label is a candidate of every node and the graph is complete.
    The second frame is a rotated, scaled, shifted copy with noise; unary
    costs compare noisy descriptors, pairwise costs the change in length
    and direction of each pair of landmarks plus independent noise, which
    keeps the relaxation from being tight.
    """
    rng = np.random.default_rng(seed)
    P = rng.uniform(0.0, 1.0, (n, 2))
    planted = rng.permutation(n)
    angle = rng.uniform(-0.3, 0.3)
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    Q = np.empty((n, 2))
    Q[planted] = 1.1 * P @ rot.T + 0.2 + rng.normal(0.0, 0.05, (n, 2))
    f = rng.normal(0.0, 1.0, (n, 8))
    g = np.empty((n, 8))
    g[planted] = f + rng.normal(0.0, 0.5, (n, 8))

    cand = [np.arange(n) for _ in range(n)]
    desc = _pair_distances(f, g)
    unary = [desc[u] / 2.0 - 1.0 for u in range(n)]

    dp = P[None, :, :] - P[:, None, :]          # dp[u, v] = P_v - P_u
    dq = Q[None, :, :] - Q[:, None, :]
    len_p = np.linalg.norm(dp, axis=-1)
    len_q = np.linalg.norm(dq, axis=-1)
    ang_p = np.arctan2(dp[..., 1], dp[..., 0])
    ang_q = np.arctan2(dq[..., 1], dq[..., 0])
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    noise = rng.normal(0.0, 0.3, (len(edges), n, n))
    tables = []
    for (u, v), extra in zip(edges, noise):
        d_len = np.abs(len_q - 1.1 * len_p[u, v]) / (0.1 + len_p[u, v])
        d_ang = np.abs(np.angle(np.exp(1j * (ang_q - ang_p[u, v] - angle))))
        tables.append(0.2 * (np.minimum(d_len + d_ang, 2.0) - 1.0) + extra)
    return Instance(n, n, cand, unary, edges, tables, planted)


def relabel(inst, seed, assignments=()):
    """The same instance with its labels renumbered at random, and each
    given assignment carried over to the new numbering.

    Energies and the optimum are unchanged, and so is the node order, which
    the dual sweep and greedy follow; each node's candidates are re-sorted
    by their new numbers.
    """
    label_of = np.random.default_rng(seed).permutation(inst.num_labels)

    def carry(x):
        x = np.asarray(x)
        return np.where(x == DUMMY, DUMMY, label_of[x])

    order = [np.argsort(label_of[c]) for c in inst.cand]
    tables = [t[np.ix_(order[u], order[v])] for (u, v), t in zip(inst.edges, inst.tables)]
    moved = Instance(inst.num_nodes, inst.num_labels,
                     [label_of[c][o] for c, o in zip(inst.cand, order)],
                     [c[o] for c, o in zip(inst.unary, order)],
                     list(inst.edges), tables, carry(inst.planted))
    return moved, [carry(x) for x in assignments]


def energy_by_loops(inst, x):
    """Energy of assignment x by a plain loop over the generator's arrays."""
    pos = []
    total = 0.0
    for u in range(inst.num_nodes):
        if x[u] == DUMMY:
            pos.append(None)
            continue
        i = int(np.searchsorted(inst.cand[u], x[u]))
        if i >= inst.cand[u].size or inst.cand[u][i] != x[u]:
            raise ValueError(f"node {u}: label {x[u]} is not a candidate")
        pos.append(i)
        total += float(inst.unary[u][i])
    for (u, v), table in zip(inst.edges, inst.tables):
        if pos[u] is not None and pos[v] is not None:
            total += float(table[pos[u], pos[v]])
    return total


def feasible(x):
    real = [int(s) for s in x if s != DUMMY]
    return len(real) == len(set(real))


def naive_bound(inst):
    """Lower bound on every assignment's energy: each node and each edge at
    its own minimum, dummy (cost 0) included."""
    total = sum(min(0.0, float(c.min())) for c in inst.unary)
    return total + sum(min(0.0, float(t.min())) for t in inst.tables)


def _cost_arrays(inst):
    """Dense per-node unary (dummy last) and per-edge tables with a zero
    dummy row and column, indexed by local position."""
    unary = [np.append(c, 0.0) for c in inst.unary]
    tables = [np.pad(t, ((0, 1), (0, 1))) for t in inst.tables]
    return unary, tables


def _local(inst, u, s):
    return inst.cand[u].size if s == DUMMY else int(np.searchsorted(inst.cand[u], s))


def exact_fusion(inst, x1, x2):
    """Best feasible assignment that takes each node from x1 or x2, found by
    scoring all 2^k choices over the k disagreeing nodes at once.

    Ties go to the smallest code with bit i = 1 meaning free node i takes
    x2, the order in which the library enumerates.
    """
    free = [u for u in range(inst.num_nodes) if x1[u] != x2[u]]
    k = len(free)
    bits = (np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1
    labels = np.tile(np.asarray(x1), (2 ** k, 1))
    labels[:, free] = np.where(bits == 1, np.asarray(x2)[free], np.asarray(x1)[free])

    unary, tables = _cost_arrays(inst)
    local = np.empty_like(labels)
    for u in range(inst.num_nodes):
        choices = {int(x1[u]), int(x2[u])}
        for s in choices:
            local[labels[:, u] == s, u] = _local(inst, u, s)
    total = np.zeros(2 ** k)
    for u in range(inst.num_nodes):
        total += unary[u][local[:, u]]
    for (u, v), table in zip(inst.edges, tables):
        total += table[local[:, u], local[:, v]]

    ordered = np.sort(np.where(labels == DUMMY, -np.arange(1, inst.num_nodes + 1), labels), axis=1)
    ok = (np.diff(ordered, axis=1) != 0).all(axis=1)
    total[~ok] = np.inf
    best = int(np.argmin(total))
    return labels[best].copy(), float(total[best])


def _perturb(rng, inst, x, k):
    """Copy of x with k random nodes moved to other labels or the dummy;
    each moved node takes its planted label, when that differs from x,
    with probability one half."""
    y = np.array(x)
    for u in rng.choice(inst.num_nodes, size=k, replace=False).tolist():
        if inst.planted[u] != x[u] and rng.random() < 0.5:
            y[u] = inst.planted[u]
            continue
        options = [s for s in [DUMMY] + inst.cand[u].tolist() if s != x[u]]
        y[u] = options[int(rng.integers(len(options)))]
    return y


def fusion_sequence(seed, n=16, free=(12, 13, 13, 13), middle=2):
    """Small dense instance plus a proposal list for ``fuse_sequence``.

    The first proposal is a feasible perturbation of the planted
    permutation, which ``fuse_sequence`` takes as its incumbent.  Each
    later proposal differs from the incumbent expected at that point in
    exactly ``free[i]`` nodes, so every fusion has a known number of free
    variables and a run's cost does not depend on the seed.  Proposal
    ``middle`` is redrawn until its fusion strictly improves, so the
    incumbent first reaches the energy expected after it exactly there.

    Returns ``(instance, proposals, expected)`` where ``expected[i]`` is the
    incumbent energy after step i, from :func:`exact_fusion`.
    """
    rng = np.random.default_rng(seed)
    inst = dense_instance(seed, n)
    incumbent = np.array(inst.planted)
    while True:
        start = _perturb(rng, inst, incumbent, n // 2)
        if feasible(start):
            break
    proposals = [start]
    incumbent = start
    expected = [energy_by_loops(inst, start)]
    for step, k in enumerate(free, start=1):
        while True:
            proposal = _perturb(rng, inst, incumbent, k)
            fused, value = exact_fusion(inst, incumbent, proposal)
            if step != middle or value < expected[-1]:
                break
        proposals.append(proposal)
        incumbent = fused
        expected.append(value)
    return inst, proposals, expected
