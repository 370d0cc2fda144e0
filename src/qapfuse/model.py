"""Graph-matching (quadratic assignment) problem model.

An instance is an undirected graph whose nodes pick labels from per-node
candidate sets drawn from a global label pool.  Every node may instead take
the distinguished dummy label (sentinel ``DUMMY``), meaning "unassigned".
Costs are real-valued: one unary cost per node and candidate (plus dummy),
one dense pairwise table per edge over both endpoints' candidates (plus
dummy).  An assignment is *feasible* when no non-dummy label is used by two
distinct nodes; the dummy may repeat freely.

Assignments are plain integer numpy arrays of length ``num_nodes`` holding
global label ids, with ``DUMMY`` (= -1) for the dummy.

A :class:`Problem` is stored once, in flat arrays; its per-node and
per-edge attributes (``unary``, ``pairwise``, ...) are views into them.

:class:`Reparametrization` holds the dual variables: per-edge message
vectors in both directions (shifting cost between node unaries and edge
tables) and per-node label messages (shifting cost between the matching
side and the linear-assignment side).  Every assignment's total energy is
invariant under them; see :func:`reparametrized_unary`,
:func:`reparametrized_pairwise` and :func:`lap_unary`.

All costs are doubles.  Cost magnitudes are assumed to stay comfortably
inside double range; overflow behaviour is undefined.
"""

import itertools

import numpy as np

DUMMY = -1


def sequential_sum(values):
    """Left-to-right float sum from 0.0, as a plain Python loop would add."""
    return float(np.add.accumulate(np.append(0.0, values))[-1])


class Problem:
    """Immutable quadratic-assignment instance.

    Parameters
    ----------
    num_nodes, num_labels:
        Sizes of the node set and the global label pool.
    candidate_labels:
        Per node, a strictly increasing sequence of global label ids.
    unary:
        Per node, a cost vector of length ``len(candidate_labels[u]) + 1``;
        the trailing entry is the dummy cost.
    pairwise:
        Mapping ``(u, v) -> table`` with ``u < v`` and table shape
        ``(k_u + 1, k_v + 1)``; dummy row/column last.  Missing edges simply
        have no table.

    Layout: node u owns the *slots* ``offsets[u]:offsets[u + 1]`` (its
    candidates, then the dummy), and ``unary_flat``, ``slot_labels`` and the
    messages run over slots.  Edge (u, v) gets level 1 + the largest level
    of earlier ``edges`` touching u or v, so a level's edges share no node
    and running ``levels`` in order equals the lexicographic edge loop.
    ``table_buffer`` holds every table, read-only, in (level, shape) order;
    ``batches[level]`` cuts it into zero-copy ``(G, a, b)`` stacks.  The
    instance is safe to share across threads after construction.
    """

    def __init__(self, num_nodes, num_labels, candidate_labels, unary, pairwise=None):
        if num_nodes < 0 or num_labels < 0:
            raise ValueError("negative sizes")
        if len(candidate_labels) != num_nodes or len(unary) != num_nodes:
            raise ValueError("candidate_labels/unary must have one entry per node")

        self.num_nodes = n = int(num_nodes)
        self.num_labels = int(num_labels)

        labels, costs = [], []
        for u in range(n):
            cand = np.asarray(candidate_labels[u], dtype=np.int64)
            if cand.size and (cand.min() < 0 or cand.max() >= num_labels):
                raise ValueError(f"node {u}: candidate label out of range")
            if cand.size and not np.all(np.diff(cand) > 0):
                raise ValueError(f"node {u}: candidate labels must be strictly increasing")
            cost = np.asarray(unary[u], dtype=np.float64)
            if cost.shape != (cand.size + 1,):
                raise ValueError(f"node {u}: unary vector must have {cand.size + 1} entries (dummy last)")
            if not np.all(np.isfinite(cost)):
                raise ValueError(f"node {u}: non-finite unary cost")
            labels += [cand, [DUMMY]]
            costs.append(cost)

        size = np.array([c.size for c in costs], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(size)))
        self.slot_labels = np.concatenate(labels or [np.zeros(0, np.int64)]).astype(np.int64)
        self.unary_flat = np.concatenate(costs or [np.zeros(0)])
        self.unary_flat.flags.writeable = False
        # node * (num_labels + 1) + label, the dummy as num_labels: sorted.
        self.slot_keys = np.repeat(np.arange(n), size) * (self.num_labels + 1) + np.where(
            self.slot_labels == DUMMY, self.num_labels, self.slot_labels)
        spans = list(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()))
        self.candidate_labels = [self.slot_labels[a:b - 1] for a, b in spans]
        self.unary = [self.unary_flat[a:b] for a, b in spans]

        items = sorted((pairwise or {}).items())
        self.edges = []
        last = [0] * n
        level = []
        for (u, v), table in items:
            if not (0 <= u < v < num_nodes):
                raise ValueError(f"bad edge ({u}, {v}): need 0 <= u < v < num_nodes")
            t = np.asarray(table, dtype=np.float64)
            want = (int(size[u]), int(size[v]))
            if t.shape != want:
                raise ValueError(f"edge ({u}, {v}): table shape {t.shape}, expected {want}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"edge ({u}, {v}): non-finite pairwise cost")
            self.edges.append((u, v))
            level.append(max(last[u], last[v]))
            last[u] = last[v] = level[-1] + 1
        self._build_tables([t for _, t in items], level)

        self.neighbors = [[] for _ in range(n)]
        for u, v in self.edges:
            self.neighbors[u].append(v)
            self.neighbors[v].append(u)  # sorted, as edges are

        # label_owners[s] = [(node, local index), ...] for every node whose
        # candidate set contains the global label s.  label_slots lists each
        # label's owner slots and then the sentinel slot len(slot_labels),
        # the zero-cost dummy node, in label_owners order.
        self.label_owners = {}
        for u, cand in enumerate(self.candidate_labels):
            for i, s in enumerate(cand.tolist()):
                self.label_owners.setdefault(s, []).append((u, i))
        sentinel = self.slot_labels.size
        owner_slots, starts = [], []
        for owners in self.label_owners.values():
            starts.append(len(owner_slots))
            owner_slots += [spans[u][0] + i for u, i in owners] + [sentinel]
        self.label_slots = np.array(owner_slots, dtype=np.int64)
        self.label_starts = np.array(starts, dtype=np.int64)

        self.cost_scale = max(float(max(c.max(initial=0.0), -c.min(initial=0.0)))
                              for c in (self.unary_flat, self.table_buffer))

    def _build_tables(self, tables, level):
        """Fill the read-only table buffer in (level, shape) order, and the
        per-level batches and per-edge indices that address it."""
        shape = [t.shape for t in tables]
        order = sorted(range(len(tables)), key=lambda e: (level[e], shape[e], e))
        start = np.cumsum([0] + [tables[e].size for e in order]).tolist()
        self.table_buffer = np.empty(start[-1])
        for e, s in zip(order, start):
            self.table_buffer[s:s + tables[e].size] = tables[e].ravel()
        self.table_buffer.flags.writeable = False

        # edge_rank[e]: position of edge e in buffer order; edge_start and
        # edge_cols address its table inside the buffer.
        self.edge_rank = np.empty(len(order), dtype=np.int64)
        self.edge_rank[order] = np.arange(len(order))
        self.edge_start = np.array(start[:-1], dtype=np.int64)[self.edge_rank]
        self.edge_cols = np.array([b for _, b in shape], dtype=np.int64)
        self.edge_nodes = np.array(self.edges, dtype=np.int64).reshape(-1, 2)
        self.pairwise = {edge: self.table_buffer[s:s + t.size].reshape(t.shape)
                         for edge, s, t in zip(self.edges, self.edge_start.tolist(), tables)}

        # One batch per level, one entry per table shape in it: the (G, a, b)
        # tables, the first slots of the u and v endpoints, the offsets of
        # the (G, a) u-side and (G, b) v-side message blocks, and the edges.
        self.levels = [[] for _ in range(max(level, default=-1) + 1)]
        for e, lev in enumerate(level):
            self.levels[lev].append(self.edges[e])
        self.batches = [[] for _ in self.levels]
        msg = pos = 0
        for (lev, (a, b)), run in itertools.groupby(order, key=lambda e: (level[e], shape[e])):
            run = list(run)
            g = len(run)
            ends = self.edge_nodes[run]
            self.batches[lev].append(
                (self.table_buffer[start[pos]:start[pos + g]].reshape(g, a, b),
                 self.offsets[ends[:, 0]], self.offsets[ends[:, 1]], msg, msg + g * a,
                 [self.edges[e] for e in run]))
            msg += g * (a + b)
            pos += g
        self.msg_size = msg

    def num_candidates(self, u):
        return self.candidate_labels[u].size

    def local_index(self, u, s):
        """Map a global label (or DUMMY) to node u's local index."""
        cand = self.candidate_labels[u]
        if s == DUMMY:
            return cand.size
        i = int(np.searchsorted(cand, s))
        if i < cand.size and cand[i] == s:
            return i
        raise ValueError(f"label {s} is not a candidate of node {u}")

    def slots(self, x):
        """Flat slot of every node's label in assignment x; ValueError
        unless x is a domain-valid assignment."""
        x = np.asarray(x, dtype=np.int64)
        if x.shape != (self.num_nodes,):
            raise ValueError(f"assignment must have {self.num_nodes} entries")
        L = self.num_labels
        keys = np.arange(self.num_nodes) * (L + 1) + np.where(x == DUMMY, L, x)
        slots = np.searchsorted(self.slot_keys, keys)
        found = self.slot_keys[np.minimum(slots, self.slot_keys.size - 1)] == keys
        bad = np.flatnonzero(~(found & ((x == DUMMY) | ((x >= 0) & (x < L)))))
        if bad.size:
            u = int(bad[0])
            raise ValueError(f"node {u}: label {x[u]} not in its candidate set")
        return slots

    def owners(self, s):
        return self.label_owners.get(int(s), [])

    def pairwise_table(self, u, v):
        """Cost table oriented as (u-labels, v-labels) for edge {u, v}."""
        if u < v:
            return self.pairwise[(u, v)]
        return self.pairwise[(v, u)].T

    def __repr__(self):
        return (f"Problem(num_nodes={self.num_nodes}, num_labels={self.num_labels}, "
                f"num_edges={len(self.edges)})")


def all_dummy(problem):
    """The all-dummy assignment (always feasible)."""
    return np.full(problem.num_nodes, DUMMY, dtype=np.int64)


def validate_assignment(problem, x):
    """Raise ValueError unless x is a domain-valid assignment array."""
    x = np.asarray(x, dtype=np.int64)
    problem.slots(x)
    return x


def energy(problem, x):
    """Total cost of an assignment: unary sum plus pairwise sum, added in
    node order and then in edge order.

    Feasibility is not required; only domain validity is checked.
    """
    slots = problem.slots(x)
    local = slots - problem.offsets[:-1]
    u, v = problem.edge_nodes.T
    pair = problem.table_buffer[problem.edge_start + local[u] * problem.edge_cols + local[v]]
    return sequential_sum(np.concatenate((problem.unary_flat[slots], pair)))


def labels_distinct(x):
    """True iff no non-dummy label repeats in the label array x."""
    used = x[x != DUMMY]
    return np.unique(used).size == used.size


def is_feasible(problem, x):
    """True iff no non-dummy label is used by two distinct nodes."""
    return labels_distinct(validate_assignment(problem, x))


class Reparametrization:
    """Dual variables over a Problem; total energy of any assignment is
    invariant under them.

    Three flat arrays hold them: ``edge_flat`` (edge messages, laid out
    like the problem's table batches), ``label_flat`` and ``msg_sums``
    (label messages and the sum of each node's outgoing edge messages, both
    over the problem's slots).  The per-edge and per-node views stay:

    edge_msg[(u, v)]:
        one vector per ordered edge direction, length k_u + 1 (dummy last);
        both directions exist for every edge.
    label_msg[u]:
        vector of length k_u + 1; the dummy entry is pinned to half the
        node's dummy cost, so the assignment-side dummy cost is always 0.

    Mutate through :meth:`set_edge_msg` / :meth:`set_label_msg` (or the dual
    update routines) so the message sums stay consistent.  A
    Reparametrization is an independently owned mutable value; it is not
    internally synchronized.
    """

    def __init__(self, problem):
        self.problem = problem
        self.edge_flat = np.zeros(problem.msg_size)
        self.label_flat = np.where(problem.slot_labels == DUMMY, problem.unary_flat / 2.0, 0.0)
        self.msg_sums = np.zeros(problem.unary_flat.size)
        self.edge_msg = {}
        for batch in problem.batches:
            for table, _, _, mu, mv, edges in batch:
                for (u, v), msg_u, msg_v in zip(edges, *self.batch_messages(table, mu, mv)):
                    self.edge_msg[(u, v)], self.edge_msg[(v, u)] = msg_u, msg_v
        offsets = problem.offsets.tolist()
        self.label_msg = [self.label_flat[a:b] for a, b in zip(offsets, offsets[1:])]

    def batch_messages(self, table, mu, mv):
        """The (G, a) u-side and (G, b) v-side message views of one batch."""
        g, a, b = table.shape
        return (self.edge_flat[mu:mu + g * a].reshape(g, a),
                self.edge_flat[mv:mv + g * b].reshape(g, b))

    def msg_sum(self, u):
        return self.msg_sums[self.problem.offsets[u]:self.problem.offsets[u + 1]]

    def set_edge_msg(self, u, v, values):
        values = np.asarray(values, dtype=np.float64)
        old = self.edge_msg[(u, v)]
        if values.shape != old.shape:
            raise ValueError("edge message has wrong length")
        self.msg_sum(u)[:] += values - old
        old[:] = values

    def set_label_msg(self, u, values):
        """Set the real-label entries of node u's label message (dummy pinned)."""
        values = np.asarray(values, dtype=np.float64)
        k = self.problem.num_candidates(u)
        if values.shape != (k,):
            raise ValueError("label message must cover the real candidates only")
        self.label_msg[u][:k] = values


def matching_side(problem, repar):
    """:func:`reparametrized_unary_vector` of every node, over all slots."""
    return problem.unary_flat / 2.0 + repar.label_flat - repar.msg_sums


def assignment_side(problem, repar):
    """:func:`lap_unary_vector` of every node, over all slots."""
    return problem.unary_flat / 2.0 - repar.label_flat


def reparametrized_unary_vector(problem, repar, u):
    """Matching-side unary view at node u: theta/2 + label message - edge messages."""
    return problem.unary[u] / 2.0 + repar.label_msg[u] - repar.msg_sum(u)


def reparametrized_pairwise_table(problem, repar, u, v):
    """Edge table plus both incoming edge messages, oriented (u-labels, v-labels)."""
    table = problem.pairwise_table(u, v)
    return table + repar.edge_msg[(u, v)][:, None] + repar.edge_msg[(v, u)][None, :]


def lap_unary_vector(problem, repar, u):
    """Assignment-side unary view at node u: theta/2 - label message.

    The dummy entry is identically zero because the dummy label message is
    pinned to half the dummy cost.
    """
    return problem.unary[u] / 2.0 - repar.label_msg[u]


def reparametrized_unary(problem, repar, u, s):
    return float(reparametrized_unary_vector(problem, repar, u)[problem.local_index(u, s)])


def reparametrized_pairwise(problem, repar, u, v, s, t):
    table = reparametrized_pairwise_table(problem, repar, u, v)
    return float(table[problem.local_index(u, s), problem.local_index(v, t)])


def lap_unary(problem, repar, u, s):
    return float(lap_unary_vector(problem, repar, u)[problem.local_index(u, s)])
