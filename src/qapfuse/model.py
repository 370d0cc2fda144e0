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

A :class:`Problem` is stored once, in flat arrays over *slots* (a node's
candidates, then its dummy) and over edges; there are no per-node or
per-edge views.

:class:`Reparametrization` holds the dual variables: per-edge message
vectors in both directions (shifting cost between node unaries and edge
tables) and per-node label messages (shifting cost between the matching
side and the linear-assignment side).  Every assignment's total energy is
invariant under them: it equals its :func:`matching_side` and
:func:`assignment_side` costs plus its message-adjusted edge table cells.

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
    messages run over slots.  Edge e = ``edges[e]`` = (u, v) gets level 1 +
    the largest level of earlier edges touching u or v, so a level's edges
    share no node and running the levels in order equals the lexicographic
    edge loop.  ``table_buffer`` holds every table, read-only, in (level,
    shape) order, a run of G tables of shape (a, b) column by column as one
    C-contiguous (b, G, a) block: cell (i, j) of edge e is at ``edge_start[e]
    + i + j * edge_stride[e]``, with ``edge_stride[e]`` = G a.
    ``batches[level]`` views each block as a zero-copy ``(G, a, b)`` stack.
    Edge e's u-side and v-side message blocks start at ``msg_start[e]`` in
    the reparametrization's ``edge_flat``.  Node u's neighbours, ascending,
    are ``nbr_nodes[nbr_start[u]:nbr_start[u + 1]]`` with their edges in
    ``nbr_edges``.

    Greedy's buffer gives node u the cells ``block_start[u]:block_start[u +
    1]``, as rows ``k_u + 1`` wide: its unary row, a block per neighbour in
    ``nbr_nodes`` order, and a blocked row.  Node v's pushes are the entries
    ``push_start[v]:push_start[v + 1]``: when v takes local label t, entry i
    writes cell ``push_table[i] + t * push_step[i]`` of ``table_buffer``, or
    of :func:`adjusted_tables` given a dual state, to buffer cell
    ``push_dest[i]``.  The instance is safe to share across threads.
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

        self.edges = []
        last = [0] * n
        level, tables = [], []
        for (u, v), table in sorted((pairwise or {}).items()):
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
            tables.append(t)
        self._build_tables(tables, level)

        # Every edge once from each end, sorted by (node, neighbour).
        own = self.edge_nodes.T.ravel()
        other = self.edge_nodes[:, ::-1].T.ravel()
        order = np.lexsort((other, own))
        self.nbr_nodes = other[order]
        self.nbr_edges = np.tile(np.arange(len(self.edges)), 2)[order]
        self.nbr_start = np.concatenate(([0], np.cumsum(np.bincount(own, minlength=n))))

        # Entry c (node v, neighbour u, edge e) pushes to row 1 + back[c] -
        # nbr_start[u], where back[c] is u's entry for v, one cell per slot j.
        back = np.argsort(order).reshape(2, -1)[::-1].ravel()[order]
        u, e = self.nbr_nodes, self.nbr_edges
        width = size[u]
        entry = np.repeat(np.arange(u.size), width)
        j = np.arange(entry.size) - (np.cumsum(width) - width)[entry]
        self.block_start = np.concatenate(([0], np.cumsum((np.diff(self.nbr_start) + 2) * size)))
        self.push_start = np.concatenate(([0], np.cumsum(width)))[self.nbr_start]
        self.push_dest = (self.block_start[u] + (back - self.nbr_start[u] + 1) * width)[entry] + j
        rows = u < own[order]  # u's labels index the table's rows
        stride = self.edge_stride[e]
        self.push_table = self.edge_start[e][entry] + j * np.where(rows, 1, stride)[entry]
        self.push_step = np.where(rows, stride, 1)[entry]

        # label_slots lists each owned label's owner slots in slot order and
        # then the sentinel slot len(slot_labels), the zero-cost dummy node;
        # labels run in the order of their first owner slot, and
        # label_starts[r] is where the r-th label's run begins.
        owned = np.flatnonzero(self.slot_labels != DUMMY)
        _, first, label, count = np.unique(self.slot_labels[owned], return_index=True,
                                           return_inverse=True, return_counts=True)
        count = count[np.argsort(first)]
        self.label_starts = np.cumsum(count + 1) - count - 1
        self.label_slots = np.full(owned.size + count.size, self.slot_labels.size)
        self.label_slots[np.arange(owned.size) + np.repeat(np.arange(count.size), count)] = (
            owned[np.argsort(first[label], kind="stable")])

        self.cost_scale = max(float(max(c.max(initial=0.0), -c.min(initial=0.0)))
                              for c in (self.unary_flat, self.table_buffer))

    def _build_tables(self, tables, level):
        """Lay the float64 tables out in the read-only table buffer in
        (level, shape) order, each run column by column, and build the
        per-level batches and per-edge indices that address it."""
        shape = [t.shape for t in tables]
        order = sorted(range(len(tables)), key=lambda e: (level[e], shape[e], e))
        self.table_buffer = np.empty(sum(t.size for t in tables))
        self.edge_nodes = np.array(self.edges, dtype=np.int64).reshape(-1, 2)

        # edge_rank[e]: position of edge e in buffer order.  Cell (i, j) of
        # edge e is table_buffer[edge_start[e] + i + j * edge_stride[e]].
        self.edge_rank = np.empty(len(order), dtype=np.int64)
        self.edge_rank[order] = np.arange(len(order))
        self.edge_start = np.empty(len(order), dtype=np.int64)
        self.edge_stride = np.empty(len(order), dtype=np.int64)

        # One batch per level, one entry per table shape in it: the (G, a, b)
        # tables, a view of a C-contiguous (b, G, a) block, the (G, a) slots
        # of the u endpoints and the (G, b) slots of the v endpoints, and the
        # offsets of the (G, a) u-side and (G, b) v-side message blocks.
        self.batches = [[] for _ in range(max(level, default=-1) + 1)]
        self.msg_start = np.empty((len(order), 2), dtype=np.int64)
        msg = cell = 0
        for (lev, (a, b)), run in itertools.groupby(order, key=lambda e: (level[e], shape[e])):
            run = list(run)
            g = len(run)
            block = self.table_buffer[cell:cell + g * a * b].reshape(b, g, a)
            np.concatenate([tables[e].T for e in run], axis=1, out=block.reshape(b, g * a))
            block.flags.writeable = False
            ends = self.edge_nodes[run]
            self.batches[lev].append((block.transpose(1, 2, 0),
                                      self.offsets[ends[:, :1]] + np.arange(a),
                                      self.offsets[ends[:, 1:]] + np.arange(b), msg, msg + g * a))
            self.edge_start[run] = cell + a * np.arange(g)
            self.edge_stride[run] = g * a
            self.msg_start[run, 0] = msg + a * np.arange(g)
            self.msg_start[run, 1] = msg + g * a + b * np.arange(g)
            msg += g * (a + b)
            cell += g * a * b
        self.table_buffer.flags.writeable = False
        self.msg_size = msg

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
    pair = problem.table_buffer[problem.edge_start + local[u] + local[v] * problem.edge_stride]
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
    like the problem's table batches; edge e's u-side and v-side blocks,
    one entry per slot of that endpoint, start at ``problem.msg_start[e]``),
    ``label_flat`` and ``msg_sums`` (label messages and the sum of each
    node's edge messages, both over the problem's slots).  Each dummy slot's
    label message is pinned to half the node's dummy cost, so the
    assignment-side dummy cost is always 0.

    The state changes only through the dual update routines of
    :mod:`qapfuse.dualbca`, which keep ``msg_sums`` consistent.  A
    Reparametrization is an independently owned mutable value; it is not
    internally synchronized.
    """

    def __init__(self, problem):
        self.edge_flat = np.zeros(problem.msg_size)
        self.label_flat = np.where(problem.slot_labels == DUMMY, problem.unary_flat / 2.0, 0.0)
        self.msg_sums = np.zeros(problem.unary_flat.size)

    def batch_messages(self, table, mu, mv):
        """The (G, a) u-side and (G, b) v-side message views of one batch."""
        g, a, b = table.shape
        return (self.edge_flat[mu:mu + g * a].reshape(g, a),
                self.edge_flat[mv:mv + g * b].reshape(g, b))

    def adjusted_block(self, table, mu, mv, out=None):
        """One batch's tables plus both edge messages, each cell as (cell + u-side
        message) + v-side message, in a (b, G, a) array (``out`` if given)."""
        msg_u, msg_v = self.batch_messages(table, mu, mv)
        out = np.add(table.transpose(2, 0, 1), msg_u, out=out)
        out += msg_v.T[:, :, None]
        return out


def adjusted_tables(problem, repar):
    """Every table plus both of its edge messages, laid out like ``table_buffer``."""
    adjusted, cell = np.empty(problem.table_buffer.size), 0
    for table, _, _, mu, mv in itertools.chain.from_iterable(problem.batches):
        block = adjusted[cell:cell + table.size].reshape(-1, *table.shape[:2])
        repar.adjusted_block(table, mu, mv, block)
        cell += table.size
    return adjusted


def matching_side(problem, repar):
    """Matching-side unary cost of every slot: theta / 2 + label message -
    the node's edge messages."""
    return problem.unary_flat / 2.0 + repar.label_flat - repar.msg_sums


def assignment_side(problem, repar):
    """Assignment-side unary cost of every slot: theta / 2 - label message,
    0 at every dummy slot."""
    return problem.unary_flat / 2.0 - repar.label_flat
