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
import operator

import numpy as np

DUMMY = -1


def sequential_sum(values):
    """Left-to-right float sum from 0.0, as a plain Python loop would add."""
    return float(np.add.accumulate(np.append(0.0, values))[-1])


def _raise_first(rules, message):
    """Raise ValueError(message(item, text)) for the lowest item that a rule
    (its breaking items, ascending; text) lists, with the first such text."""
    hits = [(items[0], text) for items, text in rules if len(items)]
    if hits:
        raise ValueError(message(*min(hits, key=lambda hit: hit[0])))


class Problem:
    """Immutable quadratic-assignment instance.

    Parameters
    ----------
    num_nodes, num_labels:
        Sizes of the node set and the global label pool, integers or integral floats.
    candidate_labels:
        Per node, a strictly increasing sequence of integral global label ids.
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

    Greedy keeps one score per slot.  Node v's pushes are the entries
    ``push_start[v]:push_start[v + 1]``: when v takes local label t, entry i
    adds cell ``push_table[i] + t * push_step[i]`` of ``table_buffer``, or
    of :func:`adjusted_tables` given a dual state, to the score of the
    neighbour's slot ``push_dest[i]``.  The instance is safe to share across
    threads.
    """

    def __init__(self, num_nodes, num_labels, candidate_labels, unary, pairwise=None):
        if not all(float(s).is_integer() and s >= 0 for s in (num_nodes, num_labels)):
            raise ValueError(f"negative sizes or not integers: {num_nodes}, {num_labels}")
        if len(candidate_labels) != num_nodes or len(unary) != num_nodes:
            raise ValueError("candidate_labels/unary must have one entry per node")
        self.num_nodes, self.num_labels = n, L = int(num_nodes), int(num_labels)

        # Each rule lists the nodes, then the edges, that break it, by one mask.
        cands = [np.asarray(c) for c in candidate_labels]
        costs = [np.asarray(c, dtype=np.float64) for c in unary]
        size = np.array([c.size for c in cands], dtype=np.int64) + 1
        node = np.repeat(np.arange(n), size - 1)
        raw = np.concatenate([np.zeros(0, np.int64), *cands], axis=None)
        labels = np.where(raw == np.trunc(raw), raw.clip(-1, L), -1).astype(np.int64)
        self.unary_flat = np.concatenate([np.zeros(0), *costs], axis=None)
        _raise_first([
            (node[(raw < 0) | (raw >= L)], "candidate label out of range"),
            (node[labels != raw], "candidate label not an integer"),
            (node[(np.diff(labels, prepend=0) <= 0) & (np.diff(node, prepend=-1) == 0)],
             "candidate labels must be strictly increasing"),
            ([u for u, (c, k) in enumerate(zip(costs, size.tolist())) if c.shape != (k,)],
             "unary vector must have {} entries (dummy last)"),
            (np.repeat(np.arange(n), [c.size for c in costs])[~np.isfinite(self.unary_flat)],
             "non-finite unary cost")], lambda u, text: f"node {u}: " + text.format(size[u]))

        self.offsets = np.concatenate(([0], np.cumsum(size)))
        self.slot_labels = np.insert(labels, np.cumsum(size - 1), DUMMY)
        self.unary_flat.flags.writeable = False
        # node * (num_labels + 1) + label, the dummy as num_labels: sorted.
        self.slot_keys = np.repeat(np.arange(n) * (L + 1), size) + self.slot_labels % (L + 1)

        items = sorted((pairwise or {}).items())
        self.edges = [(operator.index(u), operator.index(v)) for (u, v), _ in items]
        tables = [np.asarray(t, dtype=np.float64) for _, t in items]
        self.edge_nodes = np.fromiter(itertools.chain(*self.edges), np.int64).reshape(-1, 2)
        u, v = self.edge_nodes.T
        bad = np.flatnonzero((u < 0) | (u >= v) | (v >= n))
        want = list(zip(*np.append(size, 0)[self.edge_nodes.T.clip(-1, n)].tolist()))
        wrong = [e for e, (t, w) in enumerate(zip(tables, want)) if t.shape != w]
        if not (bad.size or wrong):
            self._build_tables(tables)
        # Costs are one mask over the built buffer, else checked table by table.
        nonfinite = ([] if not (bad.size or wrong) and np.isfinite(self.table_buffer).all() else
                     [e for e, t in enumerate(tables) if not np.isfinite(t).all()])
        _raise_first([(bad, "bad edge ({}, {}): need 0 <= u < v < num_nodes"),
                      (wrong, "edge ({}, {}): table shape {}, expected {}"),
                      (nonfinite, "edge ({}, {}): non-finite pairwise cost")],
                     lambda e, text: text.format(*self.edges[e], tables[e].shape, want[e]))

        # Every edge once from each end, sorted by (node, neighbour).
        own, other = np.append(u, v), np.append(v, u)
        order = np.lexsort((other, own))
        self.nbr_nodes = other[order]
        self.nbr_edges = np.tile(np.arange(len(self.edges)), 2)[order]
        self.nbr_start = np.concatenate(([0], np.cumsum(np.bincount(own, minlength=n))))

        # Entry c (node v, neighbour u, edge e) pushes one cell into each slot j of u.
        u, e = self.nbr_nodes, self.nbr_edges
        width = size[u]
        entry = np.repeat(np.arange(u.size), width)
        j = np.arange(entry.size) - (np.cumsum(width) - width)[entry]
        self.push_start = np.concatenate(([0], np.cumsum(width)))[self.nbr_start]
        self.push_dest = self.offsets[u][entry] + j
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
        self.label_slots = np.insert(owned[np.argsort(first[label], kind="stable")],
                                     np.cumsum(count), self.slot_labels.size)

        self.cost_scale = max(float(max(c.max(initial=0.0), -c.min(initial=0.0)))
                              for c in (self.unary_flat, self.table_buffer))

    def _build_tables(self, tables):
        """Level the edges, lay the tables out in the read-only table buffer
        and build the per-level batches and per-edge indices that address it."""
        last, level = [0] * self.num_nodes, []
        for u, v in self.edges:
            level.append(last[u] if last[u] > last[v] else last[v])
            last[u] = last[v] = level[-1] + 1
        # Buffer order sorts the edges by key = (level, a, b).  The edge at its
        # position p is the i[p]-th of a run of g[p] that starts at first[p].
        key = np.array([level, *np.diff(self.offsets)[self.edge_nodes.T]], dtype=np.int64)
        order = np.lexsort(key[::-1])
        rank = self.edge_rank = np.argsort(order)
        _, a, b = key = key[:, order]
        new = np.diff(key, prepend=-1).any(0)
        head, run = np.flatnonzero(new), np.cumsum(new) - 1
        first, g, i = head[run], np.bincount(run)[run], np.arange(run.size) - head[run]
        cell, msg = np.cumsum([np.append(0, a * b), np.append(0, a + b)], axis=1)
        self.edge_start, self.edge_stride = (cell[first] + a * i)[rank], (g * a)[rank]
        self.msg_start = (msg[first, None] + np.column_stack((a * i, g * a + b * i)))[rank]
        self.table_buffer = np.empty(cell[-1])
        slot = self.offsets[self.edge_nodes[order]]
        cell, msg, order, head, (lev, a, b) = (x.tolist() for x in (cell, msg, order, head, key))
        self.msg_size = msg[-1]

        # One batch per level, one entry per table shape in it: the (G, a, b)
        # tables, a view of a C-contiguous (b, G, a) block, the (G, a) slots
        # of the u endpoints and the (G, b) slots of the v endpoints, and the
        # offsets of the (G, a) u-side and (G, b) v-side message blocks.
        self.batches = [[] for _ in range(max(level, default=-1) + 1)]
        for s, t in zip(head, head[1:] + [len(order)]):
            block = self.table_buffer[cell[s]:cell[t]].reshape(b[s], t - s, a[s])
            np.concatenate([tables[e] for e in order[s:t]], out=block.reshape(b[s], -1).T)
            block.flags.writeable = False
            self.batches[lev[s]].append((
                block.transpose(1, 2, 0), slot[s:t, :1] + np.arange(a[s]),
                slot[s:t, 1:] + np.arange(b[s]), msg[s], msg[s] + (t - s) * a[s]))
        self.table_buffer.flags.writeable = False

    def slots(self, x):
        """Flat slot of every node's label in assignment x; ValueError
        unless x is a domain-valid assignment of integral labels."""
        raw = np.asarray(x)
        if raw.shape != (self.num_nodes,):
            raise ValueError(f"assignment must have {self.num_nodes} entries")
        L = self.num_labels
        # A label with a fractional part, or out of range, becomes -2, no label.
        x = raw.astype(np.int64) if raw.dtype.kind in "bi" else np.where(
            raw == np.trunc(raw), raw.clip(-2, L), -2).astype(np.int64)
        keys = np.arange(self.num_nodes) * (L + 1) + np.where(x == DUMMY, L, x)
        slots = np.searchsorted(self.slot_keys, keys)
        found = self.slot_keys[np.minimum(slots, self.slot_keys.size - 1)] == keys
        bad = np.flatnonzero(~(found & ((x == DUMMY) | ((x >= 0) & (x < L)))))
        _raise_first([(bad, "label {} not in its candidate set")], lambda u, text: f"node {u}: " + (
            text if raw[u] == np.trunc(raw[u]) else "label {} not an integer").format(raw[u]))
        return slots

    def __repr__(self):
        return (f"Problem(num_nodes={self.num_nodes}, num_labels={self.num_labels}, "
                f"num_edges={len(self.edges)})")


def all_dummy(problem):
    """The all-dummy assignment (always feasible)."""
    return np.full(problem.num_nodes, DUMMY, dtype=np.int64)


def validate_assignment(problem, x):
    """Raise ValueError unless x is a domain-valid assignment; return it as int64."""
    problem.slots(x)
    return np.asarray(x, dtype=np.int64)


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
