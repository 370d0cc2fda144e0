"""Roof duality (QPBO) for binary pairwise energies, via max-flow.

A problem over k variables comes in the flat arrays that fusion builds:
``unary`` (k, 2), ``pairs`` (P, 2) with i < j, and ``tables`` (P, 2, 2).

The energy is doubled into a submodular surrogate over one "copy" and one
"anti-copy" node per variable: submodular tables land on (copy, copy) and
(anti, anti), supermodular ones on the mixed pairs with one argument
complemented, which flips the submodularity defect's sign.  Each half gets
half the original cost, so the surrogate agrees with the energy whenever
anti = 1 - copy.  The surrogate is solved exactly by min-cut; its value is
a lower bound on the binary minimum (tight when everything is submodular),
and variables whose copy and anti-copy end up on opposite cut sides carry
persistent labels: some optimal labeling agrees with all of them at once.

Max-flow grows Boykov and Kolmogorov's two search trees (PAMI 2004) over a
network given as arc arrays (``tails``, ``heads``, ``capacities``), after a
pre-push that sends what it can along every path source -> a -> b -> sink
(on roof duality's networks, most augmenting paths).  The labels read the
minimal minimum cut: the nodes the source reaches in the residual network
of a maximum flow, the same set for every maximum flow (Kolmogorov and
Rother, PAMI 2007).  When the search stops it is the source tree.  The
source reaches every tree node, as growth and adoption take only arcs with
a residual from parent to child and an augmentation that saturates one
orphans the child.  It reaches no other: a tree node p goes passive only
when its residual arcs all lead into the tree, and an arc p -> q gains
residual only from flow on q -> p, which needs q to be p's tree parent; if
q is later freed, p is re-activated.  An arc counts as saturated when its
residual is at most 1e-12 of the network's largest capacity, so scaling
every cost by a power of two leaves the labels unchanged.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .model import _raise_first, sequential_sum

_EPS = 1e-12


class MaxFlow:
    """Boykov-Kolmogorov search trees on paired arcs: the i-th arc of
    positive capacity becomes arc 2i (tail -> head) and its reverse arc
    2i + 1, and each node lists the arcs leaving it in arc order.

    ``max_flow`` first pre-pushes, in arc order, the smallest residual of
    source -> a, a -> b and b -> sink for every arc (a, b) between inner
    nodes.  Then a source tree and a sink tree grow over residual arcs;
    an arc from one to the other closes a path, which is augmented by its
    bottleneck.  A tree arc that saturates orphans its child, which adopts
    a same-tree neighbour still rooted at the terminal, or else goes free
    and orphans its own children.  The residual network is ``cap``.  Arcs
    must join nodes with finite capacities, and one at most 0 is dropped."""

    def __init__(self, num_nodes, tails, heads, capacities):
        tails, heads = np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
        capacities = np.asarray(capacities, dtype=np.float64)
        if not len(tails) == len(heads) == len(capacities):
            raise ValueError(f"{len(tails)} tails, {len(heads)} heads, {len(capacities)} capacities")
        outside = (np.minimum(tails, heads) < 0) | (np.maximum(tails, heads) >= num_nodes)
        _raise_first([(np.flatnonzero(outside), f"is not in a {num_nodes}-node network"),
                      (np.flatnonzero(~np.isfinite(capacities)), "has capacity {}")],
                     lambda a, text: f"arc {a} ({tails[a]} -> {heads[a]}) " + text.format(capacities[a]))
        keep = capacities > 0.0
        tails, heads, capacities = tails[keep], heads[keep], capacities[keep]
        self.to = np.stack((heads, tails), 1).ravel().tolist()
        self.cap = np.stack((capacities, np.zeros_like(capacities)), 1).ravel().tolist()
        self.eps = _EPS * float(capacities.max(initial=0.0))
        leaves = np.stack((tails, heads), 1).ravel()  # the node each arc leaves
        order = np.argsort(leaves, kind="stable").tolist()
        ends = np.cumsum(np.bincount(leaves, minlength=num_nodes)).tolist()
        self.head = [order[a:b] for a, b in zip([0] + ends, ends)]

    def max_flow(self, source, sink):
        """The maximum flow value, and the final source tree: the nodes the
        source still reaches in the residual network (the minimal min-cut)."""
        n = len(self.head)
        for name, node in (("source", source), ("sink", sink)):
            if not 0 <= node < n:
                raise ValueError(f"{name} {node} is not a node of a {n}-node network")
        if source == sink:
            raise ValueError(f"source and sink are the same node {source}")
        to, cap, eps, head = self.to, self.cap, self.eps, self.head
        total = 0.0

        # Pre-push source -> a -> b -> sink along every inner arc (a, b),
        # with one residual source arc into a and one sink arc out of b.
        into, out = [-1] * n, [-1] * n
        for arc in head[source]:
            if cap[arc] > eps:
                into[to[arc]] = arc
        for arc in head[sink]:
            if cap[arc ^ 1] > eps:
                out[to[arc]] = arc ^ 1
        into[source] = into[sink] = out[source] = out[sink] = -1
        for arc in range(0, len(to), 2):
            first, last = into[to[arc + 1]], out[to[arc]]
            if first >= 0 and last >= 0:
                push = min(cap[first], cap[arc], cap[last])
                if push > eps:
                    for x in (first, arc, last):
                        cap[x] -= push
                        cap[x ^ 1] += push
                    total += push

        # Search trees: tree[v] is 1 (source tree), -1 (sink tree) or 0
        # (free); parent[v] is the arc from v to its parent, -1 at a root
        # and -2 for an orphan.  Flow runs along parent ^ 1 in the source
        # tree and along parent in the sink tree.
        tree, parent, active = [0] * n, [-1] * n, [False] * n
        tree[source], tree[sink] = 1, -1
        active[source] = active[sink] = True
        queue = deque((source, sink))
        while queue:
            a = queue[0]
            side, meet = tree[a], -1
            flip = side < 0  # the sink tree grows along arcs into a
            for arc in head[a] if side else ():  # a free node grows nothing
                if cap[arc ^ flip] > eps:
                    b = to[arc]
                    if not tree[b]:
                        tree[b], parent[b] = side, arc ^ 1
                        if not active[b]:
                            active[b] = True
                            queue.append(b)
                    elif tree[b] != side:
                        meet = arc ^ flip
                        break
            if meet < 0:
                queue.popleft()
                active[a] = False
                continue

            # Augment source ~> to[meet ^ 1] -> to[meet] ~> sink by its
            # bottleneck; a tree arc left saturated orphans its child.
            sides = ((to[meet ^ 1], source, 1), (to[meet], sink, 0))
            bottleneck = cap[meet]
            for v, root, flip in sides:
                while v != root:
                    if cap[parent[v] ^ flip] < bottleneck:
                        bottleneck = cap[parent[v] ^ flip]
                    v = to[parent[v]]
            cap[meet] -= bottleneck
            cap[meet ^ 1] += bottleneck
            total += bottleneck
            orphans = []
            for v, root, flip in sides:
                while v != root:
                    arc = parent[v] ^ flip  # the arc that carries the flow
                    cap[arc] -= bottleneck
                    cap[arc ^ 1] += bottleneck
                    if cap[arc] <= eps:
                        parent[v] = -2
                        orphans.append(v)
                    v = to[arc ^ flip]

            # Adoption: an orphan takes the first same-tree neighbour with a
            # residual arc to it whose parent chain reaches the root (-1)
            # rather than an orphan (-2).
            for o in orphans:
                side = tree[o]
                for arc in head[o]:
                    b = to[arc]
                    if tree[b] != side or cap[arc ^ (side > 0)] <= eps:
                        continue
                    while parent[b] >= 0:
                        b = to[parent[b]]
                    if parent[b] == -1:
                        parent[o] = arc
                        break
                else:
                    # No parent: o goes free, its children become orphans
                    # and its neighbours with a residual arc to it regrow.
                    for arc in head[o]:
                        b = to[arc]
                        if tree[b] != side:
                            continue
                        if parent[b] >= 0 and to[parent[b]] == o:
                            parent[b] = -2
                            orphans.append(b)
                        if cap[arc ^ (side > 0)] > eps and not active[b]:
                            active[b] = True
                            queue.append(b)
                    tree[o] = 0

        return total, np.array(tree) == 1


@dataclass
class QpboResult:
    """Partial labeling with persistency.

    ``labels[i]`` is 0 or 1 for certified variables and -1 for unlabeled
    ones; ``flow_value`` is the roof-dual lower bound on the binary energy
    (including any constant passed in).
    """
    labels: np.ndarray
    flow_value: float

    @property
    def persistency_certified(self):
        return self.labels >= 0


def roof_duality(unary, pairs, tables, constant=0.0):
    """Solve the roof-dual relaxation of a binary pairwise energy.

    ``unary`` (k, 2), ``pairs`` (P, 2) and ``tables`` (P, 2, 2) are in the
    module's flat format; ``constant`` is added to the reported bound.
    Returns a :class:`QpboResult`.  Tables of another shape, or a pair row
    that does not join two distinct variables, raise ValueError.
    """
    half_unary = np.asarray(unary, dtype=np.float64) / 2.0
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    half = np.asarray(tables, dtype=np.float64) / 2.0
    if half.size == len(i) == 0:  # no tables for no pairs, such as [] for []
        half = half.reshape(0, 2, 2)
    if half.shape != (len(i), 2, 2):
        raise ValueError(f"tables has shape {half.shape}: need one 2x2 table "
                         f"for each of {len(i)} pair rows")
    k = len(half_unary)
    if (bad := np.flatnonzero((i == j) | (np.minimum(i, j) < 0) | (np.maximum(i, j) >= k))).size:
        r = bad[0]
        raise ValueError(f"pair row {r} ({i[r]}, {j[r]}): need two distinct variables in [0, {k})")

    # Copy node of variable v: 2 + 2v, anti-copy 3 + 2v; x = 1 is the sink
    # side.  A submodular table goes onto (copy, copy) and, complemented,
    # onto (anti, anti); a supermodular one onto the two mixed pairs.
    defect = half[:, 0, 1] + half[:, 1, 0] - half[:, 0, 0] - half[:, 1, 1]
    sub = defect >= 0.0
    routed = np.stack((np.where(sub[:, None, None], half, half[:, :, ::-1]),
                       np.where(sub[:, None, None], half[:, ::-1, ::-1], half[:, ::-1, :])), 1)
    ends = np.stack((np.stack((2 + 2 * i, 3 + 2 * j - sub), 1),
                     np.stack((3 + 2 * i, 2 + 2 * j + sub), 1)), 1)

    # A routed half t on (a, b) costs t00 + (t10 - t00) a + (t11 - t10) b
    # + |defect| a (1 - b); weights add up unaries first, then tables.
    slope = np.diff(half_unary)
    steps = np.diff(routed.reshape(-1, 2, 4)[:, :, [0, 2, 3]])  # t10 - t00, t11 - t10
    weight = np.zeros(2 + 2 * k)
    np.add.at(weight, np.concatenate((np.arange(2, 2 + 2 * k), ends.ravel())),
              np.concatenate((np.hstack((slope, -slope)).ravel(), steps.ravel())))

    # A nonnegative weight is an arc from the source, a negative one to the sink.
    nodes, to_sink = np.arange(2 + 2 * k), weight < 0.0
    graph = MaxFlow(2 + 2 * k,
                    np.concatenate((np.where(to_sink, nodes, 0), ends[..., 0].ravel())),
                    np.concatenate((np.where(to_sink, 1, nodes), ends[..., 1].ravel())),
                    np.concatenate((np.abs(weight), np.repeat(np.abs(defect), 2))))
    offset = sequential_sum(np.concatenate((
        [constant], half_unary.ravel(), routed[:, :, 0, 0].ravel(), weight[to_sink])))

    flow, reached = graph.max_flow(0, 1)
    on_copy, on_anti = reached[2:].reshape(-1, 2).T
    labels = np.where(on_copy != on_anti, on_anti, -1).astype(np.int64)
    return QpboResult(labels=labels, flow_value=offset + flow)
