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

Max-flow is Dinic's level-graph augmenting-path scheme over a network
given as arc arrays (``tails``, ``heads``, ``capacities``), built in one
step.  It returns the flow value together with the nodes its last BFS
reached, the source side of the minimal minimum cut.  An arc counts as
saturated when its residual is at most 1e-12 of the network's largest
capacity, so scaling every cost by a power of two leaves the labels
unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .model import sequential_sum

_EPS = 1e-12


class MaxFlow:
    """Dinic's level-graph scheme (repeated BFS layering plus DFS blocking
    flows) on paired arcs: the i-th arc of positive capacity becomes arc 2i
    (tail -> head) and its reverse arc 2i + 1, and each node lists the arcs
    leaving it in arc order."""

    def __init__(self, num_nodes, tails, heads, capacities):
        capacities = np.asarray(capacities, dtype=np.float64)
        keep = capacities > 0.0
        tails = np.asarray(tails, dtype=np.int64)[keep]
        heads = np.asarray(heads, dtype=np.int64)[keep]
        capacities = capacities[keep]
        self.to = np.stack((heads, tails), 1).ravel().tolist()
        self.cap = np.stack((capacities, np.zeros_like(capacities)), 1).ravel().tolist()
        self.eps = _EPS * float(capacities.max(initial=0.0))
        leaves = np.stack((tails, heads), 1).ravel()  # the node each arc leaves
        order = np.argsort(leaves, kind="stable").tolist()
        ends = np.cumsum(np.bincount(leaves, minlength=num_nodes)).tolist()
        self.head = [order[a:b] for a, b in zip([0] + ends, ends)]

    def max_flow(self, source, sink):
        """The maximum flow value, and which nodes the source still reaches
        in the residual network (the source side of the minimal min-cut)."""
        to, cap, eps, head = self.to, self.cap, self.eps, self.head
        total = 0.0
        while True:
            # Each node's BFS depth from the source, -1 where unreached.
            level = [-1] * len(head)
            level[source] = 0
            queue = [source]
            for a in queue:
                depth = level[a] + 1
                for arc in head[a]:
                    b = to[arc]
                    if level[b] < 0 and cap[arc] > eps:
                        level[b] = depth
                        queue.append(b)
            if level[sink] < 0:
                return total, np.array(level) >= 0
            # Iterative DFS in the level graph: advance along the first
            # usable arc at each node's cursor, augment at the sink, and on
            # a dead end retreat and skip the arc that led there.
            cursor = [0] * len(head)
            path, a = [], source
            while True:
                if a == sink:
                    bottleneck = min(cap[arc] for arc in path)
                    for arc in path:
                        cap[arc] -= bottleneck
                        cap[arc ^ 1] += bottleneck
                    total += bottleneck
                    path, a = [], source
                    continue
                arcs, c, depth = head[a], cursor[a], level[a] + 1
                while c < len(arcs) and not (cap[arcs[c]] > eps and level[to[arcs[c]]] == depth):
                    c += 1
                cursor[a] = c
                if c < len(arcs):
                    path.append(arcs[c])
                    a = to[arcs[c]]
                elif path:
                    a = to[path.pop() ^ 1]
                    cursor[a] += 1
                else:
                    break


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
    Returns a :class:`QpboResult`.
    """
    half_unary = np.asarray(unary, dtype=np.float64) / 2.0
    i, j = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
    half = np.asarray(tables, dtype=np.float64).reshape(-1, 2, 2) / 2.0
    k = len(half_unary)

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
