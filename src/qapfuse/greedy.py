"""Randomized greedy construction of feasible assignments.

Nodes are visited in random order, but always preferring the frontier: the
set of unassigned neighbors of already-assigned nodes.  Each visited node
takes the cheapest still-available label (or the dummy), counting its unary
cost plus pairwise costs to already-assigned neighbors.  Labels taken by
earlier nodes are excluded, so the result is feasible by construction.

The same routine runs on the original costs or, given a dual state, on its
reparametrized costs (matching-side unaries and message-adjusted edge
tables); in the latter case proposals improve as the dual bound does,
while their quality is still judged by original energy.  Every cost is
read from the problem's flat arrays: an assigned neighbour's table column
is a strided slice of ``table_buffer``, its two messages are slices of
``edge_flat``.

Randomness comes from numpy's PCG64 generator, seeded explicitly, so runs
are reproducible across platforms.  Frontier sampling is uniform over the
sorted frontier; insertion order cannot bias selection.
"""

import numpy as np

from .model import DUMMY, matching_side


def greedy_assignment(problem, rng, repar=None):
    """Run the greedy construction on the original costs, or on the costs
    reparametrized by ``repar`` when it is given.

    ``rng`` is an int seed or a numpy Generator.  Ties in the label argmin
    go to the lowest label id; the dummy loses every tie against a real
    label.  Returns a feasible assignment.
    """
    rng = np.random.default_rng(rng)
    n = problem.num_nodes
    unary = problem.unary_flat if repar is None else matching_side(problem, repar)
    table = problem.table_buffer
    offsets, nbr_start = problem.offsets.tolist(), problem.nbr_start.tolist()
    edge_start, edge_cols = problem.edge_start.tolist(), problem.edge_cols.tolist()
    msg_start = problem.msg_start.tolist()

    labels = np.full(n, DUMMY, dtype=np.int64)
    local = [0] * n
    assigned = np.zeros(n, dtype=bool)
    frontier = np.zeros(n, dtype=bool)
    used = np.zeros(problem.num_labels, dtype=bool)

    for _ in range(n):
        pool = np.flatnonzero(frontier)
        if not pool.size:
            pool = np.flatnonzero(~assigned)
        u = int(pool[int(rng.integers(pool.size))])

        a, b = offsets[u], offsets[u + 1]
        k = b - a - 1  # candidates; slot a + k is the dummy
        totals = unary[a:b].copy()
        lo, hi = nbr_start[u], nbr_start[u + 1]
        nbrs = problem.nbr_nodes[lo:hi]
        done = assigned[nbrs]
        for v, e in zip(nbrs[done].tolist(), problem.nbr_edges[lo:hi][done].tolist()):
            t, s, cols = local[v], edge_start[e], edge_cols[e]
            # u's labels index the table's rows when u < v, else its columns.
            if u < v:
                column = table[s + t:s + (k + 1) * cols:cols]
                mu, mv = msg_start[e]
            else:
                column = table[s + t * cols:s + (t + 1) * cols]
                mv, mu = msg_start[e]
            if repar is not None:
                column = column + repar.edge_flat[mu:mu + k + 1] + repar.edge_flat[mv + t]
            totals += column
        totals[:k][used[problem.slot_labels[a:a + k]]] = np.inf

        choice = int(np.argmin(totals))  # the first minimum; the dummy is last
        labels[u] = problem.slot_labels[a + choice]
        if choice < k:
            used[labels[u]] = True
        local[u] = choice
        assigned[u] = True
        frontier[u] = False
        frontier[nbrs[~assigned[nbrs]]] = True

    return labels
