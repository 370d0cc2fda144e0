"""Randomized greedy construction of feasible assignments.

Nodes are visited in random order, but always preferring the frontier: the
set of unassigned neighbors of already-assigned nodes.  Each visited node
takes the cheapest still-available label (or the dummy), counting its unary
cost plus pairwise costs to already-assigned neighbors.  Labels taken by
earlier nodes are excluded, so the result is feasible by construction.

The same routine runs on the original costs or, given a dual state, on its
reparametrized costs (matching-side unaries and message-adjusted edge
tables); in the latter case proposals improve as the dual bound does,
while their quality is still judged by original energy.

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

    labels = np.full(n, DUMMY, dtype=np.int64)
    local = np.empty(n, dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    used = set()
    frontier = set()
    remaining = n

    while remaining:
        if frontier:
            pool = sorted(frontier)
        else:
            pool = [u for u in range(n) if not assigned[u]]
        u = pool[int(rng.integers(len(pool)))]

        totals = unary[problem.offsets[u]:problem.offsets[u + 1]].copy()
        for v in problem.neighbors[u]:
            if assigned[v]:
                t = local[v]
                column = problem.pairwise_table(u, v)[:, t]
                if repar is not None:
                    column = column + repar.edge_msg[(u, v)] + repar.edge_msg[(v, u)][t]
                totals = totals + column
        k = problem.num_candidates(u)
        blocked = [i for i, s in enumerate(problem.candidate_labels[u]) if int(s) in used]
        if blocked:
            totals[blocked] = np.inf

        best = np.min(totals)
        choice = k  # dummy unless a real label matches the minimum
        for i in range(k):
            if totals[i] == best:
                choice = i
                break

        if choice == k:
            labels[u] = DUMMY
        else:
            labels[u] = problem.candidate_labels[u][choice]
            used.add(int(labels[u]))
        local[u] = choice
        assigned[u] = True
        remaining -= 1
        frontier.discard(u)
        for v in problem.neighbors[u]:
            if not assigned[v]:
                frontier.add(v)

    return labels
