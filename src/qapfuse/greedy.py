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

Costs are pushed, not pulled (index arrays in :class:`~qapfuse.model.Problem`):
each slot keeps a running score, first its unary cost.  Assigning a node
adds its table column, message-adjusted given a dual state, into each
neighbour's scores, and taking a label sets its owner slots' scores to inf.
So a score adds its neighbours' columns in the order they were assigned,
and a visit is one argmin over its node's slots.

Randomness comes from numpy's PCG64 generator, seeded explicitly, so runs
are reproducible across platforms.  Frontier sampling is uniform over the
sorted frontier; insertion order cannot bias selection.
"""

from bisect import bisect_left, insort

import numpy as np

from .model import DUMMY, adjusted_tables, matching_side


def greedy_assignment(problem, rng, repar=None, adjusted=None):
    """Run the greedy construction on the original costs, or on the costs
    reparametrized by ``repar`` (its adjusted tables from ``adjusted`` if given).

    ``rng`` is an int seed or a numpy Generator.  Ties in the label argmin
    go to the lowest label id; the dummy loses every tie against a real
    label.  Returns a feasible assignment.
    """
    rng = np.random.default_rng(rng)
    n = problem.num_nodes
    score = problem.unary_flat.copy() if repar is None else matching_side(problem, repar)
    # Each label's owner slots are the run label_slots[bounds[r]:bounds[r + 1] - 1].
    bounds = problem.label_starts.tolist() + [problem.label_slots.size]
    run = np.zeros(score.size + 1, dtype=np.int64)
    run[problem.label_slots] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))

    table = problem.table_buffer if repar is None else adjusted
    table = adjusted_tables(problem, repar) if table is None else table
    dest, base, step = problem.push_dest, problem.push_table, problem.push_step
    offsets, push = problem.offsets.tolist(), problem.push_start.tolist()
    nbr_start, nbr_nodes = problem.nbr_start.tolist(), problem.nbr_nodes.tolist()
    slot_labels, run = problem.slot_labels.tolist(), run.tolist()

    labels = [DUMMY] * n
    unassigned, frontier = list(range(n)), []
    seen = [False] * n  # assigned or on the frontier
    for _ in range(n):
        pool = frontier or unassigned
        u = pool.pop(int(rng.integers(len(pool))))
        if pool is frontier:
            del unassigned[bisect_left(unassigned, u)]
        seen[u] = True

        a, b = offsets[u], offsets[u + 1]
        choice = int(score[a:b].argmin())  # the first minimum; the dummy is last
        if choice < b - a - 1:
            labels[u] = slot_labels[a + choice]
            r = run[a + choice]
            score[problem.label_slots[bounds[r]:bounds[r + 1] - 1]] = np.inf
        lo, hi = push[u], push[u + 1]
        score[dest[lo:hi]] += table[base[lo:hi] + choice * step[lo:hi]]
        for v in nbr_nodes[nbr_start[u]:nbr_start[u + 1]]:
            if not seen[v]:
                seen[v] = True
                insort(frontier, v)

    return np.array(labels, dtype=np.int64)
