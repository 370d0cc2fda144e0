"""Linear assignment: the pairwise-free side of the dual decomposition.

Two jobs live here.  :func:`solve_lap` solves the assignment-side problem
exactly (each node takes one of its candidates or the zero-cost dummy, no
label reused) and backs the LAP primal heuristic.  :func:`label_min_term`
is the closed-form relaxation of the same costs used inside the dual
bound: per label, the cheapest owner is taken when negative, dropping the
one-label-per-node coupling, so it can only underestimate the LAP optimum.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .model import DUMMY, assignment_side, lap_unary_vector, sequential_sum


@dataclass
class LapInstance:
    """Assignment-side costs: per node, one cost per candidate label.

    The dummy option always exists and costs 0.
    """
    num_nodes: int
    num_labels: int
    candidate_labels: list
    costs: list

    @classmethod
    def from_reparametrization(cls, problem, repar):
        costs = [lap_unary_vector(problem, repar, u)[:problem.num_candidates(u)]
                 for u in range(problem.num_nodes)]
        return cls(problem.num_nodes, problem.num_labels,
                   [np.asarray(c) for c in problem.candidate_labels], costs)


def solve_lap(instance):
    """Exact minimum of the linear assignment instance.

    Returns ``(assignment, value)`` where the assignment maps each node to
    a candidate label or DUMMY and no label repeats.  Solved by the
    Hungarian-class solver in scipy on a rectangular matrix with one
    zero-cost dummy column per node.
    """
    n, L = instance.num_nodes, instance.num_labels
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0.0

    blocked = 1.0 + sum(float(np.abs(np.asarray(c)).sum()) for c in instance.costs)
    matrix = np.full((n, L + n), blocked)
    for u in range(n):
        matrix[u, L + u] = 0.0  # private dummy column
        cand = instance.candidate_labels[u]
        if len(cand):
            matrix[u, np.asarray(cand, dtype=np.int64)] = instance.costs[u]

    rows, cols = linear_sum_assignment(matrix)
    labels = np.full(n, DUMMY, dtype=np.int64)
    value = 0.0
    for u, c in zip(rows, cols):
        if c < L:
            # A non-candidate (blocked) cell can never be optimal: the
            # private dummy column is always available at cost 0.
            assert matrix[u, c] != blocked
            pos = int(np.searchsorted(np.asarray(instance.candidate_labels[u]), c))
            labels[u] = c
            value += float(instance.costs[u][pos])
    return labels, value


def label_min_term(problem, repar):
    """Sum over labels of min(0, cheapest owner's assignment-side cost),
    added one label at a time in ``problem.label_owners`` order."""
    values = np.append(assignment_side(problem, repar), 0.0)[problem.label_slots]
    best = np.minimum.reduceat(values, problem.label_starts)
    return sequential_sum(np.where(best < 0.0, best, 0.0))
