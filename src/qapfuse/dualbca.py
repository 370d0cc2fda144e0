"""Monotone dual block-coordinate ascent for the graph-matching bound.

The dual objective decomposes into a matching part (per-node minima of the
reparametrized unaries plus per-edge minima of the message-adjusted
tables) and an assignment part (per-label minima of the assignment-side
unaries, clipped at the zero-cost dummy node); see :func:`dual_bound`.

Three update families raise the bound, each touching blocks of dual
variables:

* :func:`update_edge_messages` is the optimal block update for every edge
  of one level: both endpoint unaries are pushed into the edge table, then
  the table's row/column minima are redistributed back half-and-half.
  Being an exact block maximization, it can never lower the bound.  A
  level's edges share no node, so they update as one batch.  The batch is
  read column by column, as :class:`qapfuse.model.Problem` stores it, so
  each row minimum reduces over the leading axis: numpy reduces a short
  trailing axis of a small stack several times slower.
* :func:`update_node_messages` equalizes each node's matching-side unaries
  at the midpoint of its two smallest values, shifting the differences
  into the assignment side.  The dummy entry is never modified.
* :func:`update_label_messages` symmetrically equalizes each label's
  assignment-side costs across its owners at the midpoint of the two
  smallest values (the zero-cost dummy node always competes), shifting the
  differences back to the matching side.

Both midpoint updates are monotone for any dual state: the gaining side
improves by exactly half the gap between the two smallest values, while
the losing side can drop by at most that amount.  Every node and label
touches only its own slots, so each family is one segment reduction.

A :func:`sweep` runs the edge levels in order, which performs exactly the
updates of the lexicographic edge loop (see :class:`qapfuse.model.Problem`),
then the node and label updates, and re-evaluates the bound.  The solver
makes its proposals between the two phases, through the sweep's ``between``
hook, which may hand the bound its message-adjusted tables to take minima of.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .lap import label_min_term
from .model import DUMMY, Reparametrization, assignment_side, matching_side, sequential_sum

# A full sweep may lower the bound by at most this share of the larger of
# the largest cost magnitude and |bound| (rounding grows with both) before
# we call it a bug and abort.
MONOTONICITY_SLACK = 1e-9


def dual_bound(problem, repar, adjusted=None):
    """Lower bound on the optimal energy at the given dual state.

    Node minima, then edge minima in ``problem.edges`` order, then the
    label term are added one at a time, as a per-term loop would.  Edge
    minima come from ``adjusted``, ``adjusted_tables(problem, repar)``, if given.
    """
    edge_min, cell = [np.zeros(0)], 0
    for table, _, _, mu, mv in itertools.chain.from_iterable(problem.batches):
        block = (repar.adjusted_block(table, mu, mv) if adjusted is None
                 else adjusted[cell:cell + table.size].reshape(-1, *table.shape[:2]))
        cell += table.size
        edge_min.append(block.min(axis=0).min(axis=1))
    node_min = np.minimum.reduceat(matching_side(problem, repar), problem.offsets[:-1])
    terms = np.concatenate((node_min, np.concatenate(edge_min)[problem.edge_rank]))
    return sequential_sum(terms) + label_min_term(problem, repar)


def _midpoints(values, starts):
    """Per entry of ``values``, the midpoint of the two smallest entries of
    its segment (segments begin at ``starts``; a repeated minimum counts twice)."""
    segment = np.repeat(np.arange(starts.size), np.diff(np.append(starts, values.size)))
    m1 = np.minimum.reduceat(values, starts)
    is_min = values == m1[segment]
    m2 = np.minimum.reduceat(np.where(is_min, np.inf, values), starts)
    m2 = np.where(np.add.reduceat(is_min, starts, dtype=np.int64) > 1, m1, m2)
    return ((m1 + m2) / 2.0)[segment]


def update_edge_messages(problem, repar, level):
    """Optimal block update of both message directions of every edge in
    level ``level`` of ``problem.batches``.

    Accumulation moves both reparametrized unaries into the edge table;
    redistribution hands the table's minima back: half of each row minimum
    to u, then full column minima to v, then the remaining row minima to u.
    """
    side = matching_side(problem, repar)
    for table, iu, iv, mu, mv in problem.batches[level]:
        old_u, old_v = repar.batch_messages(table, mu, mv)

        by_col = table.transpose(2, 0, 1)
        msg_u = old_u + side[iu]
        msg_v = old_v + side[iv]
        adjusted = by_col + msg_u
        adjusted += msg_v.T[:, :, None]
        msg_u -= 0.5 * adjusted.min(axis=0)
        np.add(by_col, msg_u, out=adjusted)
        # A transposed copy reduced over its leading axis beats min(axis=2).
        msg_v = -np.ascontiguousarray(adjusted.transpose(2, 1, 0)).min(axis=0)
        adjusted += msg_v.T[:, :, None]
        msg_u -= adjusted.min(axis=0)

        repar.msg_sums[iu] += msg_u - old_u
        repar.msg_sums[iv] += msg_v - old_v
        old_u[:] = msg_u
        old_v[:] = msg_v


def update_node_messages(problem, repar):
    """Equalize every node's matching-side unaries at its two-smallest
    midpoint.

    After the update every real candidate of node u sits at (m1 + m2) / 2,
    where m1 and m2 are the smallest and second smallest entries (dummy
    included) before the update; the dummy entry itself is untouched.
    Nodes without candidates are left alone.
    """
    values = matching_side(problem, repar)
    real = problem.slot_labels != DUMMY
    repar.label_flat[real] += (_midpoints(values, problem.offsets[:-1]) - values)[real]


def update_label_messages(problem, repar):
    """Equalize every label's assignment-side costs at its two-smallest
    midpoint.

    Candidates are the label's owners plus the zero-cost dummy node.  After
    the update every owner's assignment-side cost equals the midpoint of
    the two smallest candidate values; differences move to the matching
    side.  Labels nobody owns are left alone.
    """
    slots = problem.label_slots
    values = np.append(assignment_side(problem, repar), 0.0)[slots]
    owner = slots < problem.slot_labels.size
    repar.label_flat[slots[owner]] += (values - _midpoints(values, problem.label_starts))[owner]


@dataclass
class DualState:
    """Mutable solver state: the dual variables, the last evaluated bound,
    and the number of completed sweeps.  Single-writer."""
    repar: Reparametrization
    dual_bound: float
    sweep_counter: int = 0

    @classmethod
    def initial(cls, problem):
        repar = Reparametrization(problem)
        return cls(repar=repar, dual_bound=dual_bound(problem, repar))


def sweep(problem, state, between=None):
    """One full ascent pass; the bound never decreases across it.

    Edge updates run level by level, which equals the lexicographic edge
    order.  ``between()``, if given, runs between the edge phase and the
    node and label updates; the bound reads the adjusted tables it returns.
    """
    before = state.dual_bound

    for level in range(len(problem.batches)):
        update_edge_messages(problem, state.repar, level)
    adjusted = between() if between is not None else None

    update_node_messages(problem, state.repar)
    update_label_messages(problem, state.repar)

    state.dual_bound = dual_bound(problem, state.repar, adjusted)
    state.sweep_counter += 1

    slack = MONOTONICITY_SLACK * max(problem.cost_scale, abs(before))
    if state.dual_bound < before - slack:
        raise RuntimeError(
            f"dual bound decreased across sweep {state.sweep_counter}: "
            f"{before!r} -> {state.dual_bound!r}")
