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
  level's edges share no node, so they update as one batch.
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
then the node and label updates, and re-evaluates the bound, skipping the
edge minima when rounding provably cannot move it.  The solver makes its
proposals between the two phases, through the sweep's ``between`` hook.
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


def dual_bound(problem, repar):
    """Lower bound on the optimal energy at the given dual state.

    Node minima, then edge minima in ``problem.edges`` order, then the
    label term are added one at a time, as a per-term loop would.
    """
    edge_min = [np.zeros(0)] + [repar.adjusted_block(table, mu, mv).min(axis=0).min(axis=1)
                                for table, _, _, mu, mv in itertools.chain(*problem.batches)]
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
    Returns the largest magnitude of a half-step u-message, for :func:`sweep`.
    """
    side, half = matching_side(problem, repar), 0.0
    for table, iu, iv, mu, mv in problem.batches[level]:
        old_u, old_v = repar.batch_messages(table, mu, mv)

        # Column by column, as stored: row minima reduce the (several times faster) leading axis.
        by_col = table.transpose(2, 0, 1)
        msg_u = old_u + side[iu]
        msg_v = old_v + side[iv]
        adjusted = by_col + msg_u
        adjusted += msg_v.T[:, :, None]
        msg_u -= 0.5 * adjusted.min(axis=0)
        half = max(half, np.abs(msg_u).max())
        np.add(by_col, msg_u, out=adjusted)
        # A transposed copy reduced over its leading axis beats min(axis=2).
        msg_v = -np.ascontiguousarray(adjusted.transpose(2, 1, 0)).min(axis=0)
        adjusted += msg_v.T[:, :, None]
        msg_u -= adjusted.min(axis=0)

        repar.msg_sums[iu] += msg_u - old_u
        repar.msg_sums[iv] += msg_v - old_v
        old_u[:] = msg_u
        old_v[:] = msg_v
    return half


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


def sweep(problem, state, between=lambda: None):
    """One full ascent pass in level order; the bound never decreases across
    it.  ``between()`` runs after the edge phase and must not change the state.

    Bound = head (the node minima summed in order) + the edge minima + the
    label term.  Let u = 2^-53, T = ``cost_scale``, M = max|edge_flat|, H =
    max|h| over half-step u-messages h, and the allowance a = u(2T + 2H +
    3M)(1 + 2^-40).  Per row the update takes P = fl(t + h), v = -min_i P, A
    = fl(P + v) >= 0, r = min_j A, mu = fl(h - r); the bound C = fl(fl(t +
    mu) + v) = A - r + E, E = e3 + e4 + e5 - e1 - e2 by rounding errors.  As
    min_j (A - r) = 0, |edge minimum| <= |E| where A = r, or where C is
    least if < 0; there 0 <= A - r <= |E|, |C| <= |E|, and as a sum errs by
    <= u times its exact and its rounded value, |e1| <= u(T + H), |e2| <= uA
    <= u(H + M + uM + |E|) (r = h - mu + e3), |e3| <= uM, |e4| <= u(T + M),
    |e5| <= u|E|: (1 - 2u)|E| <= u(2T + 2H + 3M + uM), so |E| <= a, a's four
    roundings and a subnormal a (off by <= 2^-1075) included.  If head != 0
    and a < ulp(head) / 4, head + each edge minimum rounds to head (a power
    of two too), and the edge pass is skipped.  A NaN fails the test.
    """
    before, repar = state.dual_bound, state.repar

    half = max([update_edge_messages(problem, repar, level)
                for level in range(len(problem.batches))], default=0.0)
    between()

    update_node_messages(problem, repar)
    update_label_messages(problem, repar)

    head = sequential_sum(np.minimum.reduceat(matching_side(problem, repar), problem.offsets[:-1]))
    allowance = 2.0**-53 * (1.0 + 2.0**-40) * (2.0 * (problem.cost_scale + half)
                                               + 3.0 * np.abs(repar.edge_flat).max(initial=0.0))
    skip = head != 0.0 and allowance < np.spacing(abs(head)) / 4.0
    state.dual_bound = head + label_min_term(problem, repar) if skip else dual_bound(problem, repar)
    state.sweep_counter += 1

    slack = MONOTONICITY_SLACK * max(problem.cost_scale, abs(before))
    if state.dual_bound < before - slack:
        raise RuntimeError(f"dual bound decreased across sweep {state.sweep_counter}: "
                           f"{before!r} -> {state.dual_bound!r}")
