"""Fusion moves: combine two assignments into one at least as good.

Fusing an incumbent x1 (must be feasible) with an arbitrary proposal x2
restricts every node to the two-label set {x1_u, x2_u}.  Nodes where the
proposals agree are folded away into a constant and into their neighbors'
unary costs; the terms are gathered from the problem's flat arrays as
:func:`~qapfuse.model.energy` gathers them.  The incumbent's side is
binary 0 and the proposal's side binary 1, so the all-zeros labeling
decodes to x1.

Feasibility has one rule: a labeling is feasible exactly when its decode
repeats no non-dummy label (:func:`~qapfuse.model.labels_distinct`).
Inside the auxiliary problem that rule becomes a penalty on every cell
that would give one label to two nodes: between two free variables it
sits in their (possibly newly created) 2x2 table, between a free variable
and a folded node on the free variable's unary side.  The penalty is local
to each fusion: 1 + the sum of the ranges of the auxiliary problem's own
unary rows and tables, so it exceeds the energy difference of any two
labelings, and costs between folded nodes do not touch it.

The auxiliary problem is solved either exactly (enumeration of the
feasible decodes, the desk-scale oracle) or by roof duality plus a seeded
1-swap improvement pass ("qpbo-i").  Either way the result is feasible and
never worse than x1 (nor than x2 when x2 is feasible): one active penalty
exceeds any possible energy difference, so the final energy check can
always fall back to x1.

:func:`count_bound` bounds the number of feasible solutions of the
auxiliary problem: with m dummies and n distinct non-dummy labels in the
proposal it is 2^m * (|V|/n + 1)^n, the n = 0 case degenerating to 2^m.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import DUMMY, energy, labels_distinct, sequential_sum, validate_assignment
from .qpbo import roof_duality

MAX_EXACT_VARIABLES = 20
_COUNT_SATURATION = 2**63 - 1


@dataclass
class FusionProblem:
    """Two-label auxiliary problem over the disagreeing nodes.

    ``free_nodes`` are the nodes where incumbent and proposal differ, in
    node order; variable i decides node ``free_nodes[i]``.  ``unary`` has
    one (cost0, cost1) row per free variable and ``tables`` maps
    free-variable index pairs (i < j) to 2x2 cost tables, penalties
    included.  ``base_energy`` collects all folded-away costs and
    ``big_cost`` is the uniqueness penalty.
    """
    problem: object
    incumbent: np.ndarray
    proposal: np.ndarray
    free_nodes: np.ndarray
    unary: np.ndarray
    tables: dict
    base_energy: float
    big_cost: float

    @property
    def num_variables(self):
        return len(self.free_nodes)

    def decode(self, bits):
        """Assignment selected by a binary labeling of the free variables."""
        x = self.incumbent.copy()
        u = self.free_nodes
        x[u] = np.where(np.asarray(bits, dtype=bool), self.proposal[u], x[u])
        return x

    def binary_energy(self, bits):
        """base_energy + unary + pairwise of the binary labeling
        (penalties included)."""
        total = self.base_energy
        for i in range(self.num_variables):
            total += self.unary[i, bits[i]]
        for (i, j), table in self.tables.items():
            total += table[bits[i], bits[j]]
        return float(total)


def build_fusion(problem, x1, x2):
    """Construct the auxiliary problem for fusing feasible x1 with x2."""
    x1, x2 = np.asarray(x1, dtype=np.int64), np.asarray(x2, dtype=np.int64)
    slots = np.stack((problem.slots(x1), problem.slots(x2)))  # validates both
    if not labels_distinct(x1):
        raise ValueError("fusion requires a feasible incumbent")

    free = x1 != x2
    free_nodes = np.flatnonzero(free)
    var = np.cumsum(free) - 1                  # var[u]: u's variable if u is free
    unary = problem.unary_flat[slots[:, free_nodes].T]

    # Edge cells gathered as energy() does; lu/lv[side, e]: local indices.
    local = slots - problem.offsets[:-1]
    u, v = problem.edge_nodes.T
    lu, lv = local[:, u], local[:, v]

    def cells(e, row, col):
        return problem.table_buffer[problem.edge_start[e] + row * problem.edge_cols[e] + col]

    fu, fv = free[u], free[v]
    inner = np.flatnonzero(~fu & ~fv)         # edges between folded nodes
    base = sequential_sum(np.concatenate((
        problem.unary_flat[slots[0, ~free]], cells(inner, lu[0, inner], lv[0, inner]))))

    # An edge with one free end adds to that end's unary row, in edge order.
    one = np.flatnonzero(fu != fv)
    at_u = fu[one]
    rows = np.where(at_u, lu[:, one], lu[0, one])
    cols = np.where(at_u, lv[0, one], lv[:, one])
    np.add.at(unary, var[np.where(at_u, u[one], v[one])], cells(one, rows, cols).T)

    both = np.flatnonzero(fu & fv)
    blocks = cells(both[:, None, None], lu[:, both].T[:, :, None], lv[:, both].T[:, None, :])
    tables = dict(zip(zip(var[u[both]].tolist(), var[v[both]].tolist()), blocks))

    # One penalty exceeds the energy difference of any two labelings.
    big = 1.0 + float(np.ptp(unary, axis=1).sum() + np.ptp(blocks, axis=(1, 2)).sum())

    # Penalize every side whose label a folded node holds, and every pair
    # of sides of two variables that share a label.
    choices = np.stack((x1[free_nodes], x2[free_nodes]), axis=1)
    held = x1[~free]
    unary[np.isin(choices, held[held != DUMMY])] += big
    sides_of = {}
    for i, pair in enumerate(choices.tolist()):
        for side, s in enumerate(pair):
            if s != DUMMY:
                sides_of.setdefault(s, []).append((i, side))
    for entries in sides_of.values():
        for a, (i, si) in enumerate(entries):
            for j, sj in entries[a + 1:]:
                if i != j:
                    key, cell = ((i, j), (si, sj)) if i < j else ((j, i), (sj, si))
                    tables.setdefault(key, np.zeros((2, 2)))[cell] += big

    return FusionProblem(
        problem=problem, incumbent=x1.copy(), proposal=x2.copy(),
        free_nodes=free_nodes, unary=unary, tables=tables,
        base_energy=base, big_cost=big)


def proposal_counts(problem, x2):
    """(m, n): the dummies and the distinct non-dummy labels of x2."""
    x2 = validate_assignment(problem, x2)
    return int(np.sum(x2 == DUMMY)), int(np.unique(x2[x2 != DUMMY]).size)


def count_bound(problem, x2):
    """Upper bound on the feasible solutions of any fusion with proposal x2.

    Returns an int, or None when the bound exceeds 2^63 - 1.
    """
    m, n = proposal_counts(problem, x2)
    if n == 0:
        bound = Fraction(2) ** m
    else:
        bound = Fraction(2) ** m * (Fraction(problem.num_nodes, n) + 1) ** n
    value = -(-bound.numerator // bound.denominator)  # ceiling
    return None if value > _COUNT_SATURATION else int(value)


def solve_qpbo(fp):
    """Roof duality on the auxiliary problem; see :mod:`qapfuse.qpbo`."""
    return roof_duality(fp.num_variables, fp.unary, fp.tables,
                        constant=fp.base_energy)


def penalty_free_labelings(fp):
    """Every feasible decode of the auxiliary problem, in bit-code order
    (bit i of the code labels variable i), so the incumbent comes first.

    A labeling activates a uniqueness penalty exactly when its decode
    repeats a non-dummy label, so these are the penalty-free labelings.
    """
    k = fp.num_variables
    if k > MAX_EXACT_VARIABLES:
        raise ValueError(
            f"exact fusion supports at most {MAX_EXACT_VARIABLES} free variables, got {k}")
    shifts = np.arange(k)
    for code in range(2**k):
        x = fp.decode((code >> shifts) & 1)
        if labels_distinct(x):
            yield x


def _improve(fp, bits, rng, rounds=3):
    """Seeded 1-swap descent on the binary energy (penalties included)."""
    k = fp.num_variables
    incident = [[] for _ in range(k)]
    for (i, j), table in fp.tables.items():
        incident[i].append((j, table, False))
        incident[j].append((i, table, True))
    for _ in range(rounds):
        order = rng.permutation(k)
        changed = False
        for i in order:
            old, new = bits[i], 1 - bits[i]
            delta = fp.unary[i, new] - fp.unary[i, old]
            for j, table, transposed in incident[i]:
                if transposed:
                    delta += table[bits[j], new] - table[bits[j], old]
                else:
                    delta += table[new, bits[j]] - table[old, bits[j]]
            if delta < 0.0:
                bits[i] = new
                changed = True
        if not changed:
            break
    return bits


def fuse(problem, x1, x2, mode="qpbo-i", rng=0):
    """Fuse feasible x1 with arbitrary x2; the result is feasible and its
    energy is <= energy(x1), and <= energy(x2) whenever x2 is feasible.

    mode "exact" enumerates the restricted space (<= 20 free variables);
    mode "qpbo-i" runs roof duality, fills unlabeled variables from the
    better reference labeling, and then a seeded 1-swap descent.
    """
    if mode not in ("qpbo-i", "exact"):
        raise ValueError(f"unknown fusion mode {mode!r}")
    rng = np.random.default_rng(rng)
    fp = build_fusion(problem, x1, x2)
    if fp.num_variables == 0:
        return fp.incumbent

    if mode == "exact":
        # The first strict minimum in bit-code order.
        return min(penalty_free_labelings(fp), key=lambda x: energy(problem, x))

    result = solve_qpbo(fp)
    k = fp.num_variables
    zeros = np.zeros(k, dtype=np.int64)
    ones = np.ones(k, dtype=np.int64)  # decodes to the proposal
    reference = zeros
    if labels_distinct(fp.proposal) and fp.binary_energy(ones) < fp.binary_energy(zeros):
        reference = ones
    bits = np.where(result.labels >= 0, result.labels, reference)
    fused = fp.decode(_improve(fp, bits, rng))
    # One active penalty always exceeds any energy difference, so this
    # check also rules out infeasible decodes.
    if not labels_distinct(fused) or energy(problem, fused) > energy(problem, x1):
        return fp.incumbent
    return fused
