"""Fusion moves: combine two assignments into one at least as good.

Fusing an incumbent x1 (must be feasible) with an arbitrary proposal x2
restricts every node to the two-label set {x1_u, x2_u}.  Nodes where the
proposals agree are folded away into a constant and into their neighbors'
unary costs; the terms are gathered from the problem's flat arrays as
:func:`~qapfuse.model.energy` gathers them.  The incumbent's side is
binary 0 and the proposal's side binary 1, so the all-zeros labeling
decodes to x1.  The auxiliary problem is held in the flat arrays that
:func:`~qapfuse.qpbo.roof_duality` reads (see :class:`FusionProblem`).

Feasibility has one rule: a labeling is feasible exactly when its decode
repeats no non-dummy label (:func:`~qapfuse.model.labels_distinct`).
Inside the auxiliary problem that rule becomes a penalty on every cell
that would give one label to two nodes: between two free variables it
sits in their (possibly newly created) 2x2 table, between a free variable
and a folded node on the free variable's unary side.  The penalty is local
to each fusion: twice the sum of the ranges of the auxiliary problem's own
unary rows and tables (1 when every range is 0), so it exceeds the energy
difference of any two labelings, scales with the costs, and costs between
folded nodes do not touch it.

The auxiliary problem is solved either exactly (enumeration of the
feasible decodes, the desk-scale oracle) or by roof duality plus a
seeded 1-swap descent ("qpbo-i").  Either way the result is feasible and
never worse than x1 (nor than x2 when x2 is feasible): one active
penalty exceeds any possible energy difference, so the final energy
check can always fall back to x1.  A qpbo-i fusion is *settled* when the
descent's first pass flips nothing: its result then depends on (x1, x2)
alone, and a memo can answer a repeat (see :func:`fuse`).

:func:`count_bound` bounds the number of feasible solutions of the
auxiliary problem: with m dummies and n distinct non-dummy labels in the
proposal it is 2^m * (|V|/n + 1)^n, the n = 0 case degenerating to 2^m.
"""

from dataclasses import dataclass

import numpy as np

from .model import DUMMY, energy, labels_distinct, sequential_sum, validate_assignment
from .qpbo import roof_duality

MAX_EXACT_VARIABLES = 20
_COUNT_SATURATION = 2**63 - 1
_IMPROVE_ROUNDS = 3  # passes of qpbo-i's 1-swap descent
_MEMO_ENTRIES = 128  # settled fusions a memo keeps (dense repeats came <= 98 apart)


@dataclass
class FusionProblem:
    """Two-label auxiliary problem over the disagreeing nodes.

    ``free_nodes`` are the nodes where incumbent and proposal differ, in
    node order; variable i decides node ``free_nodes[i]``.  ``unary`` (k, 2)
    holds one (cost0, cost1) row per free variable; row p of ``pairs`` (P, 2)
    is a variable pair i < j, each pair once, and ``tables[p]`` its 2x2 cost
    table, penalties included: the edges between free nodes in edge order,
    then the pairs only a penalty joins, in the order the penalties are met.
    ``base_energy`` collects all folded-away costs and ``big_cost`` is the
    uniqueness penalty.
    """
    incumbent: np.ndarray
    proposal: np.ndarray
    free_nodes: np.ndarray
    unary: np.ndarray
    pairs: np.ndarray
    tables: np.ndarray
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
        bits = np.asarray(bits, dtype=np.int64)
        i, j = self.pairs.T
        return sequential_sum(np.concatenate((
            [self.base_energy], self.unary[np.arange(self.num_variables), bits],
            self.tables[np.arange(len(i)), bits[i], bits[j]])))


def build_fusion(problem, x1, x2):
    """Construct the auxiliary problem for fusing feasible x1 with x2."""
    slots = np.stack((problem.slots(x1), problem.slots(x2)))  # validates both
    x1, x2 = np.asarray(x1, dtype=np.int64), np.asarray(x2, dtype=np.int64)
    if not labels_distinct(x1):
        raise ValueError("fusion requires a feasible incumbent")

    free = x1 != x2
    free_nodes = np.flatnonzero(free)
    var = np.cumsum(free) - 1                  # var[u]: u's variable if u is free
    unary = problem.unary_flat[slots[:, free_nodes].T]

    # Every edge's 2x2 block over its ends' sides (a folded end's two are one
    # slot), cell (i, j) at edge_start + i + j * edge_stride as energy() reads it.
    local = slots - problem.offsets[:-1]
    u, v = problem.edge_nodes.T
    cell = (problem.edge_start + local.take(u, axis=1)).T[:, :, None]
    blocks = problem.table_buffer[cell + (problem.edge_stride * local.take(v, axis=1)).T[:, None]]
    fu, fv = free[u], free[v]
    base = sequential_sum(np.concatenate((
        problem.unary_flat[slots[0, ~free]], blocks[~fu & ~fv, 0, 0])))

    # An edge with one free end adds to that end's unary row, in edge order.
    one = np.flatnonzero(fu != fv)
    np.add.at(unary, var[np.where(fu[one], u[one], v[one])],
              np.where(fu[one, None], blocks[one, :, 0], blocks[one, 0, :]))

    both = fu & fv
    blocks = blocks[both]
    row = {pair: r for r, pair in enumerate(zip(var[u[both]].tolist(), var[v[both]].tolist()))}

    # One penalty exceeds the energy difference of any two labelings, and
    # scales with the costs.
    spread = float(np.ptp(unary, axis=1).sum() + np.ptp(blocks, axis=(1, 2)).sum())
    big = 2.0 * spread if spread > 0.0 else 1.0

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
    clashes = []
    # A variable's two sides differ, so one label's entries have i < j.
    for entries in sides_of.values():
        for a, (i, si) in enumerate(entries):
            for j, sj in entries[a + 1:]:
                clashes.append((row.setdefault((i, j), len(row)), si, sj))
    tables = np.zeros((len(row), 2, 2))
    tables[:len(blocks)] = blocks
    for cell in clashes:
        tables[cell] += big

    return FusionProblem(
        incumbent=x1.copy(), proposal=x2.copy(), free_nodes=free_nodes, unary=unary,
        pairs=np.array(list(row), dtype=np.int64).reshape(-1, 2), tables=tables,
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
    # The ceiling of 2^m * (V + n)^n / n^n in integers; 0**0 == 1 covers n = 0.
    value = -(-(2**m * (problem.num_nodes + n)**n) // n**n)
    return None if value > _COUNT_SATURATION else value


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


def _improve(fp, bits, rng):
    """Seeded 1-swap descent on the binary energy (penalties included) over
    flat lists (no containers for the garbage collector to walk); returns
    the bits and whether they are settled: whether the first pass flipped
    nothing.  Each delta is summed unary first, then over i's pairs in pair
    order: entries ``start[i]:start[i + 1]``, where entry q reads cell
    ``base[q] + 2 * bits[i] + bits[other[q]]`` of its table turned to put
    i's bit first."""
    k, count = fp.num_variables, len(fp.pairs)
    order = np.argsort(fp.pairs.ravel(), kind="stable")
    owner, other = fp.pairs.ravel()[order], fp.pairs[:, ::-1].ravel()[order]
    base = (4 * (np.arange(count)[:, None] + [0, count])).ravel()[order]
    start = np.searchsorted(owner, np.arange(k + 1))
    cells = np.concatenate((fp.tables, fp.tables.transpose(0, 2, 1))).ravel().tolist()
    unary, bits = fp.unary.ravel().tolist(), bits.tolist()
    other, base, start = other.tolist(), base.tolist(), start.tolist()
    for rounds in range(_IMPROVE_ROUNDS):
        changed = False
        for i in rng.permutation(k).tolist():
            old, new = bits[i], 1 - bits[i]
            delta = unary[2 * i + new] - unary[2 * i + old]
            for q in range(start[i], start[i + 1]):
                c = base[q] + bits[other[q]]
                delta += cells[c + 2 * new] - cells[c + 2 * old]
            if delta < 0.0:
                bits[i] = new
                changed = True
        if not changed:
            break
    return np.array(bits, dtype=np.int64), rounds == 0 and not changed


def fuse(problem, x1, x2, mode="qpbo-i", rng=0, *, memo=None):
    """Fuse feasible x1 with arbitrary x2; the result is feasible and its
    energy is <= energy(x1), and <= energy(x2) whenever x2 is feasible.

    mode "exact" enumerates the restricted space (<= 20 free variables);
    mode "qpbo-i" runs roof duality, fills unlabeled variables from the
    better reference labeling, and then a seeded 1-swap descent; it makes
    the comparison with x1 on the auxiliary problem's energy, which equals
    energy() up to rounding for feasible decodes, and so evaluates no energy.

    ``memo``, a caller's dict for one problem, keeps the newest
    ``_MEMO_ENTRIES`` settled "qpbo-i" results by the bytes of x1 and x2; a
    hit draws the descent's one permutation and returns a copy.
    """
    if mode not in ("qpbo-i", "exact"):
        raise ValueError(f"unknown fusion mode {mode!r}")
    rng = np.random.default_rng(rng)
    if memo and mode == "qpbo-i":
        x1, x2 = validate_assignment(problem, x1), validate_assignment(problem, x2)
        if (key := x1.tobytes() + x2.tobytes()) in memo:
            rng.permutation(memo[key][1])
            return memo[key][0].copy()
    fp = build_fusion(problem, x1, x2)
    if fp.num_variables == 0:
        return fp.incumbent

    if mode == "exact":
        # The first strict minimum in bit-code order.
        return min(penalty_free_labelings(fp), key=lambda x: energy(problem, x))

    result = roof_duality(fp.unary, fp.pairs, fp.tables, constant=fp.base_energy)
    zeros = np.zeros(fp.num_variables, dtype=np.int64)
    start = fp.binary_energy(zeros)
    # The all-ones labeling decodes to the proposal.
    reference = int(labels_distinct(fp.proposal) and fp.binary_energy(zeros + 1) < start)
    bits, settled = _improve(fp, np.where(result.labels >= 0, result.labels, reference), rng)
    fused = fp.decode(bits)
    if not labels_distinct(fused) or fp.binary_energy(bits) > start:
        fused = fp.incumbent
    if settled and memo is not None:
        if len(memo) >= _MEMO_ENTRIES:
            del memo[next(iter(memo))]
        memo[fp.incumbent.tobytes() + fp.proposal.tobytes()] = (fused.copy(), fp.num_variables)
    return fused
