"""Fusion moves: combine two assignments into one at least as good.

Fusing an incumbent x1 (must be feasible) with an arbitrary proposal x2
restricts every node to the two-label set {x1_u, x2_u}.  Nodes where the
proposals agree are folded away into a constant and into their neighbors'
unary costs.  Uniqueness is enforced inside the auxiliary problem by a
large penalty on every cell that would give one non-dummy label to two
nodes: between two free variables the penalty sits in their (possibly
newly created) 2x2 table, between a free variable and a folded node it
lands on the free variable's unary side.  The incumbent's side is binary 0
and the proposal's side binary 1, so the all-zeros labeling decodes to x1
and is penalty-free.

The auxiliary problem is solved either exactly (enumeration, the
desk-scale oracle) or by roof duality plus a seeded 1-swap improvement
pass ("qpbo-i").  Either way the result is feasible and never worse than
x1 (nor than x2 when x2 is feasible): one active penalty exceeds any
possible energy difference, so the final energy check can always fall
back to x1.

:func:`count_bound` bounds the number of feasible solutions of the
auxiliary problem: with m dummies and n distinct non-dummy labels in the
proposal it is 2^m * (|V|/n + 1)^n, the n = 0 case degenerating to 2^m.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import DUMMY, energy, is_feasible, validate_assignment
from .qpbo import roof_duality

MAX_EXACT_VARIABLES = 20
_COUNT_SATURATION = 2**63 - 1


@dataclass
class FusionProblem:
    """Two-label auxiliary problem over the disagreeing nodes.

    ``unary`` has one (cost0, cost1) row per free variable, penalties
    included; ``tables`` maps free-variable index pairs (i < j) to 2x2
    cost tables, penalties included.  ``unary_penalties``/
    ``table_penalties`` count how many uniqueness penalties each cell
    carries, so feasibility of a binary labeling is exact bookkeeping, not
    a magnitude test.  ``base_energy`` collects all folded-away costs.
    """
    problem: object
    incumbent: np.ndarray
    proposal: np.ndarray
    free_nodes: list
    choices: list               # per free variable, (label at 0, label at 1)
    unary: np.ndarray
    tables: dict
    unary_penalties: np.ndarray
    table_penalties: dict
    base_energy: float
    big_cost: float

    @property
    def num_variables(self):
        return len(self.free_nodes)

    def decode(self, bits):
        """Assignment selected by a binary labeling of the free variables."""
        x = self.incumbent.copy()
        for i, u in enumerate(self.free_nodes):
            x[u] = self.choices[i][bits[i]]
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

    def violation_count(self, bits):
        """Number of uniqueness penalties active under the labeling."""
        count = 0
        for i in range(self.num_variables):
            count += int(self.unary_penalties[i, bits[i]])
        for (i, j), marks in self.table_penalties.items():
            count += int(marks[bits[i], bits[j]])
        return count


def build_fusion(problem, x1, x2):
    """Construct the auxiliary problem for fusing feasible x1 with x2."""
    x1 = validate_assignment(problem, x1)
    x2 = validate_assignment(problem, x2)
    if not is_feasible(problem, x1):
        raise ValueError("fusion requires a feasible incumbent")

    free_nodes = [u for u in range(problem.num_nodes) if x1[u] != x2[u]]
    var_of = {u: i for i, u in enumerate(free_nodes)}
    choices = [(int(x1[u]), int(x2[u])) for u in free_nodes]
    k = len(free_nodes)
    slots = np.stack((problem.slots(x1), problem.slots(x2)))
    at = (slots - problem.offsets[:-1]).T.tolist()  # at[u][side]: local index

    unary = problem.unary_flat[slots[:, free_nodes].T]
    unary_penalties = np.zeros((k, 2), dtype=np.int64)

    base = 0.0
    for u in range(problem.num_nodes):
        if u not in var_of:
            base += problem.unary[u][at[u][0]]

    tables = {}
    table_penalties = {}

    def table_for(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in tables:
            tables[key] = np.zeros((2, 2))
            table_penalties[key] = np.zeros((2, 2), dtype=np.int64)
        return key

    for (u, v), cost in problem.pairwise.items():
        iu, iv = var_of.get(u), var_of.get(v)
        if iu is None and iv is None:
            base += cost[at[u][0], at[v][0]]
        elif iv is None:
            for side in (0, 1):
                unary[iu, side] += cost[at[u][side], at[v][0]]
        elif iu is None:
            for side in (0, 1):
                unary[iv, side] += cost[at[u][0], at[v][side]]
        else:
            block = tables[table_for(iu, iv)]  # iu < iv, as u < v
            for sa in (0, 1):
                for sb in (0, 1):
                    block[sa, sb] += cost[at[u][sa], at[v][sb]]

    big = problem.uniqueness_big_cost

    # Uniqueness penalties.  Collect, per non-dummy label, which free
    # variable sides and which folded nodes can take it.
    sides_of = {}
    for i in range(k):
        for side in (0, 1):
            s = choices[i][side]
            if s != DUMMY:
                sides_of.setdefault(s, []).append((i, side))
    fixed_owner = {}
    for u in range(problem.num_nodes):
        if u not in var_of and x1[u] != DUMMY:
            fixed_owner[int(x1[u])] = u

    for s, entries in sides_of.items():
        for a in range(len(entries)):
            i, si = entries[a]
            for b in range(a + 1, len(entries)):
                j, sj = entries[b]
                if i == j:
                    continue
                key = table_for(i, j)
                cell = (si, sj) if key == (i, j) else (sj, si)
                tables[key][cell] += big
                table_penalties[key][cell] += 1
            if s in fixed_owner:
                unary[i, si] += big
                unary_penalties[i, si] += 1

    return FusionProblem(
        problem=problem, incumbent=x1.copy(), proposal=x2.copy(),
        free_nodes=free_nodes, choices=choices,
        unary=unary, tables=tables,
        unary_penalties=unary_penalties, table_penalties=table_penalties,
        base_energy=float(base), big_cost=float(big))


def count_bound(problem, x2):
    """Upper bound on the feasible solutions of any fusion with proposal x2.

    Returns an int, or None when the bound exceeds 2^63 - 1.
    """
    x2 = validate_assignment(problem, x2)
    m = int(np.sum(x2 == DUMMY))
    n = len({int(s) for s in x2 if s != DUMMY})
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
    """Every binary labeling of the auxiliary problem that activates no
    uniqueness penalty, in bit-code order (bit i of the code labels
    variable i), so the all-zeros labeling comes first.

    One array is yielded over and over; copy it to keep a labeling.
    """
    k = fp.num_variables
    if k > MAX_EXACT_VARIABLES:
        raise ValueError(
            f"exact fusion supports at most {MAX_EXACT_VARIABLES} free variables, got {k}")
    bits = np.zeros(k, dtype=np.int64)
    for code in range(2**k):
        for i in range(k):
            bits[i] = (code >> i) & 1
        if not fp.violation_count(bits):
            yield bits


def _enumerate_exact(fp):
    """Feasible optimum of the auxiliary problem by enumeration: the first
    strict minimum in bit-code order."""
    best_bits, best_value = None, np.inf
    for bits in penalty_free_labelings(fp):
        value = fp.binary_energy(bits)
        if value < best_value:
            best_value, best_bits = value, bits.copy()
    return best_bits


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
        bits = _enumerate_exact(fp)
    else:
        result = solve_qpbo(fp)
        k = fp.num_variables
        zeros = np.zeros(k, dtype=np.int64)
        ones = np.ones(k, dtype=np.int64)
        reference = zeros
        if fp.violation_count(ones) == 0 and fp.binary_energy(ones) < fp.binary_energy(zeros):
            reference = ones
        bits = np.where(result.labels >= 0, result.labels, reference)
        bits = _improve(fp, bits, rng)

    fused = fp.decode(bits)
    # One active penalty always exceeds any energy difference, so this
    # check also rules out infeasible decodes.
    if not is_feasible(problem, fused) or energy(problem, fused) > energy(problem, x1):
        return fp.incumbent
    return fused
