"""Build a small graph-matching instance by hand and evaluate assignments.

Three feature points on the left must be matched to three candidate points
on the right.  Each node may also stay unmatched (the dummy label, -1).
Feasibility means no right point is used twice.
"""

import numpy as np

import qapfuse as qf
from qapfuse.model import matching_side

# Node u's candidate labels, its unary costs (one per candidate, dummy last),
# and pairwise cost tables per edge (dummy row/column last).
candidates = [[0, 1], [0, 1, 2], [2]]
unary = [
    np.array([-2.0, 0.5, 0.0]),        # node 0: label 0 looks good
    np.array([1.0, -1.5, 0.3, 0.0]),   # node 1: label 1 looks good
    np.array([-1.0, 0.0]),             # node 2: only label 2 possible
]
pairwise = {
    (0, 1): np.array([[ 0.0, -1.0, 0.0, 0.0],
                      [ 0.5,  0.0, 0.0, 0.0],
                      [ 0.0,  0.0, 0.0, 0.0]]),
    (1, 2): np.zeros((4, 2)),
}
problem = qf.Problem(3, 3, candidates, unary, pairwise)
print(problem)

x = np.array([0, 1, 2])
print("assignment", x, "energy:", qf.energy(problem, x),
      "feasible:", qf.is_feasible(problem, x))

clash = np.array([0, 0, 2])
print("assignment", clash, "energy:", qf.energy(problem, clash),
      "feasible:", qf.is_feasible(problem, clash))

print("all-dummy energy:", qf.energy(problem, qf.all_dummy(problem)))

# A reparametrization moves cost between the matching side, the edges and
# the assignment side without changing any total energy.  One dual sweep
# sets one up; the assignment's slots pick its terms from the flat arrays.
state = qf.DualState.initial(problem)
qf.sweep(problem, state)
repar = state.repar
slots = problem.slots(x)
local = slots - problem.offsets[:-1]
sides = matching_side(problem, repar) + qf.assignment_side(problem, repar)
decomposed = float(sides[slots].sum())
for e, (u, v) in enumerate(problem.edges):
    cell = problem.edge_start[e] + local[u] + local[v] * problem.edge_stride[e]
    mu, mv = problem.msg_start[e]
    decomposed += float(problem.table_buffer[cell] + repar.edge_flat[mu + local[u]]
                        + repar.edge_flat[mv + local[v]])
print(f"decomposed total: {decomposed:.6g} (equals the plain energy)")
