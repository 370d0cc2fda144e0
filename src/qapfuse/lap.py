"""Linear assignment: the pairwise-free side of the dual decomposition.

Two jobs live here.  :func:`solve_lap` solves the assignment-side problem
exactly (each node takes a candidate or the zero-cost dummy, no label
reused) for the LAP heuristic with scipy's compiled solver, loaded alone.
:func:`label_min_term` is the closed-form relaxation of the same costs in
the dual bound: each label takes its cheapest owner when negative,
dropping the one-label-per-node coupling, so it never exceeds the LAP optimum.
"""

import numpy as np

from .model import DUMMY, assignment_side, sequential_sum


def solve_lap(problem, costs):
    """Exact minimum of the linear assignment over ``problem``'s candidates.

    ``costs`` holds one cost per slot of the problem, such as
    ``assignment_side(problem, repar)``; the dummy slots are ignored, as
    the dummy always costs 0.  Returns ``(assignment, value)`` where the
    assignment maps each node to a candidate label or DUMMY and no label
    repeats.  Solved on a rectangular matrix with one zero-cost dummy column
    per node by scipy's shortest augmenting path (Crouse, IEEE TAES 2016).
    """
    import importlib.machinery, importlib.util, scipy, sys
    name = "scipy.optimize._lsap"  # alone: scipy.optimize costs 48 MB, and its import reuses it
    if (module := sys.modules.get(name)) is None:
        spec = importlib.machinery.PathFinder.find_spec(name, [f"{scipy.__path__[0]}/optimize"])
        if spec is not None:
            spec.loader.exec_module(module := importlib.util.module_from_spec(spec))
            sys.modules[name] = module  # only once loaded whole
    if not hasattr(module, "linear_sum_assignment"):
        raise ImportError(f"scipy {scipy.__version__}: no {name}.linear_sum_assignment")
    n, L = problem.num_nodes, problem.num_labels
    matrix = np.full((n, L + n), np.inf)  # non-candidate cells
    matrix[np.arange(n), L + np.arange(n)] = 0.0  # private dummy columns
    node = np.repeat(np.arange(n), np.diff(problem.offsets))
    real = problem.slot_labels != DUMMY
    matrix[node[real], problem.slot_labels[real]] = costs[real]

    rows, cols = module.linear_sum_assignment(matrix)
    labels = np.full(n, DUMMY, dtype=np.int64)
    labels[rows] = np.where(cols < L, cols, DUMMY)
    # A non-candidate (inf) cell is never chosen, as the private dummy
    # column is always available at cost 0; slots() would reject it.
    chosen = labels != DUMMY
    return labels, sequential_sum(costs[problem.slots(labels)[chosen]])


def label_min_term(problem, repar):
    """Sum over labels of min(0, cheapest owner's assignment-side cost),
    added one label at a time in ``problem.label_slots`` order: labels by
    their first owner slot."""
    values = np.append(assignment_side(problem, repar), 0.0)[problem.label_slots]
    best = np.minimum.reduceat(values, problem.label_starts)
    return sequential_sum(np.where(best < 0.0, best, 0.0))
