import os
import subprocess
import sys
from pathlib import Path

import qapfuse as qf


def test_every_exported_name_is_bound_once():
    # `from qapfuse import *` fails on a listed name the package lacks.
    assert len(set(qf.__all__)) == len(qf.__all__)
    assert [name for name in qf.__all__ if not hasattr(qf, name)] == []


NO_SCIPY_OPTIMIZE = """
import sys
import numpy as np
import qapfuse as qf
seen = [("scipy.optimize" in sys.modules, "scipy.optimize._lsap" in sys.modules)]
problem = qf.Problem(3, 3, [[0, 1], [1, 2], [0, 2]], [[-1.0, -2.0, 0.0]] * 3,
                     {(0, 1): np.ones((3, 3)), (1, 2): np.ones((3, 3))})
qf.solve(problem, qf.SolverConfig(max_batches=2))
seen.append(("scipy.optimize" in sys.modules, "scipy.optimize._lsap" in sys.modules))
qf.solve(problem, qf.SolverConfig(max_batches=2, primal_heuristic="lap"))
seen.append(("scipy.optimize" in sys.modules, "scipy.optimize._lsap" in sys.modules))
used = sys.modules["scipy.optimize._lsap"].linear_sum_assignment
import scipy.optimize
seen.append(scipy.optimize.linear_sum_assignment is used)
print(seen)
"""


def test_lap_solves_never_load_scipy_optimize():
    # Importing the package, a greedy solve and a LAP solve leave
    # scipy.optimize unloaded; the LAP solve loads its one extension, which
    # a later import of scipy.optimize reuses.
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", NO_SCIPY_OPTIMIZE], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[(False, False), (False, False), (False, True), True]"
