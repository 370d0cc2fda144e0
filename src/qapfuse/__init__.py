"""Graph matching / quadratic assignment solving.

Combines a monotone dual block-coordinate-ascent lower bound, randomized
greedy proposal generation on reparametrized costs, and QPBO-based fusion
moves that monotonically improve a feasible incumbent.  Ships with the
`.dd` instance format, an exact desk-scale fusion oracle, linear
assignment solving, and deterministic convergence traces.
"""

from .model import (
    DUMMY,
    Problem,
    Reparametrization,
    all_dummy,
    assignment_side,
    energy,
    is_feasible,
    validate_assignment,
)
from .ddio import (
    DdAssignment,
    DdInstance,
    DdPairwiseTerm,
    ParseError,
    SolverTraceRecord,
    parse_dd,
    parse_proposals,
    read_trace,
    to_problem,
    write_dd,
    write_proposals,
    write_trace,
)
from .greedy import greedy_assignment
from .lap import label_min_term, solve_lap
from .dualbca import (
    DualState,
    dual_bound,
    sweep,
    update_edge_messages,
    update_label_messages,
    update_node_messages,
)
from .qpbo import MaxFlow, QpboResult, roof_duality
from .fusion import (
    FusionProblem,
    build_fusion,
    count_bound,
    fuse,
)
from .solver import SolveOutcome, SolverConfig, fuse_sequence, solve

__version__ = "0.1.0"

__all__ = [
    "DUMMY", "Problem", "Reparametrization", "all_dummy", "assignment_side",
    "energy", "is_feasible", "validate_assignment",
    "DdAssignment", "DdInstance", "DdPairwiseTerm", "ParseError",
    "SolverTraceRecord", "parse_dd", "parse_proposals", "read_trace",
    "to_problem", "write_dd", "write_proposals", "write_trace",
    "greedy_assignment", "label_min_term", "solve_lap",
    "DualState", "dual_bound", "sweep", "update_edge_messages",
    "update_label_messages", "update_node_messages",
    "MaxFlow", "QpboResult", "roof_duality",
    "FusionProblem", "build_fusion", "count_bound", "fuse",
    "SolveOutcome", "SolverConfig", "fuse_sequence", "solve",
]
