"""Reader/writer for the `.dd` graph-matching instance format, proposal
lists, and solver trace CSV files.

`.dd` grammar (whitespace separated, blank lines ignored, UTF-8,
LF or CRLF accepted on read, LF written):

    c <comment>
    p <n_left> <n_right> <n_assignments> <n_pairwise>
    a <assignment_id> <left_index> <right_index> <cost>
    e <assignment_id_1> <assignment_id_2> <cost>

Assignment ids are unique, 0-based and contiguous in [0, A).  Pairwise
lines reference two existing assignments with distinct left indices;
repeated (id1, id2) pairs accumulate additively.

Proposal files carry one assignment per line: n_left whitespace-separated
integers, each a right-point index or -1 for the dummy.

Trace files are CSV with the fixed header
``iteration,elapsed_seconds,dual_bound,best_energy,event``; floats use six
significant digits and a missing best energy is an empty field.
"""

import io
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import Problem, validate_assignment


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DdAssignment(NamedTuple):
    id: int
    left: int
    right: int
    cost: float


class DdPairwiseTerm(NamedTuple):
    id1: int
    id2: int
    cost: float


@dataclass
class DdInstance:
    n_left: int
    n_right: int
    assignments: list
    pairwise_terms: list


def _lines(source):
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_dd(source):
    """Parse a `.dd` stream (file object or string) into a DdInstance."""
    header = None
    assignments = []
    pairwise = []
    seen_ids = set()
    pairwise_lines = []

    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 5:
                raise ParseError("header must be 'p N0 N1 A E'", lineno)
            try:
                header = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise ParseError("non-integer header field", lineno) from None
            if any(v < 0 for v in header):
                raise ParseError("negative header field", lineno)
        elif kind == "a":
            if header is None:
                raise ParseError("assignment line before header", lineno)
            if len(fields) != 5:
                raise ParseError("assignment line must be 'a id left right cost'", lineno)
            try:
                aid, left, right = (int(f) for f in fields[1:4])
                cost = float(fields[4])
            except ValueError:
                raise ParseError("malformed assignment line", lineno) from None
            n_left, n_right, n_assign, _ = header
            if not 0 <= aid < n_assign:
                raise ParseError(f"assignment id {aid} out of range [0, {n_assign})", lineno)
            if aid in seen_ids:
                raise ParseError(f"duplicate assignment id {aid}", lineno)
            if not 0 <= left < n_left:
                raise ParseError(f"left index {left} out of range", lineno)
            if not 0 <= right < n_right:
                raise ParseError(f"right index {right} out of range", lineno)
            seen_ids.add(aid)
            assignments.append(DdAssignment(aid, left, right, cost))
        elif kind == "e":
            if header is None:
                raise ParseError("pairwise line before header", lineno)
            if len(fields) != 4:
                raise ParseError("pairwise line must be 'e id1 id2 cost'", lineno)
            try:
                id1, id2 = int(fields[1]), int(fields[2])
                cost = float(fields[3])
            except ValueError:
                raise ParseError("malformed pairwise line", lineno) from None
            pairwise.append(DdPairwiseTerm(id1, id2, cost))
            pairwise_lines.append(lineno)
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)

    if header is None:
        raise ParseError("missing header")
    n_left, n_right, n_assign, n_pair = header
    if len(assignments) != n_assign:
        raise ParseError(f"header promises {n_assign} assignments, found {len(assignments)}")
    if len(pairwise) != n_pair:
        raise ParseError(f"header promises {n_pair} pairwise terms, found {len(pairwise)}")

    by_id = {a.id: a for a in assignments}
    for term, lineno in zip(pairwise, pairwise_lines):
        for aid in (term.id1, term.id2):
            if aid not in by_id:
                raise ParseError(f"pairwise term references unknown assignment id {aid}", lineno)
        if by_id[term.id1].left == by_id[term.id2].left:
            raise ParseError("pairwise term joins two assignments of the same left point", lineno)

    assignments.sort(key=lambda a: a.id)
    return DdInstance(n_left, n_right, assignments, pairwise)


def write_dd(instance, sink):
    """Write a DdInstance in canonical `.dd` form (floats via repr, LF)."""
    own = isinstance(sink, (str, bytes))
    out = open(sink, "w", newline="\n") if own else sink
    try:
        out.write(f"p {instance.n_left} {instance.n_right} "
                  f"{len(instance.assignments)} {len(instance.pairwise_terms)}\n")
        for a in instance.assignments:
            out.write(f"a {a.id} {a.left} {a.right} {float(a.cost)!r}\n")
        for e in instance.pairwise_terms:
            out.write(f"e {e.id1} {e.id2} {float(e.cost)!r}\n")
    finally:
        if own:
            out.close()


def to_problem(instance):
    """Build the in-memory Problem: left points become nodes, right points
    the label pool, dummy costs 0, unspecified pairwise entries 0."""
    n = instance.n_left
    cand = [[] for _ in range(n)]
    cost_of = {}
    for a in instance.assignments:
        key = (a.left, a.right)
        if key in cost_of:
            raise ValueError(f"two assignments for left {a.left}, right {a.right}")
        cost_of[key] = a.cost
        cand[a.left].append(a.right)
    for lst in cand:
        lst.sort()
    unary = []
    for u in range(n):
        vec = np.array([cost_of[(u, s)] for s in cand[u]] + [0.0])
        unary.append(vec)

    by_id = {a.id: a for a in instance.assignments}
    tables = {}
    for term in instance.pairwise_terms:
        a1, a2 = by_id[term.id1], by_id[term.id2]
        if a1.left == a2.left:
            raise ValueError("pairwise term joins two assignments of the same left point")
        (u, s), (v, t) = sorted([(a1.left, a1.right), (a2.left, a2.right)])
        key = (u, v)
        if key not in tables:
            tables[key] = np.zeros((len(cand[u]) + 1, len(cand[v]) + 1))
        tables[key][cand[u].index(s), cand[v].index(t)] += term.cost

    return Problem(n, instance.n_right, cand, unary, tables)


def parse_proposals(source, problem):
    """Parse a proposal list: one assignment per line, right index or -1."""
    proposals = []
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != problem.num_nodes:
            raise ParseError(f"expected {problem.num_nodes} labels, found {len(fields)}", lineno)
        try:
            labels = np.array([int(f) for f in fields], dtype=np.int64)
        except ValueError:
            raise ParseError("non-integer label", lineno) from None
        try:
            validate_assignment(problem, labels)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        proposals.append(labels)
    return proposals


def write_proposals(assignments, sink):
    own = isinstance(sink, (str, bytes))
    out = open(sink, "w", newline="\n") if own else sink
    try:
        for x in assignments:
            out.write(" ".join(str(int(s)) for s in x) + "\n")
    finally:
        if own:
            out.close()


@dataclass
class SolverTraceRecord:
    """One convergence-trace sample.

    ``best_energy`` is None until the first primal solution exists.  Within
    a trace both elapsed_seconds and dual_bound are non-decreasing.
    """
    iteration: int
    elapsed_seconds: float
    dual_bound: float
    best_energy: Optional[float]
    event: str


TRACE_HEADER = "iteration,elapsed_seconds,dual_bound,best_energy,event"


def _fmt(value):
    return "" if value is None else format(value, ".6g")


def write_trace(records, sink):
    """Emit trace records as CSV (header always present, floats to 6 s.d.)."""
    own = isinstance(sink, (str, bytes))
    out = open(sink, "w", newline="\n") if own else sink
    try:
        out.write(TRACE_HEADER + "\n")
        for r in records:
            out.write(f"{r.iteration},{_fmt(r.elapsed_seconds)},{_fmt(r.dual_bound)},"
                      f"{_fmt(r.best_energy)},{r.event}\n")
    finally:
        if own:
            out.close()


def read_trace(source):
    """Parse a trace CSV (stream or string, like parse_dd) back into
    records; inverse of write_trace up to float formatting."""
    records = []
    saw_header = False
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line:
            continue
        if not saw_header:
            if line != TRACE_HEADER:
                raise ParseError(f"unexpected trace header {line!r}", lineno)
            saw_header = True
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise ParseError("trace row must have 5 fields", lineno)
        records.append(SolverTraceRecord(
            iteration=int(fields[0]),
            elapsed_seconds=float(fields[1]),
            dual_bound=float(fields[2]),
            best_energy=None if fields[3] == "" else float(fields[3]),
            event=fields[4],
        ))
    return records
