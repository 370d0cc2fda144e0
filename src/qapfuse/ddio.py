"""Reader/writer for the `.dd` graph-matching instance format, proposal
lists, and solver trace CSV files.

`.dd` grammar (whitespace separated, blank lines and leading whitespace
ignored, UTF-8, LF or CRLF accepted on read, LF written):

    c <comment>
    p <n_left> <n_right> <n_assignments> <n_pairwise>
    a <assignment_id> <left_index> <right_index> <cost>
    e <assignment_id_1> <assignment_id_2> <cost>

Assignment ids are unique, 0-based and contiguous in [0, A).  Pairwise
lines reference two existing assignments with distinct left indices;
repeated (id1, id2) pairs accumulate additively.  Integers and costs read
as Python's ``int`` and ``float`` read them.

`parse_dd` reads the stream in chunks of 16,384 lines with numpy's C text
reader, which reads a subset of that grammar to the same values: a chunk
of e lines after the header in one call, other chunks kind by kind.  A
chunk it refuses, or that breaks a rule, is read a line at a time, which
reads it or names its first bad line.  Whole-file checks run a chunk at a
time and columns are joined one by one: a load holds a few per-term arrays.

Proposal files carry one assignment per line: n_left whitespace-separated
integers, each a right-point index or -1 for the dummy.

Trace files are CSV with the fixed header
``iteration,elapsed_seconds,dual_bound,best_energy,event``; floats use six
significant digits and a missing best energy is an empty field.
"""

import io
import itertools
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .model import Problem, validate_assignment

# Lines per chunk: a chunk's lines and rows, alive together, set the load's
# memory peak, and the first chunk (header, a lines) takes the kind scan.
_CHUNK_LINES = 1 << 14


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
    """A `.dd` instance.  ``assignments`` is a sequence of DdAssignment and
    ``pairwise_terms`` a sequence of DdPairwiseTerm; both are stored as
    given.  `parse_dd` gives them as read-only sequences backed by numpy
    columns (assignments sorted by id, terms in file order) that make a
    record only when one is read.  An instance built by hand is checked by
    the file's rules when `to_problem` reads it."""
    n_left: int
    n_right: int
    assignments: Sequence
    pairwise_terms: Sequence


class _Records(Sequence):
    """Read-only ``record`` tuples stored as numpy columns, checked against the file ``header``."""

    def __init__(self, record, columns, header):
        self.record = record
        self.columns = columns
        self.header = header

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            # No longer the whole file's records: to_problem checks them again.
            return _Records(self.record, [column[i] for column in self.columns], ())
        return self.record(*(column[i].item() for column in self.columns))

    def __iter__(self):
        for start in range(0, len(self), _CHUNK_LINES):
            stop = start + _CHUNK_LINES
            yield from map(self.record, *(c[start:stop].tolist() for c in self.columns))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self):
        return f"<{len(self)} {self.record.__name__} records>"


def _lines(source):
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _chunks(source):
    """The lines of a stream in lists of ``_CHUNK_LINES``; a string is cut
    at LF into pieces of about as many 32-character lines, with no copy of
    the whole text."""
    if not isinstance(source, str):
        while lines := list(itertools.islice(source, _CHUNK_LINES)):
            yield lines
        return
    start = 0
    while start < len(source):
        stop = source.find("\n", start + 32 * _CHUNK_LINES) + 1 or len(source)
        lines = source[start:stop].split("\n")
        if source[stop - 1] == "\n":
            lines.pop()
        yield lines
        start = stop


def _ints(values):
    """int64 column of Python ints; a value beyond int64 keeps the whole
    column as exact Python ints, out of every range, for the error it
    raises."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


_A, _C, _E = map(ord, "ace")


def _pick(lines, at):
    """The lines at the ascending positions ``at``."""
    if at.size and at[-1] - at[0] + 1 == at.size:
        return lines[at[0]:at[-1] + 1]
    return [lines[i] for i in at.tolist()]


def _fields(lines, kind, width):
    """Columns (integer fields, then the cost) of the lines of one kind, or
    None if numpy's C reader refuses one of them."""
    dtype = np.dtype(", ".join(["U2"] + ["i8"] * (width - 2) + ["f8"]))
    try:
        rows = np.loadtxt(lines, dtype, comments=None, ndmin=1) if lines else np.zeros(0, dtype)
    except ValueError:
        return None
    # A first field longer than the kind stays unequal to it in U2, but
    # numpy drops a NUL that ends a field, where Python keeps it.
    if len(rows) != len(lines) or (rows["f0"] != kind).any() or "\0" in "".join(lines):
        return None
    # Copies, so that the rows, kind field and all, are freed with the chunk.
    return [rows[name].copy() for name in dtype.names[1:]]


def _header(fields):
    """The four numbers of a well-formed header line's fields, or None."""
    try:
        numbers = tuple(int(f) for f in fields[1:])
    except ValueError:
        return None
    return numbers if fields[0] == "p" and len(numbers) == 4 and min(numbers) >= 0 else None


def _read_chunk(lines, header, seen):
    """Read one chunk of lines as columns, after the header and the sorted
    assignment ids of the chunks before it.  Returns the header, the ids
    seen, the assignment and pairwise columns and the pairwise lines'
    positions in the chunk; None if a line breaks a rule or the C reader
    refuses one."""
    # Pairwise lines only, likely: the C reader refuses any other line.
    if header is not None and lines[0][:1] == lines[-1][:1] == "e":
        if (terms := _fields(lines, "e", 4)) is not None:
            return header, seen, _fields([], "a", 5), terms, np.arange(len(lines))
    # A line's kind is its first character, or its first after leading
    # whitespace; a blank line counts as a comment.
    heads = "".join([raw[:1] or "\n" for raw in lines])
    kind = np.frombuffer(heads.encode("utf-32-le", "surrogatepass"), dtype=np.uint32).copy()
    for i in np.flatnonzero((kind != _A) & (kind != _E) & (kind != _C)).tolist():
        line = lines[i].strip()
        kind[i] = ord(line[0]) if line else _C
    is_a, is_e = kind == _A, kind == _E
    other = np.flatnonzero(~(is_a | is_e | (kind == _C)))
    if header is None and other.size and not (is_a | is_e)[:other[0]].any():
        header = _header(lines[other[0]].split())
        other = other[1:] if header else other
    if other.size or (header is None and (is_a | is_e).any()):
        return None
    a_at, e_at = np.flatnonzero(is_a), np.flatnonzero(is_e)
    assignments, terms = _fields(_pick(lines, a_at), "a", 5), _fields(_pick(lines, e_at), "e", 4)
    if assignments is None or terms is None:
        return None
    if a_at.size:
        n_left, n_right, n_assign, _ = header
        ids, left, right, _ = assignments
        if any(c.min() < 0 or c.max() >= n for c, n in
               ((ids, n_assign), (left, n_left), (right, n_right))):
            return None
        seen = np.sort(np.concatenate((seen, ids)))
        if np.any(seen[1:] == seen[:-1]):
            return None
    return header, seen, assignments, terms, e_at


def _columns(records, width):
    """Columns of ``width``-field records: integer fields, then the cost."""
    *ints, cost = zip(*records) if records else [()] * width
    return [_ints(c) for c in ints] + [np.array(cost, dtype=np.float64)]


def _read_lines(lines, first, header, seen):
    """Read a chunk a line at a time, after the header and the sorted
    assignment ids of the chunks before it; ``first`` is the number of its
    first line.  Raises its first error, or returns what `_read_chunk` does."""
    known, a_records, e_records, e_at = set(seen.tolist()), [], [], []
    for lineno, raw in enumerate(lines, start=first):
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
            if aid in known:
                raise ParseError(f"duplicate assignment id {aid}", lineno)
            if not 0 <= left < n_left:
                raise ParseError(f"left index {left} out of range", lineno)
            if not 0 <= right < n_right:
                raise ParseError(f"right index {right} out of range", lineno)
            known.add(aid)
            a_records.append((aid, left, right, cost))
        elif kind == "e":
            if header is None:
                raise ParseError("pairwise line before header", lineno)
            if len(fields) != 4:
                raise ParseError("pairwise line must be 'e id1 id2 cost'", lineno)
            try:
                e_records.append((int(fields[1]), int(fields[2]), float(fields[3])))
            except ValueError:
                raise ParseError("malformed pairwise line", lineno) from None
            e_at.append(lineno - first)
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)
    assignments, terms = _columns(a_records, 4), _columns(e_records, 3)
    seen = np.sort(np.concatenate((seen, assignments[0])))
    return header, seen, assignments, terms, np.array(e_at, dtype=np.int64)


def parse_dd(source):
    """Parse a `.dd` stream (file object or string) into a DdInstance."""
    header, seen, assignments, terms = None, np.zeros(0, dtype=np.int64), [], []
    first = 1
    for lines in _chunks(source):
        chunk = _read_chunk(lines, header, seen) or _read_lines(lines, first, header, seen)
        header, seen, chunk_assignments, chunk_terms, e_at = chunk
        assignments.append(chunk_assignments)
        terms.append(chunk_terms + [first, e_at.astype(np.uint32)])
        first += len(lines)

    # The checks that need the whole file.
    if header is None:
        raise ParseError("missing header")
    n_left, n_right, n_assign, n_pair = header
    ids, left, right, cost = (np.concatenate(c) for c in zip(*assignments))
    if ids.size != n_assign:
        raise ParseError(f"header promises {n_assign} assignments, found {ids.size}")
    if (found := sum(chunk[0].size for chunk in terms)) != n_pair:
        raise ParseError(f"header promises {n_pair} pairwise terms, found {found}")

    # The ids are now a permutation of range(n_assign); an id out of range,
    # clipped to -1 or n_assign, finds the left point -1.
    order = np.argsort(ids)
    left_of = np.append(left[order], -1)
    for *ends, _, start, at in terms:
        e1, e2 = (left_of[np.clip(c, -1, n_assign).astype(np.int64, copy=False)] for c in ends)
        bad = np.flatnonzero((e1 == e2) | (np.minimum(e1, e2) < 0))
        if bad.size:
            (a, b), line = (int(c[bad[0]]) for c in ends), start + int(at[bad[0]])
            if 0 <= a < n_assign and 0 <= b < n_assign:
                raise ParseError("pairwise term joins two assignments of the same left point", line)
            raise ParseError("pairwise term references unknown assignment id "
                             f"{b if 0 <= a < n_assign else a}", line)
    # Each chunk's piece of a column is dropped as the column is joined.
    id1, id2, pair_cost = (np.concatenate([chunk.pop(0) for chunk in terms]) for _ in range(3))
    return DdInstance(n_left, n_right,
                      _Records(DdAssignment, [c[order] for c in (ids, left, right, cost)], header),
                      _Records(DdPairwiseTerm, [id1, id2, pair_cost], header))


def _opened(sink):
    """A context giving a text stream to write: a ``str``/``bytes`` path is
    opened as UTF-8 with LF line ends and closed at exit; a stream is left open."""
    if isinstance(sink, (str, bytes)):
        return open(sink, "w", newline="\n", encoding="utf-8")
    return nullcontext(sink)


def write_dd(instance, sink):
    """Write a DdInstance in canonical `.dd` form (floats via repr, LF)."""
    with _opened(sink) as out:
        out.write(f"p {instance.n_left} {instance.n_right} "
                  f"{len(instance.assignments)} {len(instance.pairwise_terms)}\n")
        for a in instance.assignments:
            out.write(f"a {a.id} {a.left} {a.right} {float(a.cost)!r}\n")
        for e in instance.pairwise_terms:
            out.write(f"e {e.id1} {e.id2} {float(e.cost)!r}\n")


def to_problem(instance):
    """Build the in-memory Problem: left points become nodes, right points
    the label pool, dummy costs 0, unspecified pairwise entries 0.  An
    instance `parse_dd` did not make (one built by hand) is first written
    with `write_dd` and parsed again, so it is checked by the file's rules
    and its errors are ParseErrors naming a line of that text.  Two
    assignments with one (left, right) pair raise ValueError."""
    # parse_dd gives both sequences the one header they were checked against.
    header = getattr(instance.assignments, "header", ())
    if (header[:2] != (instance.n_left, instance.n_right)
            or header is not getattr(instance.pairwise_terms, "header", None)):
        text = io.StringIO()
        write_dd(instance, text)
        instance = parse_dd(text.getvalue())
    n = instance.n_left
    # Assignments are sorted by id and the ids are 0..A-1: row k is id k.
    _, left, right, cost = instance.assignments.columns
    id1, id2, pair_cost = instance.pairwise_terms.columns
    order = np.lexsort((right, left))
    by_node, labels = left[order], right[order]
    again = order[1:][(by_node[1:] == by_node[:-1]) & (labels[1:] == labels[:-1])]
    if again.size:
        a = again.min()
        raise ValueError(f"two assignments for left {left[a]}, right {right[a]}")
    size = np.bincount(left, minlength=n)
    start = np.concatenate(([0], np.cumsum(size)))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - start[by_node]
    # Node u's unary vector sits at start[u] + u: its costs, then a 0 dummy.
    flat = np.zeros(order.size + n)
    flat[np.arange(order.size) + by_node] = cost[order]
    cand = [labels[start[u]:start[u + 1]] for u in range(n)]
    unary = [flat[start[u] + u:start[u + 1] + u + 1] for u in range(n)]

    # parse_dd checked that the two ends of every term are different nodes.
    # ``term`` is in turn each term's edge key, its edge and its table cell.
    flip = (term := left[id1]) > (high := left[id2])
    term = np.minimum(term, high) * n + np.maximum(term, high, out=high)
    del high
    # Edges in key order: sort the keys, then number each run of one key.
    perm = np.argsort(term)
    term = term[perm]
    heads = np.flatnonzero(np.append(term.size > 0, term[1:] != term[:-1]))
    u, v = np.divmod(term[heads], n)
    term[perm] = np.repeat(np.arange(heads.size), np.diff(heads, append=term.size))
    del perm
    rows, cols = size[u] + 1, size[v] + 1
    at = np.concatenate(([0], np.cumsum(rows * cols)))
    # Cell at[edge] + row * cols[edge] + col; the lower node's rank is the row.
    term = rank[np.where(flip, id2, id1)] * cols[term] + at[term]
    term += rank[np.where(flip, id1, id2)]
    # One buffer for every table; add.at adds repeated terms in file order.
    buffer = np.zeros(at[-1])
    np.add.at(buffer, term, pair_cost)
    del term, flip
    tables = {(a, b): buffer[s:e].reshape(h, w) for a, b, s, e, h, w in zip(
        u.tolist(), v.tolist(), at[:-1].tolist(), at[1:].tolist(), rows.tolist(), cols.tolist())}
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
        except OverflowError:
            raise ParseError("label out of int64 range", lineno) from None
        try:
            validate_assignment(problem, labels)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        proposals.append(labels)
    return proposals


def write_proposals(assignments, sink):
    with _opened(sink) as out:
        for x in assignments:
            out.write(" ".join(str(int(s)) for s in x) + "\n")


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
    with _opened(sink) as out:
        out.write(TRACE_HEADER + "\n")
        for r in records:
            out.write(f"{r.iteration},{_fmt(r.elapsed_seconds)},{_fmt(r.dual_bound)},"
                      f"{_fmt(r.best_energy)},{r.event}\n")


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
        try:
            iteration, elapsed, bound = int(fields[0]), float(fields[1]), float(fields[2])
            best = None if fields[3] == "" else float(fields[3])
        except ValueError:
            raise ParseError("malformed trace row", lineno) from None
        records.append(SolverTraceRecord(iteration, elapsed, bound, best, fields[4]))
    return records
