import importlib.util
import io
import itertools
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies

import qapfuse as qf
from helpers import (candidates, edge_table, parse_dd_by_lines, problem_by_dicts, random_dd_text,
                     same_problem_bytes, unary_costs)
from qapfuse import ddio

MINIMAL = "p 1 1 1 0\na 0 0 0 -2.5\n"
TWO_NODE = "p 2 2 2 1\na 0 0 0 1\na 1 1 1 1\ne 0 1 -3\n"


class TestParseDd:
    def test_minimal_file(self):
        inst = qf.parse_dd(MINIMAL)
        assert (inst.n_left, inst.n_right) == (1, 1)
        assert inst.assignments == [qf.DdAssignment(0, 0, 0, -2.5)]
        assert inst.pairwise_terms == []

    def test_smallest_pairwise_file(self):
        inst = qf.parse_dd(TWO_NODE)
        assert len(inst.assignments) == 2
        assert inst.pairwise_terms == [qf.DdPairwiseTerm(0, 1, -3.0)]

    def test_comments_blanks_and_crlf(self):
        text = "c hello\r\n\r\np 1 1 1 0\r\na 0 0 0 2\r\n"
        inst = qf.parse_dd(text)
        assert inst.assignments[0].cost == 2.0

    @pytest.mark.parametrize("text,fragment", [
        ("p 1 1 1 0\na 0 0 0\n", "assignment line"),
        ("p 1 1 2 0\na 0 0 0 1\na 0 0 0 1\n", "duplicate assignment id"),
        ("p 1 1 1 0\na 5 0 0 1\n", "out of range"),
        ("p 1 1 2 0\na 0 0 0 1\n", "promises 2 assignments"),
        ("p 2 2 2 2\na 0 0 0 1\na 1 1 1 1\ne 0 1 1\n", "promises 2 pairwise"),
        ("p 2 2 2 1\na 0 0 0 1\na 1 1 1 1\ne 0 7 1\n", "unknown assignment id"),
        ("p 2 2 2 1\na 0 0 0 1\na 1 0 1 1\ne 0 1 1\n", "same left point"),
        ("a 0 0 0 1\n", "before header"),
        ("", "missing header"),
        ("x nonsense\n", "unknown line type"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(qf.ParseError) as err:
            qf.parse_dd(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(qf.ParseError) as err:
            qf.parse_dd("p 1 1 1 0\na 0 0 0 oops\n")
        assert err.value.line == 2

    def test_roundtrip_with_numpy_float_costs(self):
        inst = qf.DdInstance(2, 2, [qf.DdAssignment(0, 0, 0, np.float64(1.5)),
                                    qf.DdAssignment(1, 1, 1, np.float32(-0.25))],
                             [qf.DdPairwiseTerm(0, 1, np.float64(-3.0))])
        buffer = io.StringIO()
        qf.write_dd(inst, buffer)
        back = qf.parse_dd(buffer.getvalue())
        assert [a.cost for a in back.assignments] == [1.5, -0.25]
        assert back.pairwise_terms == [qf.DdPairwiseTerm(0, 1, -3.0)]
        assert "np." not in buffer.getvalue()

    def test_roundtrip_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            text = random_dd_text(rng)
            first = qf.parse_dd(text)
            buffer = io.StringIO()
            qf.write_dd(first, buffer)
            second = qf.parse_dd(buffer.getvalue())
            assert first == second

    def test_slices_are_sequences_of_records(self):
        inst = qf.parse_dd(TWO_NODE)
        both = [qf.DdAssignment(0, 0, 0, 1.0), qf.DdAssignment(1, 1, 1, 1.0)]
        assert inst.assignments[0:2] == both
        assert inst.assignments[::-1] == both[::-1]
        assert list(inst.assignments[-1:]) == both[-1:]
        assert inst.pairwise_terms[1:] == [] and len(inst.pairwise_terms[:5]) == 1
        # A part of a file's records is checked again, by the file's rules.
        part = qf.DdInstance(2, 2, inst.assignments[:1], inst.pairwise_terms)
        with pytest.raises(qf.ParseError, match="line 3: .* unknown assignment id 1"):
            qf.to_problem(part)


class TestToProblem:
    def test_minimal_mapping(self):
        p = qf.to_problem(qf.parse_dd(MINIMAL))
        assert p.num_nodes == 1 and p.num_labels == 1
        assert candidates(p, 0) == [0]
        assert unary_costs(p, 0)[0] == -2.5 and unary_costs(p, 0)[-1] == 0.0
        assert p.edges == []

    def test_two_node_mapping(self):
        p = qf.to_problem(qf.parse_dd(TWO_NODE))
        assert p.edges == [(0, 1)]
        table = edge_table(p, 0)
        assert table.shape == (2, 2)
        assert table[0, 0] == -3.0
        assert table[0, 1] == table[1, 0] == table[1, 1] == 0.0

    def test_duplicate_pairwise_lines_accumulate(self):
        text = "p 2 2 2 2\na 0 0 0 1\na 1 1 1 1\ne 0 1 -3\ne 0 1 -4\n"
        p = qf.to_problem(qf.parse_dd(text))
        assert edge_table(p, 0)[0, 0] == -7.0

    def test_duplicate_left_right_pair_rejected(self):
        text = "p 1 2 2 0\na 0 0 1 1\na 1 0 1 2\n"
        with pytest.raises(ValueError):
            qf.to_problem(qf.parse_dd(text))

    def test_cost_preservation(self):
        # energy of a decoded proposal equals chosen assignment costs plus
        # pairwise terms whose both endpoints are chosen.
        rng = np.random.default_rng(9)
        for _ in range(50):
            inst = qf.parse_dd(random_dd_text(rng))
            p = qf.to_problem(inst)
            # pick a random feasible subset of assignments: per left point
            # at most one, per right point at most one
            chosen = {}
            used_right = set()
            for a in rng.permutation(len(inst.assignments)):
                a = inst.assignments[int(a)]
                if a.left not in chosen and a.right not in used_right and rng.random() < 0.7:
                    chosen[a.left] = a
                    used_right.add(a.right)
            x = np.full(p.num_nodes, qf.DUMMY, dtype=np.int64)
            for left, a in chosen.items():
                x[left] = a.right
            direct = sum(a.cost for a in chosen.values())
            ids = {a.id for a in chosen.values()}
            direct += sum(t.cost for t in inst.pairwise_terms
                          if t.id1 in ids and t.id2 in ids)
            assert qf.energy(p, x) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_hand_built_instance_builds_its_written_text(self):
        # Records out of id order, numpy ids and costs, a repeated term.
        A, T = qf.DdAssignment, qf.DdPairwiseTerm
        inst = qf.DdInstance(3, 4, [A(2, 2, 3, np.float32(0.25)), A(0, 0, 1, np.float64(-1.5)),
                                    A(np.int64(3), 1, 0, 2.0), A(1, 0, 3, 7.0)],
                             [T(3, 0, np.float64(-3.0)), T(1, 2, 0.5), T(0, 3, 1.0)])
        buffer = io.StringIO()
        qf.write_dd(inst, buffer)
        built = qf.to_problem(inst)
        assert same_problem_bytes(built, qf.to_problem(qf.parse_dd(buffer.getvalue())))
        assert same_problem_bytes(built, _load_by_lines(buffer.getvalue()))

    @pytest.mark.parametrize("assignments,terms,message", [
        ([(0, 0, 0, 1.0), (0, 1, 1, 1.0)], [], "line 3: duplicate assignment id 0"),
        ([(0, 0, 0, 1.0), (1, 2, 1, 1.0)], [], "line 3: left index 2 out of range"),
        ([(0, 0, 0, 1.0), (1, -1, 1, 1.0)], [], "line 3: left index -1 out of range"),
        ([(0, 0, 0, 1.0), (2, 1, 1, 1.0)], [], "line 3: assignment id 2 out of range"),
        ([(0, 0, 0, 1.0), (1, 1, 1, 1.0)], [(0, 5, 1.0)],
         "line 4: pairwise term references unknown assignment id 5"),
        ([(0, 0, 0, 1.0), (1, 0, 1, 1.0)], [(1, 0, 1.0)], "line 4: pairwise term joins"),
    ])
    def test_hand_built_instance_checked_by_file_rules(self, assignments, terms, message):
        inst = qf.DdInstance(2, 2, [qf.DdAssignment(*a) for a in assignments],
                             [qf.DdPairwiseTerm(*t) for t in terms])
        with pytest.raises(qf.ParseError, match=message):
            qf.to_problem(inst)

    def test_parsed_instance_is_not_written_again(self, monkeypatch):
        inst = qf.parse_dd(TWO_NODE)
        writes = []
        monkeypatch.setattr(ddio, "write_dd", lambda *args: writes.append(args))
        qf.to_problem(inst)
        assert writes == []

    def test_changed_parsed_instance_is_checked_again(self):
        inst = qf.parse_dd(TWO_NODE)
        inst.n_left = 1
        with pytest.raises(qf.ParseError, match="line 3: left index 1 out of range"):
            qf.to_problem(inst)
        inst.n_left = 3  # a third, isolated node
        assert qf.to_problem(inst).num_nodes == 3
        # Terms of another file, naming an assignment this one lacks.
        other = qf.parse_dd("p 2 2 3 1\na 0 0 0 1\na 1 1 1 1\na 2 1 0 1\ne 0 2 -3\n")
        mixed = qf.DdInstance(2, 2, qf.parse_dd(TWO_NODE).assignments, other.pairwise_terms)
        with pytest.raises(qf.ParseError, match="line 4: .* unknown assignment id 2"):
            qf.to_problem(mixed)

    def test_write_dd_to_a_path(self, tmp_path):
        inst = qf.parse_dd("c note\r\n" + TWO_NODE.replace("\n", "\r\n"))
        canonical = b"p 2 2 2 1\na 0 0 0 1.0\na 1 1 1 1.0\ne 0 1 -3.0\n"
        path = tmp_path / "out.dd"
        for sink in (str(path), bytes(path)):
            qf.write_dd(inst, sink)
            assert path.read_bytes() == canonical


class TestProposals:
    def test_all_dummy_line(self):
        p = qf.to_problem(qf.parse_dd(TWO_NODE))
        (x,) = qf.parse_proposals("-1 -1\n", p)
        assert np.array_equal(x, [-1, -1])

    def test_feasible_line(self):
        p = qf.to_problem(qf.parse_dd(TWO_NODE))
        (x,) = qf.parse_proposals("0 1\n", p)
        assert np.array_equal(x, [0, 1])
        assert qf.is_feasible(p, x)

    def test_roundtrip(self):
        p = qf.to_problem(qf.parse_dd(TWO_NODE))
        lines = "0 1\n-1 1\n-1 -1\n"
        proposals = qf.parse_proposals(lines, p)
        buffer = io.StringIO()
        qf.write_proposals(proposals, buffer)
        again = qf.parse_proposals(buffer.getvalue(), p)
        assert all(np.array_equal(a, b) for a, b in zip(proposals, again))
        assert buffer.getvalue() == lines

    @pytest.mark.parametrize("text", ["0\n", "0 1 2\n", "0 9\n", "a b\n",
                                      "0 99999999999999999999\n"])
    def test_bad_lines_rejected_with_line_number(self, text):
        p = qf.to_problem(qf.parse_dd(TWO_NODE))
        with pytest.raises(qf.ParseError) as err:
            qf.parse_proposals(text, p)
        assert err.value.line == 1


class TestTrace:
    def test_empty_trace_is_header_only(self):
        buffer = io.StringIO()
        qf.write_trace([], buffer)
        assert buffer.getvalue() == "iteration,elapsed_seconds,dual_bound,best_energy,event\n"

    def test_single_record(self):
        buffer = io.StringIO()
        qf.write_trace([qf.SolverTraceRecord(0, 0.0, -10.0, -5.0, "greedy")], buffer)
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,0,-10,-5,greedy"

    def test_missing_best_energy_is_empty_field(self):
        buffer = io.StringIO()
        qf.write_trace([qf.SolverTraceRecord(1, 0.5, -3.25, None, "edge-sweep")], buffer)
        assert buffer.getvalue().splitlines()[1] == "1,0.5,-3.25,,edge-sweep"

    def test_roundtrip_within_formatting(self):
        rng = np.random.default_rng(4)
        records = []
        t = 0.0
        bound = -50.0
        for i in range(30):
            t += float(rng.uniform(0, 0.3))
            bound += float(rng.uniform(0, 2.0))
            best = None if i < 3 else float(rng.uniform(bound, bound + 40))
            records.append(qf.SolverTraceRecord(i, t, bound, best, "event"))
        buffer = io.StringIO()
        qf.write_trace(records, buffer)
        back = qf.read_trace(io.StringIO(buffer.getvalue()))
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.iteration == b.iteration and a.event == b.event
            assert b.elapsed_seconds == pytest.approx(a.elapsed_seconds, rel=1e-5)
            assert b.dual_bound == pytest.approx(a.dual_bound, rel=1e-5)
            if a.best_energy is None:
                assert b.best_energy is None
            else:
                assert b.best_energy == pytest.approx(a.best_energy, rel=1e-5)

    @pytest.mark.parametrize("text,message", [
        ("iteration,elapsed\n0,0,0,,greedy\n", "line 1: unexpected trace header"),
        ("\n" + ddio.TRACE_HEADER + "\n0,0,0,,greedy\n\n1,0,0,greedy\n",
         "line 5: trace row must have 5 fields"),
        (ddio.TRACE_HEADER + "\nx,0,0,,greedy\n", "line 2: malformed trace row"),
        (ddio.TRACE_HEADER + "\n0,0,0,,greedy\n0,abc,0,,greedy\n", "line 3: malformed trace row"),
    ])
    def test_read_errors_carry_their_line(self, text, message):
        with pytest.raises(qf.ParseError, match=message):
            qf.read_trace(text)


def _load(text):
    return qf.to_problem(qf.parse_dd(text))


def _load_by_lines(text):
    return problem_by_dicts(*parse_dd_by_lines(text))


def _outcome(load, text):
    """The Problem a loader builds from text, or its error's type, message
    and line."""
    try:
        return load(text)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)


def _assert_same_outcome(text):
    """Load text as a string and as a stream, and compare both with the
    reference loader; returns the reference's outcome."""
    reference = _outcome(_load_by_lines, text)
    for source in (text, io.StringIO(text)):
        ours = _outcome(_load, source)
        if isinstance(reference, tuple):
            assert ours == reference
        else:
            assert same_problem_bytes(ours, reference)
    return reference


# Cost tokens that float() reads, beside full-precision reprs.
ODD_COSTS = ["+3", ".5", "1_000", "-0.0", "1e-310", "7", "-2E3"]


def _dd_lines(rng, n_left, n_right):
    """Records of a random valid `.dd` file as lists of tokens, header
    first: assignment ids out of file order, a and e lines interleaved,
    repeated terms and terms whose first id has the larger left point."""
    pairs = [(u, s) for u in range(n_left) for s in range(n_right) if rng.random() < 0.7]
    ids = rng.permutation(len(pairs)).tolist()

    def cost():
        if rng.random() < 0.1:
            return str(rng.choice(ODD_COSTS))
        return repr(float(rng.normal() * 10.0 ** rng.integers(-4, 5)))

    body = [["a", str(aid), str(u), str(s), cost()] for aid, (u, s) in zip(ids, pairs)]
    for _ in range(int(rng.integers(0, 4 * len(pairs) + 1))):
        i, j = rng.integers(0, len(pairs), 2)
        if pairs[i][0] != pairs[j][0]:
            body.append(["e", str(ids[i]), str(ids[j]), cost()])
            while rng.random() < 0.3:
                body.append(list(body[-1]) if rng.random() < 0.5
                            else ["e", str(ids[j]), str(ids[i]), cost()])
    body = [body[k] for k in rng.permutation(len(body))]
    n_pairs = sum(line[0] == "e" for line in body)
    return [["p", str(n_left), str(n_right), str(len(pairs)), str(n_pairs)]] + body


def _render(rng, lines):
    """File text of token lines with random separators, leading and trailing
    whitespace, CRLF line ends, comments and blank lines."""
    out = []
    for fields in lines:
        while rng.random() < 0.15:
            out.append(str(rng.choice(["c a comment", "c", "cfoo 1 2", "", "   ", "\t", "\r"])))
        lead = str(rng.choice(["", "", "", " ", "\t", "  \t"]))
        seps = [str(rng.choice([" ", " ", "\t", "  "])) for _ in fields[1:]]
        line = lead + fields[0] + "".join(s + f for s, f in zip(seps, fields[1:]))
        out.append(line + str(rng.choice(["", "", " ", "\r"])))
    return "\n".join(out) + str(rng.choice(["\n", "\r\n", ""]))


# Integer forms that int() reads beside plain digits: a sign, leading
# zeros, underscores, and decimal digits of other scripts.
ODD_INT_FORMS = ["+{}", "0{}", "0_{}", "+00_{}"]
ODD_DIGITS = ["٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９", "𝟎𝟏𝟐𝟑𝟒𝟓𝟔𝟕𝟖𝟗"]


def _odd_int(rng, token):
    """A non-negative integer token in another form int() reads the same."""
    if rng.random() < 0.5:
        token = token.translate(str.maketrans("0123456789", str(rng.choice(ODD_DIGITS))))
    return str(rng.choice(ODD_INT_FORMS)).format(token)


def _small_chunks(monkeypatch, rng):
    monkeypatch.setattr(ddio, "_CHUNK_LINES", int(rng.choice([1, 2, 3, 5, 8])))


class TestLoaderAgainstLineOracle:
    def test_random_files_build_identical_problems(self, monkeypatch):
        rng = np.random.default_rng(70)
        for _ in range(150):
            _small_chunks(monkeypatch, rng)
            lines = _dd_lines(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            text = _render(rng, lines)
            assert not isinstance(_assert_same_outcome(text), tuple)
            n_left, n_right, assignments, pairwise = parse_dd_by_lines(text)
            inst = qf.parse_dd(text)
            assert inst.assignments == [qf.DdAssignment(*a) for a in assignments]
            assert inst.pairwise_terms == [qf.DdPairwiseTerm(*t) for t in pairwise]

    def test_file_longer_than_a_chunk(self):
        rng = np.random.default_rng(71)
        header, *body = _dd_lines(rng, 12, 12)
        terms = [line for line in body if line[0] == "e"]
        body += terms * (ddio._CHUNK_LINES // len(terms))
        header[4] = str(sum(line[0] == "e" for line in body))
        text = "\r\n".join(["c long file", " ".join(header)]
                            + ["        " + "\t".join(body[k]) for k in rng.permutation(len(body))])
        assert text.count("\n") > ddio._CHUNK_LINES and len(text) > 32 * ddio._CHUNK_LINES
        assert not isinstance(_assert_same_outcome(text), tuple)

    def test_odd_integer_tokens_read_as_int_reads_them(self, monkeypatch):
        rng = np.random.default_rng(73)
        odd = 0
        for _ in range(200):
            _small_chunks(monkeypatch, rng)
            lines = _dd_lines(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            for line in lines:
                # Header fields, ids and indices; never a cost.
                for k in range(1, len(line) - (line[0] != "p")):
                    if rng.random() < 0.5:
                        line[k] = _odd_int(rng, line[k])
                        odd += 1
            assert not isinstance(_assert_same_outcome(_render(rng, lines)), tuple)
        assert odd > 2000

    @pytest.mark.parametrize("order", ["grouped", "reversed", "interleaved", "shuffled"])
    def test_every_term_order_builds_the_oracles_problem(self, order):
        # The same terms in four orders.  Each edge comes back in a second
        # run that repeats some of its (id1, id2) pairs, after the first run
        # of every edge; costs of many magnitudes make the order of the sums
        # show.
        rng = np.random.default_rng(77)
        pairs = [(u, s) for u in range(6) for s in range(5) if rng.random() < 0.8]
        ids = rng.permutation(len(pairs)).tolist()

        def cost():
            return repr(float(rng.normal() * 10.0 ** rng.integers(-8, 9)))

        runs = {}
        for (i, (u, _)), (j, (v, _)) in itertools.combinations(enumerate(pairs), 2):
            if u != v and rng.random() < 0.6:
                ends = [ids[i], ids[j]] if rng.random() < 0.5 else [ids[j], ids[i]]
                runs.setdefault((u, v), []).append(ends)
        edges = sorted(runs)
        first = [[[*ends, cost()] for ends in runs[e]] for e in edges]
        again = [[[*ends, cost()] for ends in runs[e] if rng.random() < 0.5] for e in edges]
        if order == "reversed":
            first, again = first[::-1], again[::-1]
        if order == "interleaved":
            terms = [t for group in (first, again)
                     for row in itertools.zip_longest(*group) for t in row if t]
        else:
            terms = [t for group in (first, again) for run in group for t in run]
        if order == "shuffled":
            terms = [terms[k] for k in rng.permutation(len(terms))]
        assert len(edges) == 15 and len(terms) > 2 * sum(map(len, again)) > 100
        lines = ([f"p 6 5 {len(pairs)} {len(terms)}"]
                 + [f"a {aid} {u} {s} {cost()}" for aid, (u, s) in zip(ids, pairs)]
                 + [f"e {id1} {id2} {c}" for id1, id2, c in terms])
        assert not isinstance(_assert_same_outcome("\n".join(lines) + "\n"), tuple)

    def test_mutated_files_raise_the_same_errors(self, monkeypatch):
        rng = np.random.default_rng(72)
        lines_past_first_chunk = errors_after_an_e_line = 0
        for trial in range(600):
            _small_chunks(monkeypatch, rng)
            lines = _dd_lines(rng, int(rng.integers(2, 6)), int(rng.integers(1, 6)))
            sizes = [int(f) for f in lines[0][1:]]
            for _ in range(1 + (trial % 3 == 0)):
                _mutate(rng, lines, sizes)
            text = _render(rng, lines)
            reference = _assert_same_outcome(text)
            if isinstance(reference, tuple) and reference[2] is not None:
                lines_past_first_chunk += reference[2] > ddio._CHUNK_LINES
                first_e = next((k for k, line in enumerate(text.split("\n"))
                                if line.strip().startswith("e")), len(text))
                errors_after_an_e_line += reference[2] > first_e + 1
        assert lines_past_first_chunk > 100 and errors_after_an_e_line > 100


def _mutate(rng, lines, sizes):
    """Break one thing in a token-line file, in place; ``sizes`` are the
    header's four numbers before any change."""
    a_lines = [k for k, line in enumerate(lines) if line[0] == "a"]
    e_lines = [k for k, line in enumerate(lines) if line[0] == "e"]
    k = int(rng.integers(0, len(lines)))
    line = lines[k]
    how = int(rng.integers(0, 13))
    if how == 0:
        del line[int(rng.integers(1, len(line)))]
    elif how == 1:
        line.insert(int(rng.integers(1, len(line) + 1)), "0")
    elif how == 2:
        line[int(rng.integers(1, len(line)))] = str(rng.choice(
            ["x", "1.5", "nan", "inf", "--1", "1e3", "0x10", "0x1p3", "1__0", "٣", str(2 ** 70)]))
    elif how == 3:
        line[0] = str(rng.choice(["x", "ab", "ee", "pp", "P", "a1"]))
    elif how == 4 and a_lines:
        target = lines[int(rng.choice(a_lines))]
        slot = int(rng.integers(1, 4))
        bound = sizes[{1: 2, 2: 0, 3: 1}[slot]]
        target[slot] = str(rng.choice([-1, 2 ** 70, bound, bound + 1]))
    elif how == 5 and len(a_lines) > 1:
        i, j = rng.choice(a_lines, 2, replace=False)
        lines[i][1] = lines[j][1]
    elif how == 6 and e_lines:
        target = lines[int(rng.choice(e_lines))]
        target[int(rng.integers(1, 3))] = str(rng.choice([-1, 2 ** 70, sizes[2]]))
    elif how == 7 and e_lines:
        target = lines[int(rng.choice(e_lines))]
        target[2] = target[1]
    elif how == 8 and lines[0][0] == "p" and len(lines[0]) == 5:
        slot = int(rng.integers(1, 5))
        lines[0][slot] = str(sizes[slot - 1] + int(rng.choice([-1, 1])))
    elif how == 9 and len(lines) > 1:
        del lines[int(rng.integers(1, len(lines)))]
    elif how == 10:
        lines.insert(int(rng.integers(0, len(lines) + 1)), list(lines[0]))
    elif how == 12:
        lines.insert(int(rng.integers(1, len(lines) + 1)), lines.pop(0))
    elif how == 11 and a_lines:
        target = lines[int(rng.choice(a_lines))]
        target[2:4] = lines[int(rng.choice(a_lines))][2:4]


class TestIdsBeyondInt64:
    @pytest.mark.parametrize("text", [
        f"p 2 2 2 1\na {2 ** 70} 0 0 1\na 1 1 1 1\ne 0 1 1\n",
        f"p 2 2 2 1\na 0 {2 ** 70} 0 1\na 1 1 1 1\ne 0 1 1\n",
        f"p 2 2 2 1\na 0 0 {2 ** 70} 1\na 1 1 1 1\ne 0 1 1\n",
        f"p 2 2 2 1\na 0 0 0 1\na 1 1 1 1\ne 0 {2 ** 70} 1\n",
        f"p 2 2 2 2\na 0 0 0 1\na 1 1 1 1\ne {-2 ** 70} 1 1\ne 0 1 1\n",
    ])
    def test_reported_as_parse_errors_with_their_line(self, text):
        with pytest.raises(qf.ParseError) as err:
            qf.parse_dd(text)
        assert str(2 ** 70) in str(err.value)
        assert ("out of range" in str(err.value)) or ("unknown assignment id" in str(err.value))
        assert _outcome(_load, text) == _outcome(_load_by_lines, text)


def _benchmark_text(family, size):
    """The `.dd` text of a benchmark workload's instance, as its harness
    writes it for ``--seed 1``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "instances.py"
    spec = importlib.util.spec_from_file_location("benchmark_instances", path)
    instances = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instances)
    make = getattr(instances, f"{family}_instance")
    return instances.relabel(make(0, size), 1)[0].dd_text()


@pytest.mark.parametrize("family,size", [("knn", 300), ("dense", 30)])
def test_benchmark_texts_never_reach_the_line_loop(monkeypatch, family, size):
    # The line loop reads every file right, so only this test sees a C
    # reader that refuses well-formed runs.  The line loop reads the header
    # alone; the C reader reads the a lines in one call and each chunk's e
    # lines in one call.
    text = _benchmark_text(family, size)
    line_runs, read_lines = [], ddio._read_lines
    reads, fields = [], ddio._fields

    def lines_spy(lines, *rest):
        line_runs.append(lines)
        return read_lines(lines, *rest)

    def fields_spy(lines, kind, width):
        if lines:
            reads.append((kind, width, lines))
        return fields(lines, kind, width)

    monkeypatch.setattr(ddio, "_read_lines", lines_spy)
    monkeypatch.setattr(ddio, "_fields", fields_spy)
    inst = qf.parse_dd(text)
    chunks = list(ddio._chunks(text))
    assert len(chunks) > 4 and line_runs == [chunks[0][:1]] and chunks[0][0].startswith("p ")
    assert reads == ([("a", 5, [line for line in chunks[0] if line[0] == "a"])]
                     + [("e", 4, [line for line in chunk if line[0] == "e"]) for chunk in chunks])
    assert len(inst.assignments) + len(inst.pairwise_terms) + 1 == text.count("\n")
    assert [c.dtype for c in inst.pairwise_terms.columns] == [np.int64, np.int64, np.float64]


# Odd lines to put among the a lines or among the e lines; the last three
# of them break the file.  A_RUN_BREAKERS break a rule only an a line
# has: a duplicate id, and a left index out of range.
ODD_MIDDLE_LINES = ["c a comment", "", "   ", "\t", "\r", " e 1 3 -2.5", "\t\te\t1\t3\t-2.5",
                    "a 4 1 2 0.5",
                    "p 2 3 4 7", "ee 0 2 1.5", "e\0 0 2 1.5"]
A_RUN_BREAKERS = ["a 0 1 2 0.5", "a 4 2 0 0.5"]


@pytest.mark.parametrize("tail", ["valid", "unknown id"])
@pytest.mark.parametrize("middle,among", [
    *(pytest.param(middle, "e", id=middle) for middle in ODD_MIDDLE_LINES),
    *(pytest.param(middle, "a", id=f"among a: {middle}")
      for middle in ODD_MIDDLE_LINES + A_RUN_BREAKERS)])
def test_chunks_that_start_and_end_with_e_lines_read_as_the_line_oracle(
        monkeypatch, middle, among, tail):
    # Chunks of five lines.  Among the e lines, the odd line is third of
    # the second chunk, which holds e lines only; among the a lines, it is
    # fourth of the first, after the header and two a lines, and the second
    # chunk is an a line, then e lines.  An unknown id in the last line of
    # the second chunk makes the error's line depend on every line before
    # it being counted.
    last = "e 1 2 4.0" if tail == "valid" else "e 1 9 4.0"
    a_lines = ["a 0 0 0 1.0", "a 1 0 1 -1.0", "a 2 1 0 2.0", "a 3 1 1 0.0"]
    e_lines = ["e 0 2 1.0", "e 0 3 2.0", "e 1 3 3.0", last, "e 3 0 5.0", "e 2 1 6.0", "e 0 3 7.0"]
    (a_lines if among == "a" else e_lines).insert(2, middle)
    body = a_lines + e_lines
    kinds = [line.split()[:1] for line in body]
    text = "\n".join([f"p 2 3 {kinds.count(['a'])} {kinds.count(['e'])}"] + body) + "\n"
    monkeypatch.setattr(ddio, "_CHUNK_LINES", 5)
    lines = text.split("\n")[:-1]
    chunks = [lines[k:k + ddio._CHUNK_LINES] for k in range(0, len(lines), ddio._CHUNK_LINES)]
    assert (chunks[1][2] if among == "e" else chunks[0][3]) == middle
    assert chunks[1][0][:1] == among and all(c[-1][:1] == "e" for c in chunks[1:])
    expected = _read_or_error(_oracle_columns, text)
    assert _read_or_error(_parse_dd_columns, io.StringIO(text)) == expected
    assert _read_or_error(_parse_dd_columns, text) == expected
    assert (len(expected) == 4) == (tail == "valid" and middle in ODD_MIDDLE_LINES[:-3])


def _grid_text(n):
    """A `.dd` text in which each of n nodes has every one of n labels and
    each two nodes are joined by a term for every two of their labels."""
    rng = np.random.default_rng(78)
    grid = list(itertools.product(range(n), repeat=2))
    terms = [(u * n + s, v * n + t) for u, v in itertools.combinations(range(n), 2)
             for s, t in grid]
    costs = iter(rng.normal(size=len(grid) + len(terms)).tolist())
    lines = ([f"p {n} {n} {n * n} {len(terms)}"]
             + [f"a {u * n + s} {u} {s} {next(costs)!r}" for u, s in grid]
             + [f"e {a} {b} {next(costs)!r}" for a, b in terms])
    return "\n".join(lines) + "\n"


def test_loading_holds_a_few_per_term_arrays(monkeypatch):
    # Small chunks, so that a chunk's own lines weigh little beside the
    # columns kept.  At 4,096 lines a chunk, parse_dd peaked at 1.8 times
    # the bytes of its columns and to_problem at 2.2 times those of its
    # Problem's arrays.
    monkeypatch.setattr(ddio, "_CHUNK_LINES", 4096)
    text = _grid_text(20)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        inst = qf.parse_dd(text)
        parse_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        problem = qf.to_problem(inst)
        build_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    columns = sum(c.nbytes for c in (*inst.assignments.columns, *inst.pairwise_terms.columns))
    arrays = sum(a.nbytes for a in vars(problem).values() if isinstance(a, np.ndarray))
    assert len(inst.pairwise_terms) == 76_000
    assert parse_peak < 2.5 * columns
    assert build_peak < 3 * arrays


# Token forms for the grammar property test.  Costs: halfway and
# near-halfway decimals, subnormals, overflow, NaN and infinity spellings,
# and forms float() reads but the C reader refuses, or neither reads.
GRAMMAR_COSTS = [
    "9007199254740993", "9007199254740993.000001",
    "1.00000000000000011102230246251565404236316680908203125",
    "1.00000000000000011102230246251565404236316680908203126",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "5e-324", "2.225073858507201e-308",
    "1e400", "-1e400", "-nan", "nan", "Infinity", "-inf", "+.5e-3", "-0.0",
    "1_000.5", "\u0661.\u0665", "\uff13.\uff15", "\U0001d7d1.\U0001d7d3", "0x1p3", "1.5\0"]
# Integer forms: int() reads a sign, leading zeros and underscores; a
# float, a trailing NUL and values beyond int64 break the line.
GRAMMAR_INTS = ["{}"] * 4 + ["+{}", "0{}", "0_{}"]
GRAMMAR_BAD_INTS = ["{}.0", "{}\0", str(2 ** 63), str(-2 ** 70)]
# Whitespace to str.split, mid-line CR included.
GRAMMAR_SEPARATORS = [" "] * 6 + ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028",
                                  "\u3000", "\r"]
# A first field that starts with the kind but is not it.
GRAMMAR_KINDS = ["{0}{0}", "{0}xx", "{0}\0", "\0{0}", "{0}\0{0}"]


def _grammar_line(draw, kind, ints):
    def one_in(n):
        return draw(strategies.integers(0, n - 1)) == 0

    def pick(forms):
        return draw(strategies.sampled_from(forms))

    if one_in(8):
        kind = pick(GRAMMAR_KINDS).format(kind)
    fields = [pick(GRAMMAR_BAD_INTS if one_in(16) else GRAMMAR_INTS).format(v) for v in ints]
    if one_in(10):
        fields = [f.translate(str.maketrans("0123456789", pick(ODD_DIGITS))) for f in fields]
    fields.append(repr(draw(strategies.floats())) if one_in(2) else pick(GRAMMAR_COSTS))
    lead = pick(["", "", " ", "\x85", "\u3000"])
    return lead + kind + "".join(pick(GRAMMAR_SEPARATORS) + f for f in fields)


@strategies.composite
def _grammar_texts(draw):
    """A small `.dd` text whose a and e lines are built from token forms."""
    st = strategies
    n_left, n_right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_left - 1), st.integers(0, n_right - 1)),
                          min_size=1, max_size=5, unique=True))
    ids = draw(st.permutations(range(len(pairs))))
    ends = draw(st.lists(st.tuples(*[st.integers(0, len(pairs) - 1)] * 2), max_size=6))
    terms = [(ids[i], ids[j]) for i, j in ends if pairs[i][0] != pairs[j][0]]
    lines = ([_grammar_line(draw, "a", (aid, u, s)) for aid, (u, s) in zip(ids, pairs)]
             + [_grammar_line(draw, "e", term) for term in terms])
    header = f"p {n_left} {n_right} {len(pairs)} {len(terms)}"
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + draw(st.permutations(lines))) + end


def _column_values(columns):
    """Each column's dtype and bytes; exact ints for a column beyond int64."""
    return [(c.dtype.str, c.tolist() if c.dtype == object else c.tobytes()) for c in columns]


def _read_or_error(parse, source):
    """The sizes and columns a reader reads, or its error's type, message
    and line."""
    try:
        n_left, n_right, assignments, terms = parse(source)
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return n_left, n_right, _column_values(assignments), _column_values(terms)


def _parse_dd_columns(source):
    inst = qf.parse_dd(source)
    return inst.n_left, inst.n_right, inst.assignments.columns, inst.pairwise_terms.columns


def _oracle_columns(text):
    def columns(records, width):
        *ints, cost = zip(*records) if records else [()] * width
        return [np.array(c, dtype=np.int64) for c in ints] + [np.array(cost, dtype=np.float64)]

    n_left, n_right, assignments, terms = parse_dd_by_lines(text)
    return n_left, n_right, columns(assignments, 4), columns(terms, 3)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_grammar_texts(), chunk=strategies.sampled_from([ddio._CHUNK_LINES, *range(1, 9)]))
def test_token_forms_read_as_the_line_oracle_reads_them(text, chunk):
    # Columns match by bytes, errors by class, message and line, for a
    # string and a stream at every chunk size.
    expected = _read_or_error(_oracle_columns, text)
    with mock.patch.object(ddio, "_CHUNK_LINES", chunk):
        for source in (text, io.StringIO(text)):
            assert _read_or_error(_parse_dd_columns, source) == expected
