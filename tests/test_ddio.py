import io

import numpy as np
import pytest

import qapfuse as qf
from helpers import candidates, edge_table, random_dd_text, unary_costs

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

    @pytest.mark.parametrize("text", ["0\n", "0 1 2\n", "0 9\n", "a b\n"])
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
