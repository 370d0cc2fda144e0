import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qapfuse as qf
from qapfuse.cli import main

MINIMAL = "p 1 1 1 0\na 0 0 0 -2.5\n"
TWO_NODE = "p 2 2 2 1\na 0 0 0 1\na 1 1 1 1\ne 0 1 -3\n"
TRIPLE = "p 3 3 3 0\na 0 0 0 1\na 1 1 1 1\na 2 2 2 1\n"


@pytest.fixture
def minimal_dd(tmp_path):
    path = tmp_path / "minimal.dd"
    path.write_text(MINIMAL)
    return str(path)


@pytest.fixture
def two_node_dd(tmp_path):
    path = tmp_path / "two.dd"
    path.write_text(TWO_NODE)
    return str(path)


class TestSolve:
    def test_minimal_instance_summary(self, minimal_dd, capsys):
        code = main(["solve", minimal_dd])
        out = capsys.readouterr()
        assert code == 0
        assert out.err == ""
        assert out.out.startswith("energy=-2.5 bound=-2.5 gap=0 optimal=true time=")

    def test_zero_max_batches_is_usage_error(self, minimal_dd, capsys):
        code = main(["solve", minimal_dd, "--max-batches", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "max-batches" in err

    @pytest.mark.parametrize("value", ["nan", "NaN", "0", "-1"])
    def test_time_budget_must_be_a_positive_number(self, minimal_dd, capsys, value):
        code = main(["solve", minimal_dd, "--time-budget", value])
        err = capsys.readouterr().err
        assert code == 2
        assert "argument --time-budget: must be > 0" in err

    @pytest.mark.parametrize("subcommand", ["solve", "fuse"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, subcommand):
        # Refused while the arguments are parsed: the instance path does
        # not even exist.
        missing = str(tmp_path / "missing.dd")
        extra = [missing, missing] if subcommand == "fuse" else []
        code = main([subcommand, missing] + extra + ["--seed", "-1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "argument --seed: must be >= 0" in err
        assert main([subcommand, missing] + extra + ["--seed", "0"]) == 1
        capsys.readouterr()

    def test_missing_file_is_runtime_error(self, capsys):
        code = main(["solve", "/nonexistent/x.dd"])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert "error:" in out.err

    def test_parse_error_reported_with_line(self, tmp_path, capsys):
        path = tmp_path / "bad.dd"
        path.write_text("p 1 1 1 0\na 0 0 0 oops\n")
        code = main(["solve", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    def test_scipy_without_its_lap_solver_is_runtime_error(self, two_node_dd, monkeypatch,
                                                            capsys):
        def solve_lap(problem, costs):
            raise ImportError("scipy 0.0: no scipy.optimize._lsap.linear_sum_assignment")

        monkeypatch.setattr(qf.solver, "solve_lap", solve_lap)
        code = main(["solve", two_node_dd, "--primal", "lap"])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert out.err == "error: scipy 0.0: no scipy.optimize._lsap.linear_sum_assignment\n"

    def test_cr_only_file_fails_as_its_text(self, tmp_path, capsys):
        # LF or CRLF end a line; a lone CR is whitespace inside one.
        text = TWO_NODE.replace("\n", "\r")
        path = tmp_path / "cr.dd"
        path.write_bytes(text.encode())
        with pytest.raises(qf.ParseError) as expected:
            qf.parse_dd(text)
        code = main(["solve", str(path)])
        out = capsys.readouterr()
        assert code == 1
        assert out.out == ""
        assert str(expected.value) in out.err

    def test_crlf_file_solves(self, tmp_path, capsys):
        path = tmp_path / "crlf.dd"
        path.write_bytes(TWO_NODE.replace("\n", "\r\n").encode())
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("energy=-1 ")

    def test_file_longer_than_a_chunk_solves_as_its_text(self, tmp_path, capsys):
        # 20 nodes x 20 labels: 76,000 pairwise lines, more than one chunk of
        # the streaming reader.
        rng = np.random.default_rng(3)
        n = 20
        lines = [f"p {n} {n} {n * n} {n * (n - 1) // 2 * n * n}"]
        lines += [f"a {u * n + s} {u} {s} {rng.normal()!r}" for u in range(n) for s in range(n)]
        costs = iter(rng.normal(size=n * (n - 1) // 2 * n * n).tolist())
        lines += [f"e {a} {b} {next(costs)!r}" for a in range(n * n)
                  for b in range(a + 1, n * n) if a // n != b // n]
        text = "\n".join(lines) + "\n"
        assert len(lines) > qf.ddio._CHUNK_LINES
        path, trace = tmp_path / "long.dd", tmp_path / "trace.csv"
        path.write_text(text)
        assert main(["solve", str(path), "--max-batches", "3", "--trace", str(trace)]) == 0
        capsys.readouterr()
        outcome = qf.solve(qf.to_problem(qf.parse_dd(text)), qf.SolverConfig(max_batches=3))
        expected = io.StringIO()
        qf.write_trace(outcome.trace, expected)
        assert trace.read_text() == expected.getvalue()

    def test_trace_files_byte_identical_across_runs(self, two_node_dd, tmp_path, capsys):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["solve", two_node_dd, "--max-batches", "5", "--seed", "7"]
        assert main(args + ["--trace", str(t1)]) == 0
        assert main(args + ["--trace", str(t2)]) == 0
        capsys.readouterr()
        assert t1.read_bytes() == t2.read_bytes()
        records = qf.read_trace(t1.read_text())
        assert records and records[0].event == "greedy"

    def test_output_file_is_valid_proposal(self, two_node_dd, tmp_path, capsys):
        out_path = tmp_path / "best.txt"
        assert main(["solve", two_node_dd, "--output", str(out_path)]) == 0
        capsys.readouterr()
        problem = qf.to_problem(qf.parse_dd(TWO_NODE))
        (best,) = qf.parse_proposals(out_path.read_text(), problem)
        assert qf.is_feasible(problem, best)
        # optimum of the two-node instance: both assignments plus the -3 tie
        assert qf.energy(problem, best) == pytest.approx(-1.0)

    def test_solver_flags_accepted(self, two_node_dd, capsys):
        code = main(["solve", two_node_dd, "--max-batches", "3",
                     "--batch-size", "2", "--greedy-generations", "2",
                     "--fusion", "exact", "--primal", "lap",
                     "--time-budget", "5", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.startswith("energy=-1 ")


class TestFuse:
    def test_single_proposal(self, two_node_dd, tmp_path, capsys):
        proposals = tmp_path / "props.txt"
        proposals.write_text("0 1\n")
        results = tmp_path / "results.csv"
        code = main(["fuse", two_node_dd, str(proposals), str(results)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == "energy=-1"
        lines = results.read_text().splitlines()
        assert lines[0] == "step,proposal_energy,incumbent_energy"
        assert lines[1] == "0,-1,-1"
        assert len(lines) == 2

    def test_repeated_proposal_keeps_incumbent(self, two_node_dd, tmp_path, capsys):
        proposals = tmp_path / "props.txt"
        proposals.write_text("0 -1\n0 -1\n")
        results = tmp_path / "results.csv"
        assert main(["fuse", two_node_dd, str(proposals), str(results),
                     "--fusion", "exact", "--seed", "5"]) == 0
        capsys.readouterr()
        lines = results.read_text().splitlines()
        assert lines[1] == "0,1,1"
        assert lines[2] == "1,1,1"

    def test_greedy_proposals_monotone(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        # small random instance written through the dd writer
        from helpers import random_dd_text
        text = random_dd_text(rng, max_left=4, max_right=4)
        instance = tmp_path / "inst.dd"
        instance.write_text(text)
        problem = qf.to_problem(qf.parse_dd(text))
        proposals = [qf.greedy_assignment(problem, seed)
                     for seed in range(10)]
        proposal_path = tmp_path / "props.txt"
        with open(proposal_path, "w") as handle:
            qf.write_proposals(proposals, handle)
        results = tmp_path / "results.csv"
        assert main(["fuse", str(instance), str(proposal_path), str(results)]) == 0
        capsys.readouterr()
        rows = results.read_text().splitlines()[1:]
        final = float(rows[-1].split(",")[2])
        assert all(final <= qf.energy(problem, x) + 1e-6 for x in proposals)

    def test_empty_proposals_rejected(self, two_node_dd, tmp_path, capsys):
        proposals = tmp_path / "props.txt"
        proposals.write_text("")
        code = main(["fuse", two_node_dd, str(proposals), str(tmp_path / "r.csv")])
        assert code == 1
        assert "empty" in capsys.readouterr().err


class TestBound:
    def test_all_dummy_proposal(self, tmp_path, capsys):
        instance = tmp_path / "inst.dd"
        instance.write_text(TRIPLE)
        proposals = tmp_path / "props.txt"
        proposals.write_text("0 1 2\n-1 -1 -1\n")
        code = main(["bound", str(instance), str(proposals)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("m=3 n=0 bound=8 count=")

    def test_identical_feasible_proposals(self, tmp_path, capsys):
        instance = tmp_path / "inst.dd"
        instance.write_text("p 2 2 2 0\na 0 0 0 1\na 1 1 1 1\n")
        proposals = tmp_path / "props.txt"
        proposals.write_text("0 1\n0 1\n")
        assert main(["bound", str(instance), str(proposals)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("m=0 n=2 bound=4 count=1")

    def test_infeasible_first_proposal_rejected(self, tmp_path, capsys):
        instance = tmp_path / "inst.dd"
        instance.write_text("p 2 1 2 0\na 0 0 0 1\na 1 1 0 1\n")
        proposals = tmp_path / "props.txt"
        proposals.write_text("0 0\n-1 -1\n")
        code = main(["bound", str(instance), str(proposals)])
        out = capsys.readouterr()
        assert code == 1
        assert "feasible" in out.err

    @staticmethod
    def random_bound_runs(tmp_path, capsys, seed):
        """(problem, x1, x2, output fields) of `bound` on ten random pairs."""
        rng = np.random.default_rng(seed)
        from helpers import random_dd_text, random_feasible_assignment, random_assignment
        for _ in range(10):
            text = random_dd_text(rng, max_left=5, max_right=5)
            problem = qf.to_problem(qf.parse_dd(text))
            instance = tmp_path / "inst.dd"
            instance.write_text(text)
            proposals = tmp_path / "props.txt"
            x1 = random_feasible_assignment(problem, rng)
            x2 = random_assignment(problem, rng)
            with open(proposals, "w") as handle:
                qf.write_proposals([x1, x2], handle)
            assert main(["bound", str(instance), str(proposals)]) == 0
            out = capsys.readouterr().out
            yield problem, x1, x2, dict(p.split("=") for p in out.split())

    def test_count_never_exceeds_bound(self, tmp_path, capsys):
        for _, _, _, parts in self.random_bound_runs(tmp_path, capsys, 77):
            assert int(parts["count"]) <= int(parts["bound"])

    def test_count_matches_enumeration_oracle(self, tmp_path, capsys):
        from helpers import restricted_space_optimum
        for problem, x1, x2, parts in self.random_bound_runs(tmp_path, capsys, 78):
            assert int(parts["count"]) == restricted_space_optimum(problem, x1, x2)[1]

    def test_wrong_proposal_count_rejected(self, tmp_path, capsys):
        instance = tmp_path / "inst.dd"
        instance.write_text(TRIPLE)
        proposals = tmp_path / "props.txt"
        proposals.write_text("0 1 2\n")
        assert main(["bound", str(instance), str(proposals)]) == 1
        assert "two proposals" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["fuse", "bound"])
def test_cr_only_proposal_file_fails_as_its_text(subcommand, two_node_dd, tmp_path, capsys):
    # As for .dd files, a lone CR is whitespace inside a line.
    text = "0 1\r0 1\r"
    path = tmp_path / "cr.txt"
    path.write_bytes(text.encode())
    with pytest.raises(qf.ParseError) as expected:
        qf.parse_proposals(text, qf.to_problem(qf.parse_dd(TWO_NODE)))
    results = [str(tmp_path / "r.csv")] if subcommand == "fuse" else []
    code = main([subcommand, two_node_dd, str(path)] + results)
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert str(expected.value) in out.err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args,code,stream,start", [
    (["solve", "{dd}"], 0, "stdout", "energy=-2.5 bound=-2.5 gap=0 optimal=true time="),
    (["solve", "{dd}", "--max-batches", "0"], 2, "stderr", "usage: qapfuse solve"),
    ([], 2, "stderr", "usage: qapfuse"),
])
def test_module_entry_point(minimal_dd, args, code, stream, start):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-m", "qapfuse"] + [a.format(dd=minimal_dd) for a in args]
    result = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == code, result.stderr
    assert getattr(result, stream).startswith(start)


@pytest.mark.parametrize("subcommand,start", [
    ("solve", "energy=-2.5 bound=-2.5 gap=0 optimal=true time="),
    ("fuse", "energy=-2.5\n"),
    ("bound", "m=1 n=0 bound=2 count=2\n"),
])
def test_files_read_as_utf8_under_an_ascii_locale(tmp_path, subcommand, start):
    dd = tmp_path / "cafe.dd"
    dd.write_bytes(("c café\n" + MINIMAL).encode("utf-8"))
    proposals = tmp_path / "props.txt"
    proposals.write_text("0\n-1\n")
    extra = {"solve": [], "fuse": [proposals, tmp_path / "steps.csv"], "bound": [proposals]}
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0")
    argv = [sys.executable, "-m", "qapfuse", subcommand, dd, *extra[subcommand]]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(start)
