"""Byte-identical traces on the benchmark's own instances.

A change that claims to keep the solver's results must leave these sha256
pins alone; a change that means to move them re-pins them and says why.
The instances come from ``benchmarks/instances.py``, imported read-only.
"""

import functools
import hashlib
import io
import sys
from pathlib import Path

import pytest

import qapfuse as qf

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
import instances  # noqa: E402

FAMILY_SEED, RELABEL_SEED, SOLVER_SEED = 0, 1, 0


@functools.cache
def load(family):
    """The benchmark's instance of ``family``, loaded as the harness loads it."""
    make = instances.knn_instance if family == "knn" else instances.dense_instance
    inst, _ = instances.relabel(make(FAMILY_SEED), RELABEL_SEED)
    return qf.to_problem(qf.parse_dd(inst.dd_text()))


@pytest.mark.parametrize("family, config, digest", [
    ("knn", dict(max_batches=20),
     "7eca72059ec57e7be46246b121450ad31f3ffa7df1683b7ac7984bec7eb300e2"),
    ("dense", dict(max_batches=30, primal_heuristic="lap"),
     "58441e902a17d7ab6dff2a5a8f8934db83daf5193d82d5bc2b53cd5f80938ec2"),
    ("knn", dict(max_batches=20, greedy_generations=3),
     "3713b3043b393defad7a258be2a2d7ede5ebd6fb50ec2091e6fa0ea2e811d632"),
    # Long enough for LAP proposals to repeat, so settled fusions are
    # answered from the solve's memo.
    ("dense", dict(max_batches=100, primal_heuristic="lap", greedy_generations=2),
     "c2095b072e4eae8f6f3b0afae917516596a1ffe00aaac8ab591bb1a819a0fcec"),
], ids=["knn300-greedy", "dense30-lap", "knn300-greedy-3-generations",
        "dense30-lap-100-batches-2-generations"])
def test_benchmark_trace_sha256(family, config, digest):
    buffer = io.StringIO()
    qf.write_trace(qf.solve(load(family), qf.SolverConfig(seed=SOLVER_SEED, **config)).trace,
                   buffer)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("family, config", [
    ("knn", dict(max_batches=20)),
    ("dense", dict(max_batches=30, primal_heuristic="lap")),
], ids=["knn300-greedy", "dense30-lap"])
def test_benchmark_sweeps_skip_the_edge_minima(family, config, monkeypatch):
    # Every sweep's bound is provably its node minima and label term, so
    # dual_bound runs once per solve: for the initial state.
    calls, real = [], qf.dualbca.dual_bound
    monkeypatch.setattr(qf.dualbca, "dual_bound", lambda *args: calls.append(1) or real(*args))
    trace = qf.solve(load(family), qf.SolverConfig(seed=SOLVER_SEED, **config)).trace
    assert len(calls) == 1 and sum(r.event == "label-sweep" for r in trace) == config["max_batches"]
