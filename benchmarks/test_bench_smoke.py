"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q benchmarks/test_bench_smoke.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench

qf = bench.load_library()

import instances  # noqa: E402  (needs qapfuse on the path)
import layers  # noqa: E402
import tracer as tracing  # noqa: E402

TINY = {
    "knn300-greedy": replace(bench.WORKLOADS["knn300-greedy"], size=30, batches=3,
                             target_frac=0.9),
    "dense30-lap": replace(bench.WORKLOADS["dense30-lap"], size=8, batches=3),
    "fuse-exact": replace(bench.WORKLOADS["fuse-exact"], size=8, free=(5, 6), middle=1,
                          final_energy=None),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    workload = TINY[name]
    run = bench.Run(qf, workload, bench.Inputs(workload, 3))
    bench.run_untraced(run, seconds=0.0)
    assert run.errors == []
    assert run.attempted >= bench.MIN_ROUNDS * 2
    _, metrics = bench.summarise(run, bench.END_TO_END)
    assert metrics["rel_gap"]["value"] >= 0  # a tiny relaxation can be tight
    assert all(metrics[name]["value"] > 0 for name, _ in bench.END_TO_END if name != "rel_gap")
    for name in ("solve_s", "time_to_target_s"):
        assert len({len(intervals) for intervals in run.repeats[name]}) == 1
        assert metrics[name]["value"] <= min(run.samples[name])


def test_fastest_sums_each_intervals_fastest_repeat():
    run = bench.Run(qf, TINY["knn300-greedy"], None)
    run.add_timed("solve_s", [3.0, 1.0, 2.0])
    run.add_timed("solve_s", [1.0, 2.0, 2.5])
    assert run.fastest("solve_s") == 1.0 + 1.0 + 2.0
    assert run.samples["solve_s"] == [6.0, 5.5]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_accounts_for_the_timed_call(name, tmp_path):
    workload = TINY[name]
    run = bench.Run(qf, workload, bench.Inputs(workload, 4))
    bench.run_traced(run, seconds=0.0, spans_out=tmp_path / "spans.csv")
    assert run.errors == []
    rows = (tmp_path / "spans.csv").read_text().splitlines()
    assert rows[0] == "round,index,name,start,end,parent,value"
    assert any(",solver." in row and ",-1," in row for row in rows[1:])
    _, metrics = bench.summarise(run, layers.PER_LAYER)
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    for total, root_self, *by_layer in zip(
            run.samples["traced_call_s"], run.samples["solver.self_s"],
            *(run.samples[f"self.{layer}"] for layer in tracing.LAYERS)):
        assert root_self + sum(by_layer) == pytest.approx(total, rel=1e-9)
    if workload.family == "fuse":
        assert metrics["dualbca.sweeps"]["value"] == 0
        assert metrics["fusion.fuse_self_s"]["value"] > 0
    else:
        assert 0 < metrics["dualbca.sweeps"]["value"] <= workload.batches
        assert metrics["dualbca.edge_updates"]["value"] > 0


def test_tracer_rebinds_every_binding_and_restores_it():
    originals = (qf.energy, qf.model.energy, qf.fusion.energy, qf.solver.energy,
                 qf.qpbo.MaxFlow.max_flow, qf.model.Problem.__init__)
    text = instances.dense_instance(0, 4).dd_text()
    tracer = tracing.Tracer()
    with tracing.install(tracer, qf):
        assert qf.fusion.energy is qf.solver.energy is qf.model.energy is qf.energy
        assert qf.energy is not originals[0]
        assert qf.qpbo.MaxFlow.max_flow is not originals[4]
        problem = qf.to_problem(qf.parse_dd(text))
        qf.energy(problem, qf.all_dummy(problem))
    assert (qf.energy, qf.model.energy, qf.fusion.energy, qf.solver.energy,
            qf.qpbo.MaxFlow.max_flow, qf.model.Problem.__init__) == originals
    names = [span[0] for span in tracer.collect()]
    assert names[:3] == ["ddio.parse_dd", "ddio.to_problem", "model.Problem.__init__"]
    assert "model.energy" in names


def test_stored_fusion_energy_matches_the_generator():
    workload = bench.WORKLOADS["fuse-exact"]
    _, _, expected = instances.fusion_sequence(
        bench.FAMILY_SEED, workload.size, workload.free, workload.middle)
    assert expected[-1] == pytest.approx(workload.final_energy, rel=1e-12)
    assert expected[workload.middle] < expected[workload.middle - 1]


def test_relabel_keeps_energies():
    inst = instances.knn_instance(5, n=40)
    x = inst.planted.copy()
    x[::3] = instances.DUMMY
    moved, (y,) = instances.relabel(inst, 9, [x])
    assert instances.energy_by_loops(moved, y) == pytest.approx(
        instances.energy_by_loops(inst, x), rel=1e-12)
    problem = qf.to_problem(qf.parse_dd(moved.dd_text()))
    assert qf.energy(problem, y) == pytest.approx(instances.energy_by_loops(moved, y), rel=1e-12)


def test_exits_nonzero_without_the_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "fuse-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
