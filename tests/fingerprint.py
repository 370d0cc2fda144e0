"""Equivalence fingerprint: the final results of 200 fixed solves.

Family seeds 0-49 of both benchmark generators (``benchmarks/instances.py``,
imported read-only), each relabelled with seed 1 and loaded from its `.dd`
text as the harness loads it, are solved with greedy and with LAP proposals
at the harness's batch counts and solver seed 0.  Per solve the fingerprint
keeps ``float.hex`` of the final energy and bound, ``proved_optimal``, and
the sha256 of the best assignment (int64) and of the ``write_trace`` output.

    PYTHONPATH=src python tests/fingerprint.py            # rewrite the file
    PYTHONPATH=src python tests/fingerprint.py --check    # compare with it

``--check`` prints every solve that moved, with the fields that moved and
its energy and bound before and after, then one summary line, and exits 1
if any solve moved.
"""

import argparse
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

import qapfuse as qf

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
import instances  # noqa: E402

PATH = Path(__file__).resolve().parent / "data" / "fingerprint.json"
FAMILIES = {"knn": (instances.knn_instance, 20), "dense": (instances.dense_instance, 30)}
HEURISTICS = ("greedy", "lap")
FAMILY_SEEDS = range(50)
RELABEL_SEED, SOLVER_SEED = 1, 0


def load(family, seed):
    """Family seed ``seed`` of ``family``, relabelled and loaded from its text."""
    inst, _ = instances.relabel(FAMILIES[family][0](seed), RELABEL_SEED)
    return qf.to_problem(qf.parse_dd(inst.dd_text()))


def name(family, heuristic, seed):
    return f"{family}-{heuristic}-{seed}"


def fingerprint(problem, family, heuristic):
    """One solve's entry: hex energy and bound, optimality, sha256s."""
    config = qf.SolverConfig(max_batches=FAMILIES[family][1], seed=SOLVER_SEED,
                             primal_heuristic=heuristic)
    outcome = qf.solve(problem, config)
    buffer = io.StringIO()
    qf.write_trace(outcome.trace, buffer)
    return {"energy": float.hex(float(outcome.best_energy)),
            "bound": float.hex(float(outcome.final_dual_bound)),
            "proved_optimal": bool(outcome.proved_optimal),
            "best_sha256": hashlib.sha256(np.asarray(outcome.best, "<i8").tobytes()).hexdigest(),
            "trace_sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest()}


def run():
    """Every solve's entry, by name."""
    entries = {}
    for family in FAMILIES:
        for seed in FAMILY_SEEDS:
            problem = load(family, seed)
            for heuristic in HEURISTICS:
                entries[name(family, heuristic, seed)] = fingerprint(problem, family, heuristic)
    return entries


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {PATH.name} instead of rewriting it")
    args = parser.parse_args()
    start = time.perf_counter()
    entries = run()
    seconds = time.perf_counter() - start
    if not args.check:
        PATH.write_text(json.dumps(entries, indent=1) + "\n")
        print(f"fingerprint: wrote {len(entries)} solves to {PATH.name} ({seconds:.1f} s)")
        return 0
    committed = json.loads(PATH.read_text())
    moved = [key for key in entries if entries[key] != committed.get(key)]
    for key in moved:
        was, now = committed.get(key, {}), entries[key]
        fields = ", ".join(field for field in now if was.get(field) != now[field])
        print(f"{key} moved ({fields}): energy {float.fromhex(was.get('energy', 'nan'))!r} -> "
              f"{float.fromhex(now['energy'])!r}, bound "
              f"{float.fromhex(was.get('bound', 'nan'))!r} -> {float.fromhex(now['bound'])!r}")
    print(f"fingerprint: {len(entries) - len(moved)} of {len(entries)} solves unchanged "
          f"({seconds:.1f} s)")
    return int(bool(moved))


if __name__ == "__main__":
    sys.exit(main())
