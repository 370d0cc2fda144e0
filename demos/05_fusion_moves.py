"""Fuse pairs of assignments: the result is never worse than either input.

Fusion restricts each node to its two proposed labels and solves that
two-label problem (exactly, or by roof duality plus local search), with
uniqueness enforced by penalties.  Folding a stream of mediocre proposals
into an incumbent quickly beats every single proposal.
"""

import numpy as np

import qapfuse as qf

rng = np.random.default_rng(7)
n, L = 10, 10
candidates = [list(range(L)) for _ in range(n)]
unary = [np.append(rng.uniform(-4, 4, L), 0.0) for _ in range(n)]
pairwise = {(u, v): rng.uniform(-1.5, 1.5, (L + 1, L + 1))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5}
problem = qf.Problem(n, L, candidates, unary, pairwise)

proposals = [qf.greedy_assignment(problem, seed) for seed in range(12)]
print("proposal energies:",
      " ".join(f"{qf.energy(problem, x):7.2f}" for x in proposals))

x1, x2 = proposals[0], proposals[1]
fp = qf.build_fusion(problem, x1, x2)
print(f"\nfusing #0 with #1: {fp.num_variables} nodes disagree,"
      f" {len(fp.tables)} binary tables, base energy {fp.base_energy:.2f}")
fused = qf.fuse(problem, x1, x2, mode="qpbo-i", rng=0)
print(f"energies: x1 {qf.energy(problem, x1):.2f}, x2 {qf.energy(problem, x2):.2f},"
      f" fused {qf.energy(problem, fused):.2f}")

# Search-space size bound for this fusion.
print("search-space bound:", qf.count_bound(problem, x2))

final, steps = qf.fuse_sequence(problem, proposals, mode="qpbo-i")
print("\nfolding all 12 proposals:")
for step, proposal_energy, incumbent_energy in steps:
    print(f"  step {step:2d}: proposal {proposal_energy:8.2f} -> incumbent {incumbent_energy:8.2f}")
print("final energy:", qf.energy(problem, final),
      "feasible:", qf.is_feasible(problem, final))
