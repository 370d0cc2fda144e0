"""Generate diverse feasible assignments with the randomized greedy pass.

Each run visits nodes in random frontier order and picks the cheapest
still-available label, so different seeds explore different trade-offs
while staying feasible.  Running the same greedy on reparametrized costs
(after some dual ascent) concentrates the samples near the optimum.
"""

import numpy as np

import qapfuse as qf

rng = np.random.default_rng(0)
n, L = 8, 8
candidates = [list(range(L)) for _ in range(n)]
unary = [np.append(rng.uniform(-3, 3, L), 0.0) for _ in range(n)]
pairwise = {(u, v): rng.uniform(-1, 1, (L + 1, L + 1))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4}
problem = qf.Problem(n, L, candidates, unary, pairwise)

print("greedy on original costs:")
energies = []
for seed in range(10):
    x = qf.greedy_assignment(problem, seed)
    energies.append(qf.energy(problem, x))
    print(f"  seed {seed}: energy {energies[-1]:8.3f}  {x}")
print(f"best of 10: {min(energies):.3f}")

print("\nafter 20 dual ascent sweeps:")
state = qf.DualState.initial(problem)
for _ in range(20):
    qf.sweep(problem, state)
print(f"dual bound: {state.dual_bound:.3f}")
energies = []
for seed in range(10):
    x = qf.greedy_assignment(problem, seed, state.repar)
    energies.append(qf.energy(problem, x))
    print(f"  seed {seed}: energy {energies[-1]:8.3f}")
print(f"best of 10: {min(energies):.3f}  (bound is a floor: {state.dual_bound:.3f})")

# The assignment-side LAP solution is the deterministic alternative
# proposal: one per dual state, high quality but no diversity.
lap_x, lap_value = qf.solve_lap(problem, qf.assignment_side(problem, state.repar))
print(f"\nLAP proposal: energy {qf.energy(problem, lap_x):.3f} "
      f"(assignment-side value {lap_value:.3f}), feasible: {qf.is_feasible(problem, lap_x)}")
