"""Read and write `.dd` instance files.

The format lists candidate assignments (left point, right point, cost)
plus pairwise costs between pairs of assignments; everything else defaults
to zero, and the dummy option is free.
"""

import io

import qapfuse as qf

text = """\
c a 3x3 toy matching instance
p 3 3 5 3
a 0 0 0 -2.0
a 1 0 1 0.5
a 2 1 1 -1.5
a 3 1 2 0.3
a 4 2 2 -1.0
e 0 2 -1.0
e 1 2 0.5
e 2 4 0.25
"""

instance = qf.parse_dd(text)
print("left points:", instance.n_left, " right points:", instance.n_right)
print("assignments:", len(instance.assignments),
      " pairwise terms:", len(instance.pairwise_terms))

problem = qf.to_problem(instance)
print(problem)
spans = zip(problem.offsets[:-1], problem.offsets[1:])
print("candidates per node:", [problem.slot_labels[a:b - 1].tolist() for a, b in spans])

# Round-trip: writing and re-parsing reproduces the instance exactly.
buffer = io.StringIO()
qf.write_dd(instance, buffer)
assert qf.parse_dd(buffer.getvalue()) == instance
print("round-trip ok")

# Proposal files hold one assignment per line (-1 = dummy).
proposals = qf.parse_proposals("0 1 2\n-1 2 -1\n", problem)
for x in proposals:
    print("proposal", x, "energy", qf.energy(problem, x),
          "feasible", qf.is_feasible(problem, x))
