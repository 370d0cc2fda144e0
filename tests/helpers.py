"""Shared test utilities: random instance generators and independent
oracles (exhaustive enumeration, re-summation, pairwise scans).

The oracles deliberately re-walk the raw problem data with plain Python
loops so they share no code path with the library routines they check.
They read a Problem only through the accessors below, which take its flat
arrays (``slot_labels``, ``offsets``, ``unary_flat``, ``edges``,
``edge_start``, ``edge_stride``, ``table_buffer``, and ``msg_start`` for
the edge messages) entry by entry.
"""

import itertools

import numpy as np

from qapfuse import DUMMY, Problem, Reparametrization


def node_slots(problem, u):
    """Node u's slots: one per candidate, then the dummy's."""
    return range(problem.offsets[u], problem.offsets[u + 1])


def candidates(problem, u):
    """Node u's candidate labels, ascending."""
    return [int(problem.slot_labels[i]) for i in node_slots(problem, u)[:-1]]


def unary_costs(problem, u):
    """Node u's unary costs, one per candidate, then the dummy's."""
    return [float(problem.unary_flat[i]) for i in node_slots(problem, u)]


def local_index(problem, u, s):
    """Position of label s among node u's candidates; the dummy is last."""
    cand = candidates(problem, u)
    return len(cand) if s == DUMMY else cand.index(int(s))


def edge_index(problem, u, v):
    """Position of edge {u, v} in ``problem.edges``."""
    return problem.edges.index((min(u, v), max(u, v)))


def table_cell(problem, e, i, j):
    """Entry (i, j) of edge e's table: row i of its first node's slots,
    column j of its second's.  Tables are stored column by column."""
    return float(problem.table_buffer[problem.edge_start[e] + i + j * problem.edge_stride[e]])


def edge_table(problem, e):
    """Edge e's whole table, (k_u + 1, k_v + 1)."""
    u, v = problem.edges[e]
    return np.array([[table_cell(problem, e, i, j) for j in range(len(node_slots(problem, v)))]
                     for i in range(len(node_slots(problem, u)))])


def pairwise_tables(problem):
    """{(u, v): table} over all edges, in edge order."""
    return {edge: edge_table(problem, e) for e, edge in enumerate(problem.edges)}


def oriented_table(problem, u, v):
    """Edge {u, v}'s table with u's labels on the rows."""
    table = edge_table(problem, edge_index(problem, u, v))
    return table if u < v else table.T


def pair_cost(problem, u, v, s, t):
    """Cost on edge {u, v} of u taking label s and v taking label t."""
    i, j = local_index(problem, u, s), local_index(problem, v, t)
    return table_cell(problem, edge_index(problem, u, v), *((i, j) if u < v else (j, i)))


def neighbors(problem):
    """Per node, its neighbours in ascending order."""
    out = [[] for _ in range(problem.num_nodes)]
    for u, v in problem.edges:
        out[u].append(v)
        out[v].append(u)
    return [sorted(nb) for nb in out]


def label_owners(problem):
    """{label: [(node, local index), ...]}, labels by first owner, owners
    in node order."""
    owners = {}
    for u in range(problem.num_nodes):
        for i, s in enumerate(candidates(problem, u)):
            owners.setdefault(s, []).append((u, i))
    return owners


def edge_message(problem, repar, u, v):
    """The message of edge {u, v} on u's slots."""
    e = edge_index(problem, u, v)
    start = problem.msg_start[e][0 if u < v else 1]
    return np.array([repar.edge_flat[start + i] for i in range(len(node_slots(problem, u)))])


def label_message(problem, repar, u):
    """Node u's label message, one entry per slot."""
    return np.array([repar.label_flat[i] for i in node_slots(problem, u)])


def message_sum(problem, repar, u):
    """The stored sum of node u's edge messages, one entry per slot."""
    return np.array([repar.msg_sums[i] for i in node_slots(problem, u)])


def matching_cost(problem, repar, u):
    """Node u's matching-side unary costs: theta / 2 + label message - the
    sum of its edge messages."""
    return (np.array(unary_costs(problem, u)) / 2.0 + label_message(problem, repar, u)
            - message_sum(problem, repar, u))


def assignment_cost(problem, repar, u):
    """Node u's assignment-side unary costs: theta / 2 - label message."""
    return np.array(unary_costs(problem, u)) / 2.0 - label_message(problem, repar, u)


def adjusted_table(problem, repar, u, v):
    """Edge {u, v}'s table plus both of its messages, u's labels on the rows.
    Each cell adds the lower endpoint's message first, as the bound does."""
    mine = edge_message(problem, repar, u, v)[:, None]
    theirs = edge_message(problem, repar, v, u)[None, :]
    table = oriented_table(problem, u, v)
    return (table + mine) + theirs if u < v else (table + theirs) + mine


def random_problem(rng, max_nodes=5, max_labels=4, cost_range=9,
                   edge_prob=0.6, min_nodes=1, integer=True, dummy_cost=None):
    """Random instance: each node gets a random candidate subset of a
    global label pool, integer (or uniform) costs in [-cost_range, cost_range]."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    num_labels = int(rng.integers(1, max_labels + 1))

    def cost(size=None):
        if integer:
            return rng.integers(-cost_range, cost_range + 1, size=size).astype(float)
        return rng.uniform(-cost_range, cost_range, size=size)

    candidates = []
    unary = []
    for u in range(n):
        k = int(rng.integers(0, num_labels + 1))
        cand = sorted(rng.choice(num_labels, size=k, replace=False).tolist()) if k else []
        candidates.append(cand)
        vec = cost(size=k + 1)
        if dummy_cost is not None:
            vec[-1] = dummy_cost
        unary.append(vec)

    pairwise = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                pairwise[(u, v)] = cost(size=(len(candidates[u]) + 1,
                                              len(candidates[v]) + 1))
    return Problem(n, num_labels, candidates, unary, pairwise)


def random_assignment(problem, rng):
    """Domain-valid assignment, not necessarily feasible."""
    x = np.empty(problem.num_nodes, dtype=np.int64)
    for u in range(problem.num_nodes):
        options = [DUMMY] + candidates(problem, u)
        x[u] = options[int(rng.integers(len(options)))]
    return x


def random_feasible_assignment(problem, rng):
    """Feasible assignment: random order, random unused label or dummy."""
    x = np.full(problem.num_nodes, DUMMY, dtype=np.int64)
    used = set()
    for u in rng.permutation(problem.num_nodes):
        options = [DUMMY] + [s for s in candidates(problem, u) if s not in used]
        pick = options[int(rng.integers(len(options)))]
        x[u] = pick
        if pick != DUMMY:
            used.add(pick)
    return x


def random_reparametrization(problem, rng, scale=3.0):
    """Random edge and real-label messages, drawn edge by edge (u's side,
    then v's), then node by node; the dummy label messages stay pinned."""
    repar = Reparametrization(problem)
    offsets = problem.offsets
    for e, (u, v) in enumerate(problem.edges):
        for w, start in zip((u, v), problem.msg_start[e]):
            size = offsets[w + 1] - offsets[w]
            repar.edge_flat[start:start + size] = rng.uniform(-scale, scale, size)
    for u in range(problem.num_nodes):
        k = len(candidates(problem, u))
        if k:
            repar.label_flat[offsets[u]:offsets[u] + k] = rng.uniform(-scale, scale, k)
    rebuild_message_sums(problem, repar)
    return repar


def rebuild_message_sums(problem, repar):
    """Recompute every node's message sum from the edge messages, adding
    them in edge order."""
    offsets = problem.offsets
    repar.msg_sums[:] = 0.0
    for e, (u, v) in enumerate(problem.edges):
        for w, start in zip((u, v), problem.msg_start[e]):
            for i in range(offsets[w + 1] - offsets[w]):
                repar.msg_sums[offsets[w] + i] += repar.edge_flat[start + i]


def energy_by_resummation(problem, x):
    """Independent energy oracle: plain-loop walk over all cost terms."""
    total = 0.0
    for u in range(problem.num_nodes):
        total += unary_costs(problem, u)[local_index(problem, u, x[u])]
    for e, (u, v) in enumerate(problem.edges):
        total += table_cell(problem, e, local_index(problem, u, x[u]),
                            local_index(problem, v, x[v]))
    return total


def greedy_by_loops(problem, rng, repar=None):
    """Reference greedy construction on sets and per-node vectors: the
    same visit order, sums and tie rule (lowest label, the dummy last) as
    ``greedy_assignment``, one neighbour table column at a time, adding the
    assigned neighbours' columns in the order they were assigned.  Given a
    dual state, a column comes from :func:`adjusted_table`, whose cells add
    the edge's messages in the bound's order."""
    rng = np.random.default_rng(rng)
    n = problem.num_nodes
    nbrs = neighbors(problem)
    cand = [candidates(problem, u) for u in range(n)]
    if repar is None:
        unary = [np.array(unary_costs(problem, u)) for u in range(n)]
    else:
        unary = [matching_cost(problem, repar, u) for u in range(n)]

    labels = np.full(n, DUMMY, dtype=np.int64)
    local = [0] * n
    assigned = [False] * n
    order = []  # the assigned nodes, first assigned first
    used = set()
    frontier = set()
    for _ in range(n):
        pool = sorted(frontier) if frontier else [u for u in range(n) if not assigned[u]]
        u = pool[int(rng.integers(len(pool)))]

        totals = unary[u].copy()
        for v in order:
            if v in nbrs[u]:
                table = (oriented_table(problem, u, v) if repar is None
                         else adjusted_table(problem, repar, u, v))
                totals = totals + table[:, local[v]]
        k = len(cand[u])
        blocked = [i for i, s in enumerate(cand[u]) if s in used]
        if blocked:
            totals[blocked] = np.inf

        best = np.min(totals)
        choice = k
        for i in range(k):
            if totals[i] == best:
                choice = i
                break
        if choice < k:
            labels[u] = cand[u][choice]
            used.add(cand[u][choice])
        local[u] = choice
        assigned[u] = True
        order.append(u)
        frontier.discard(u)
        frontier.update(v for v in nbrs[u] if not assigned[v])
    return labels


def feasible_by_pairwise_scan(x):
    """O(n^2) feasibility oracle."""
    n = len(x)
    for u in range(n):
        for v in range(u + 1, n):
            if x[u] == x[v] != DUMMY:
                return False
    return True


def enumerate_assignments(problem):
    """All domain-valid assignments (feasible or not)."""
    domains = [[DUMMY] + candidates(problem, u) for u in range(problem.num_nodes)]
    for combo in itertools.product(*domains):
        yield np.array(combo, dtype=np.int64)


def enumerate_feasible(problem):
    """All feasible assignments, by pruned recursion over nodes."""
    n = problem.num_nodes
    x = np.full(n, DUMMY, dtype=np.int64)

    def rec(u, used):
        if u == n:
            yield x.copy()
            return
        x[u] = DUMMY
        yield from rec(u + 1, used)
        for s in candidates(problem, u):
            if s not in used:
                x[u] = s
                used.add(s)
                yield from rec(u + 1, used)
                used.discard(s)
                x[u] = DUMMY

    yield from rec(0, set())


def brute_force_optimum(problem):
    """(optimal energy, one optimal assignment) by feasible enumeration."""
    best_value, best = np.inf, None
    for x in enumerate_feasible(problem):
        value = energy_by_resummation(problem, x)
        if value < best_value:
            best_value, best = value, x
    return best_value, best


def lap_optimum_by_enumeration(problem, costs):
    """Exact LAP optimum over all partial injections (recursion, <= 7 nodes);
    ``costs`` holds one cost per slot of ``problem``, the dummy's unused."""
    n = problem.num_nodes

    def rec(u, used):
        if u == n:
            return 0.0
        best = rec(u + 1, used)  # dummy
        for i, s in enumerate(candidates(problem, u)):
            if s not in used:
                used.add(s)
                best = min(best, float(costs[problem.offsets[u] + i]) + rec(u + 1, used))
                used.discard(s)
        return best

    return rec(0, set())


def restricted_space_optimum(problem, x1, x2):
    """(optimal energy, count of feasible solutions) of the fusion search
    space {x1_u, x2_u} per node, by direct enumeration."""
    free = [u for u in range(problem.num_nodes) if x1[u] != x2[u]]
    best, count = np.inf, 0
    x = np.asarray(x1, dtype=np.int64).copy()
    for code in range(2 ** len(free)):
        for pos, u in enumerate(free):
            x[u] = x2[u] if (code >> pos) & 1 else x1[u]
        if feasible_by_pairwise_scan(x):
            count += 1
            best = min(best, energy_by_resummation(problem, x))
    return best, count


def restricted_space_optimum_pruned(problem, x1, x2):
    """Same contract as restricted_space_optimum but via depth-first
    recursion with used-label pruning and incremental energy, viable up to
    ~16 free nodes.  Still independent of the fusion machinery.

    Nodes are placed one at a time; each placement pays its unary cost plus
    edges to already-placed nodes, so every term is counted exactly once.
    """
    n = problem.num_nodes
    free = [u for u in range(n) if x1[u] != x2[u]]
    x = np.asarray(x1, dtype=np.int64).copy()
    cand = [candidates(problem, u) for u in range(n)]
    unary = [unary_costs(problem, u) for u in range(n)]
    nbrs = neighbors(problem)
    edge_of = {edge: e for e, edge in enumerate(problem.edges)}
    placed = set()

    def local(u):
        return len(cand[u]) if x[u] == DUMMY else cand[u].index(int(x[u]))

    def place_cost(u):
        total = unary[u][local(u)]
        for v in nbrs[u]:
            if v in placed:
                if u < v:
                    total += table_cell(problem, edge_of[(u, v)], local(u), local(v))
                else:
                    total += table_cell(problem, edge_of[(v, u)], local(v), local(u))
        return total

    used = set()
    base = 0.0
    for u in range(n):
        if x1[u] == x2[u]:
            base += place_cost(u)
            placed.add(u)
            if x1[u] != DUMMY:
                used.add(int(x1[u]))

    best = [np.inf]
    count = [0]

    def rec(pos, acc):
        if pos == len(free):
            count[0] += 1
            best[0] = min(best[0], acc)
            return
        u = free[pos]
        for s in (int(x1[u]), int(x2[u])):
            if s != DUMMY and s in used:
                continue
            x[u] = s
            cost = place_cost(u)
            placed.add(u)
            if s != DUMMY:
                used.add(s)
            rec(pos + 1, acc + cost)
            if s != DUMMY:
                used.discard(s)
            placed.discard(u)

    rec(0, base)
    return best[0], count[0]


def enumerate_binary_energies(unary, pairs, tables, constant=0.0):
    """All 2^k energies of a binary pairwise problem (k = len(unary), row p
    of ``pairs`` indexing the variables of ``tables[p]``), as a dict
    bits->value."""
    num_vars = len(unary)
    energies = {}
    for code in range(2 ** num_vars):
        bits = tuple((code >> i) & 1 for i in range(num_vars))
        value = constant
        for i in range(num_vars):
            value += float(unary[i][bits[i]])
        for (i, j), table in zip(pairs, tables):
            value += float(table[bits[i], bits[j]])
        energies[bits] = value
    return energies


def scaled_problem(problem, scale):
    """The same instance with every cost multiplied by ``scale``."""
    n = problem.num_nodes
    return Problem(n, problem.num_labels, [candidates(problem, u) for u in range(n)],
                   [np.array(unary_costs(problem, u)) * scale for u in range(n)],
                   {e: t * scale for e, t in pairwise_tables(problem).items()})


def signed_zero_copy(problem, rng, share=0.3):
    """The same instance with a random share of its unary and table cells
    replaced by -0.0."""
    def flip(values):
        values = np.array(values, dtype=float)
        values[rng.random(values.shape) < share] = -0.0
        return values

    n = problem.num_nodes
    return Problem(n, problem.num_labels, [candidates(problem, u) for u in range(n)],
                   [flip(unary_costs(problem, u)) for u in range(n)],
                   {e: flip(t) for e, t in pairwise_tables(problem).items()})


def improve_by_loops(fp, bits, rng, rounds=3):
    """Reference seeded 1-swap descent on a fusion problem's binary energy
    (penalties included): up to ``rounds`` passes, each over one
    ``rng.permutation(k)`` of the variables, flipping a variable when its
    delta (the unary difference, then each of its pairs' table differences
    in pair order) is negative, and stopping after a pass that flips
    nothing.  Returns the bits as int64."""
    k = len(fp.unary)
    bits = [int(b) for b in bits]
    mine = [[] for _ in range(k)]  # (pair row, is i the pair's first variable)
    for p, (i, j) in enumerate(fp.pairs.tolist()):
        mine[i].append((p, j, True))
        mine[j].append((p, i, False))
    for _ in range(rounds):
        changed = False
        for i in rng.permutation(k).tolist():
            old, new = bits[i], 1 - bits[i]
            delta = float(fp.unary[i][new]) - float(fp.unary[i][old])
            for p, other, first in mine[i]:
                table = fp.tables[p] if first else fp.tables[p].T
                b = bits[other]
                delta += float(table[new][b]) - float(table[old][b])
            if delta < 0.0:
                bits[i] = new
                changed = True
        if not changed:
            break
    return np.array(bits, dtype=np.int64)


def geometric_matching_instance(seed, n=12, noise=0.05, outliers=2):
    """Keypoint-matching style instance: two 2D point clouds related by a
    rigid motion plus noise, pairwise costs rewarding distance-preserving
    pairs, a few outlier labels, and expensive dummies.  Returns the
    problem and the planted matching."""
    rng = np.random.default_rng(seed)
    left = rng.uniform(0, 10, (n, 2))
    angle = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    right = left @ rot.T + rng.uniform(2, 4, 2) + rng.normal(0, noise, (n, 2))
    right = np.vstack([right, rng.uniform(-5, 15, (outliers, 2))])
    perm = rng.permutation(n + outliers)
    right = right[perm]
    planted = np.argsort(perm)[:n].astype(np.int64)

    num_labels = n + outliers
    candidates = [list(range(num_labels))] * n
    unary = [np.append(np.zeros(num_labels), 50.0) for _ in range(n)]
    pairwise = {}
    for u in range(n):
        for v in range(u + 1, n):
            du = np.linalg.norm(left[u] - left[v])
            ds = np.linalg.norm(right[:, None, :] - right[None, :, :], axis=2)
            table = np.zeros((num_labels + 1, num_labels + 1))
            table[:num_labels, :num_labels] = np.minimum(np.abs(du - ds), 5.0) - 2.0
            np.fill_diagonal(table[:num_labels, :num_labels], 0.0)
            pairwise[(u, v)] = table
    return Problem(n, num_labels, candidates, unary, pairwise), planted


def random_dd_text(rng, max_left=4, max_right=5):
    """Random well-formed .dd file text plus its expected structure."""
    n_left = int(rng.integers(1, max_left + 1))
    n_right = int(rng.integers(1, max_right + 1))
    pairs = [(u, s) for u in range(n_left) for s in range(n_right)]
    rng.shuffle(pairs)
    n_assign = int(rng.integers(1, len(pairs) + 1))
    chosen = pairs[:n_assign]
    lines = []
    for aid, (u, s) in enumerate(chosen):
        cost = round(float(rng.uniform(-10, 10)), 3)
        lines.append(f"a {aid} {u} {s} {cost}")
    edges = []
    for i in range(n_assign):
        for j in range(i + 1, n_assign):
            if chosen[i][0] != chosen[j][0] and rng.random() < 0.4:
                cost = round(float(rng.uniform(-10, 10)), 3)
                edges.append(f"e {i} {j} {cost}")
    header = f"p {n_left} {n_right} {n_assign} {len(edges)}"
    body = [header] + lines + edges
    if rng.random() < 0.5:
        body.insert(0, "c generated test instance")
    return "\n".join(body) + "\n"


def parse_dd_by_lines(text):
    """Reference `.dd` reader: one line at a time, one record per line.
    Returns (n_left, n_right, assignments sorted by id, pairwise terms), the
    records as (id, left, right, cost) and (id1, id2, cost) tuples; raises
    ParseError like the library, with the same message and line."""
    from qapfuse import ParseError

    header = None
    assignments, pairwise, pairwise_lines = [], [], []
    seen_ids = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
            if aid in seen_ids:
                raise ParseError(f"duplicate assignment id {aid}", lineno)
            if not 0 <= left < n_left:
                raise ParseError(f"left index {left} out of range", lineno)
            if not 0 <= right < n_right:
                raise ParseError(f"right index {right} out of range", lineno)
            seen_ids.add(aid)
            assignments.append((aid, left, right, cost))
        elif kind == "e":
            if header is None:
                raise ParseError("pairwise line before header", lineno)
            if len(fields) != 4:
                raise ParseError("pairwise line must be 'e id1 id2 cost'", lineno)
            try:
                id1, id2 = int(fields[1]), int(fields[2])
                cost = float(fields[3])
            except ValueError:
                raise ParseError("malformed pairwise line", lineno) from None
            pairwise.append((id1, id2, cost))
            pairwise_lines.append(lineno)
        else:
            raise ParseError(f"unknown line type {kind!r}", lineno)

    if header is None:
        raise ParseError("missing header")
    n_left, n_right, n_assign, n_pair = header
    if len(assignments) != n_assign:
        raise ParseError(f"header promises {n_assign} assignments, found {len(assignments)}")
    if len(pairwise) != n_pair:
        raise ParseError(f"header promises {n_pair} pairwise terms, found {len(pairwise)}")
    left_of = {a[0]: a[1] for a in assignments}
    for (id1, id2, _), lineno in zip(pairwise, pairwise_lines):
        for aid in (id1, id2):
            if aid not in left_of:
                raise ParseError(f"pairwise term references unknown assignment id {aid}", lineno)
        if left_of[id1] == left_of[id2]:
            raise ParseError("pairwise term joins two assignments of the same left point", lineno)
    return n_left, n_right, sorted(assignments), pairwise


def problem_by_dicts(n_left, n_right, assignments, pairwise):
    """Reference `.dd` to Problem mapping over parse_dd_by_lines' records:
    per-node candidate lists, a dict of costs and one table per edge,
    filled term by term."""
    cand = [[] for _ in range(n_left)]
    cost_of = {}
    for _, left, right, cost in assignments:
        if (left, right) in cost_of:
            raise ValueError(f"two assignments for left {left}, right {right}")
        cost_of[(left, right)] = cost
        cand[left].append(right)
    for labels in cand:
        labels.sort()
    unary = [np.array([cost_of[(u, s)] for s in cand[u]] + [0.0]) for u in range(n_left)]
    by_id = {a[0]: a for a in assignments}
    tables = {}
    for id1, id2, cost in pairwise:
        (u, s), (v, t) = sorted([by_id[id1][1:3], by_id[id2][1:3]])
        if (u, v) not in tables:
            tables[(u, v)] = np.zeros((len(cand[u]) + 1, len(cand[v]) + 1))
        tables[(u, v)][cand[u].index(s), cand[v].index(t)] += cost
    return Problem(n_left, n_right, cand, unary, tables)


PROBLEM_ARRAYS = ("table_buffer", "unary_flat", "slot_labels", "offsets", "edges",
                  "edge_start", "edge_stride", "msg_start", "nbr_nodes")


def same_problem_bytes(p, q):
    """True iff the flat arrays of two Problems agree byte for byte."""
    return all(np.asarray(getattr(p, name)).tobytes() == np.asarray(getattr(q, name)).tobytes()
               and np.asarray(getattr(p, name)).shape == np.asarray(getattr(q, name)).shape
               for name in PROBLEM_ARRAYS)
