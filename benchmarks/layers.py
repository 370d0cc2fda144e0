"""Per-layer metrics from the spans of one traced round.

A span's self time is its duration minus its children's.  A function's
inclusive time sums its spans' durations, so it keeps whatever its callees
cost; a layer's self time sums the self times of all its spans.  Under the
timed call (the root span, ``solver.solve`` or ``solver.fuse_sequence``)
the layer self times plus the root's own self time add up to the root's
duration; :func:`self_time_report` prints that split.

Which end-to-end metric each per-layer metric should move, and on which
workload, is listed in ``README.md`` next to this file.
"""

from tracer import LAYERS

PER_LAYER = [
    ("ddio.parse_dd_s", "s"), ("ddio.to_problem_s", "s"), ("model.problem_init_s", "s"),
    ("dualbca.edge_s", "s"), ("dualbca.edge_updates", "count"),
    ("dualbca.node_s", "s"), ("dualbca.node_updates", "count"),
    ("dualbca.label_s", "s"), ("dualbca.label_updates", "count"),
    ("dualbca.bound_s", "s"), ("dualbca.bound_calls", "count"),
    ("dualbca.sweep_self_s", "s"), ("dualbca.sweeps", "count"),
    ("lap.label_min_term_s", "s"),
    ("greedy.proposal_s", "s"), ("greedy.proposals", "count"),
    ("lap.solve_s", "s"), ("lap.solves", "count"),
    ("fusion.fuse_calls", "count"), ("fusion.build_s", "s"), ("fusion.fuse_self_s", "s"),
    ("fusion.free_vars_mean", "count"), ("fusion.free_vars_max", "count"),
    ("fusion.improved_frac", "ratio"),
    ("qpbo.roof_duality_s", "s"), ("qpbo.max_flow_s", "s"), ("qpbo.calls", "count"),
    ("qpbo.arcs_mean", "count"), ("qpbo.labelled_frac", "ratio"),
    ("model.energy_s", "s"), ("model.energy_calls", "count"),
    ("solver.self_s", "s"), ("solver.trace_overhead_frac", "ratio"),
]

ROOTS = ("solver.solve", "solver.fuse_sequence")


class _Totals:
    def __init__(self):
        self.count = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.values = []


def metrics(spans, improved_frac):
    """Per-layer metrics of one round whose spans hold one timed call."""
    duration = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent] += duration[i]
    roots = [i for i, span in enumerate(spans) if span[0] in ROOTS and span[3] < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one timed call among the spans, found {len(roots)}")
    root = roots[0]

    under_root = [False] * len(spans)
    under_root[root] = True
    totals = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (name, _, _, parent, value) in enumerate(spans):
        if parent >= 0 and under_root[parent]:
            under_root[i] = True
        t = totals.setdefault(name, _Totals())
        t.count += 1
        t.inclusive += duration[i]
        t.self_time += duration[i] - children[i]
        if value is not None:
            t.values.append(value)
        if under_root[i] and i != root:
            layer_self[name.split(".")[0]] += duration[i] - children[i]

    def get(name):
        return totals.get(name, _Totals())

    free = get("fusion.build_fusion").values
    labelled = get("qpbo.roof_duality").values
    arcs = get("qpbo.MaxFlow.max_flow").values
    labelled_vars = sum(v for _, v in labelled)
    out = {
        "ddio.parse_dd_s": get("ddio.parse_dd").inclusive,
        "ddio.to_problem_s": get("ddio.to_problem").self_time,
        "model.problem_init_s": get("model.Problem.__init__").inclusive,
        "dualbca.edge_s": get("dualbca.update_edge_messages").inclusive,
        "dualbca.edge_updates": get("dualbca.update_edge_messages").count,
        "dualbca.node_s": get("dualbca.update_node_messages").inclusive,
        "dualbca.node_updates": get("dualbca.update_node_messages").count,
        "dualbca.label_s": get("dualbca.update_label_messages").inclusive,
        "dualbca.label_updates": get("dualbca.update_label_messages").count,
        "dualbca.bound_s": get("dualbca.dual_bound").inclusive,
        "dualbca.bound_calls": get("dualbca.dual_bound").count,
        "dualbca.sweep_self_s": get("dualbca.sweep").self_time,
        "dualbca.sweeps": get("dualbca.sweep").count,
        "lap.label_min_term_s": get("lap.label_min_term").inclusive,
        "greedy.proposal_s": get("greedy.greedy_assignment").inclusive,
        "greedy.proposals": get("greedy.greedy_assignment").count,
        "lap.solve_s": get("lap.solve_lap").inclusive,
        "lap.solves": get("lap.solve_lap").count,
        "fusion.fuse_calls": get("fusion.fuse").count,
        "fusion.build_s": get("fusion.build_fusion").inclusive,
        "fusion.fuse_self_s": get("fusion.fuse").self_time,
        "fusion.free_vars_mean": sum(free) / len(free) if free else 0.0,
        "fusion.free_vars_max": max(free, default=0),
        "fusion.improved_frac": improved_frac,
        "qpbo.roof_duality_s": get("qpbo.roof_duality").inclusive,
        "qpbo.max_flow_s": get("qpbo.MaxFlow.max_flow").inclusive,
        "qpbo.calls": get("qpbo.roof_duality").count,
        "qpbo.arcs_mean": sum(arcs) / len(arcs) if arcs else 0.0,
        "qpbo.labelled_frac": (sum(k for k, _ in labelled) / labelled_vars
                               if labelled_vars else 0.0),
        "model.energy_s": get("model.energy").inclusive,
        "model.energy_calls": get("model.energy").count,
        "solver.self_s": duration[root] - children[root],
        "traced_call_s": duration[root],
    }
    for layer, seconds in layer_self.items():
        out[f"self.{layer}"] = seconds
    return out


def self_time_report(samples):
    """Lines splitting the traced call's median duration by layer self time."""
    from statistics import median

    total = median(samples["traced_call_s"])
    lines = [f"# traced call: {total:.6g} s (median of {len(samples['traced_call_s'])})"]
    shares = 0.0
    for layer in LAYERS:
        seconds = median(samples[f"self.{layer}"])
        if layer == "solver":
            seconds += median(samples["solver.self_s"])
        shares += seconds / total
        lines.append(f"#   {layer:8s} self {seconds:.6g} s  {100 * seconds / total:5.1f}%")
    lines.append(f"#   layer self times account for {100 * shares:.1f}% of the traced call")
    return "\n".join(lines)


def write_spans(path, rounds):
    """Write spans as CSV: round, index, name, start, end, parent, value."""
    with open(path, "w", newline="\n") as out:
        out.write("round,index,name,start,end,parent,value\n")
        for r, spans in rounds:
            for i, (name, start, end, parent, value) in enumerate(spans):
                value = "" if value is None else str(value).replace(",", ";")
                out.write(f"{r},{i},{name},{start!r},{end!r},{parent},{value}\n")
