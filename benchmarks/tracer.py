"""Span tracing of the qapfuse layers from outside the library.

:func:`install` wraps every public function defined in each layer module,
plus ``Problem.__init__`` and ``MaxFlow.max_flow``, and rebinds each wrapper
at every ``qapfuse`` module (and class) that binds the original.  A call
site that later moves to another module is still traced, and work that
moves out of a wrapped function shows up as its caller's self time.

A span is ``[name, start, end, parent, value]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``value`` an optional count read at
the boundary (free variables of a fusion, arcs of a flow network, ...).
Spans stay in memory until the caller collects them.
"""

import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYERS = ("ddio", "model", "dualbca", "greedy", "lap", "fusion", "qpbo", "solver")


def _free_vars(args, result):
    return result.num_variables


def _labelled(args, result):
    return (int((result.labels >= 0).sum()), int(result.labels.size))


def _arcs(args, result):
    return len(args[0].to) // 2


# Counts recorded where the work happens, keyed by span name.
OBSERVERS = {
    "fusion.build_fusion": _free_vars,
    "qpbo.roof_duality": _labelled,
    "qpbo.MaxFlow.max_flow": _arcs,
}


class Tracer:
    """Collects spans; one per wrapped call, nested by a call stack."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def collect(self):
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn):
        spans_of = self
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = spans_of.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return traced


def _targets(package):
    """(span name, function) for every traced callable."""
    found = []
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                found.append((f"{layer}.{attr}", value))
    found.append(("model.Problem.__init__", package.model.Problem.__init__))
    found.append(("qpbo.MaxFlow.max_flow", package.qpbo.MaxFlow.max_flow))
    return found


@contextmanager
def install(tracer, package):
    """Trace every public qapfuse layer function while the block runs."""
    originals = {id(fn): (name, fn) for name, fn in _targets(package)}
    wrappers = {key: tracer.wrap(name, fn) for key, (name, fn) in originals.items()}
    owners = [m for key, m in sys.modules.items()
              if key == package.__name__ or key.startswith(package.__name__ + ".")]
    owners += [package.model.Problem, package.qpbo.MaxFlow]
    rebound = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if id(value) in wrappers and originals[id(value)][1] is value:
                setattr(owner, attr, wrappers[id(value)])
                rebound.append((owner, attr, value))
    try:
        yield tracer
    finally:
        for owner, attr, value in rebound:
            setattr(owner, attr, value)
