import types

import numpy as np
import pytest

import qapfuse as qf
from helpers import (
    assignment_cost,
    candidates,
    lap_optimum_by_enumeration,
    label_owners,
    random_problem,
    random_reparametrization,
    unary_costs,
)


def random_lap_instance(rng, max_nodes=7, max_labels=6):
    """A problem whose unary costs are the LAP costs (dummy 0), and those
    costs, one per slot."""
    n = int(rng.integers(1, max_nodes + 1))
    num_labels = int(rng.integers(1, max_labels + 1))
    candidates, costs = [], []
    for _ in range(n):
        k = int(rng.integers(0, num_labels + 1))
        cand = sorted(rng.choice(num_labels, size=k, replace=False).tolist())
        candidates.append(cand)
        costs.append(np.append(rng.uniform(-9, 9, size=k), 0.0))
    p = qf.Problem(n, num_labels, candidates, costs)
    return p, p.unary_flat


class TestSolveLap:
    def test_all_positive_costs_go_dummy(self):
        p = qf.Problem(2, 2, [[0, 1], [0]],
                       [np.array([1.0, 2.0, 0.0]), np.array([3.0, 0.0])])
        labels, value = qf.solve_lap(p, p.unary_flat)
        assert value == 0.0
        assert np.array_equal(labels, [qf.DUMMY, qf.DUMMY])

    @pytest.mark.parametrize("num_labels", [0, 3])
    def test_no_nodes(self, num_labels):
        p = qf.Problem(0, num_labels, [], [])
        labels, value = qf.solve_lap(p, p.unary_flat)
        assert labels.dtype == np.int64 and labels.shape == (0,)
        assert value == 0.0 and type(value) is float

    def test_shared_label_goes_to_cheaper_node(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([-5.0, 0.0]), np.array([-3.0, 0.0])])
        labels, value = qf.solve_lap(p, p.unary_flat)
        assert value == -5.0
        assert labels[0] == 0 and labels[1] == qf.DUMMY

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            p, costs = random_lap_instance(rng)
            labels, value = qf.solve_lap(p, costs)
            assert value == pytest.approx(lap_optimum_by_enumeration(p, costs),
                                          rel=1e-9, abs=1e-9)
            used = [s for s in labels if s != qf.DUMMY]
            assert len(used) == len(set(used))

    def test_value_matches_returned_labels(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            p, costs = random_lap_instance(rng)
            labels, value = qf.solve_lap(p, costs)
            recomputed = 0.0
            for u, s in enumerate(labels):
                if s != qf.DUMMY:
                    pos = candidates(p, u).index(int(s))
                    recomputed += unary_costs(p, u)[pos]
            assert value == pytest.approx(recomputed, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(72)
        p, costs = random_lap_instance(rng)
        a = qf.solve_lap(p, costs)
        b = qf.solve_lap(p, costs)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]

    def test_a_loaded_extension_is_reused(self, monkeypatch):
        # Loaded already, as by an import of scipy.optimize: never found again.
        import sys
        from importlib.machinery import PathFinder
        p, costs = random_lap_instance(np.random.default_rng(71))
        labels, value = qf.solve_lap(p, costs)
        calls = []
        lsa = sys.modules["scipy.optimize._lsap"].linear_sum_assignment
        lsap = types.SimpleNamespace(linear_sum_assignment=lambda m: calls.append(m) or lsa(m))
        monkeypatch.setitem(sys.modules, "scipy.optimize._lsap", lsap)
        monkeypatch.setattr(PathFinder, "find_spec", None)
        again = qf.solve_lap(p, costs)
        assert np.array_equal(again[0], labels) and again[1] == value and len(calls) == 1

    @pytest.mark.parametrize("found", ["nothing", "a module without the function", "a failing load"])
    def test_a_scipy_without_the_function_raises_import_error(self, monkeypatch, found):
        # A load that fails leaves nothing in sys.modules for a later import
        # to reuse; a whole module without the function is kept.
        import importlib.util
        import scipy
        import sys
        from importlib.machinery import PathFinder

        class Loader:
            def create_module(self, spec):
                return None

            def exec_module(self, module):
                if found == "a failing load":
                    raise ImportError(f"scipy {scipy.__version__}: the load failed")

        spec = None if found == "nothing" else importlib.util.spec_from_loader("x", Loader())
        monkeypatch.delitem(sys.modules, "scipy.optimize._lsap", raising=False)
        monkeypatch.setattr(PathFinder, "find_spec", classmethod(lambda cls, *args: spec))
        p, costs = random_lap_instance(np.random.default_rng(73))
        with pytest.raises(ImportError, match=f"scipy {scipy.__version__}: "):
            qf.solve_lap(p, costs)
        assert ("scipy.optimize._lsap" in sys.modules) == (found == "a module without the function")


class TestLabelMinTerm:
    def test_zero_when_all_nonnegative(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([4.0, 0.0]), np.array([2.0, 0.0])])
        r = qf.Reparametrization(p)
        assert qf.label_min_term(p, r) == 0.0

    def test_two_owner_min(self):
        p = qf.Problem(2, 1, [[0], [0]],
                       [np.array([-4.0, 0.0]), np.array([-2.0, 0.0])])
        r = qf.Reparametrization(p)
        # assignment-side values are -2 and -1; the label takes the cheaper
        assert qf.label_min_term(p, r) == pytest.approx(-2.0)

    def test_matches_per_label_enumeration(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            p = random_problem(rng, max_nodes=5)
            r = random_reparametrization(p, rng)
            expected = 0.0
            owners = label_owners(p)
            for s in range(p.num_labels):
                if s in owners:
                    expected += min(0.0, min(assignment_cost(p, r, u)[i]
                                             for u, i in owners[s]))
            assert qf.label_min_term(p, r) == pytest.approx(expected, abs=1e-12)

    def test_label_slots_follow_first_owner_order(self):
        # label_min_term adds its per-label terms in label_slots order:
        # labels by their first owner slot, each label's owners in slot
        # order, then the sentinel slot of the zero-cost dummy node.
        rng = np.random.default_rng(75)
        for trial in range(100):
            p = random_problem(rng, max_nodes=8, max_labels=7, min_nodes=0 if trial < 5 else 1)
            slots, starts = [], []
            for owners in label_owners(p).values():
                starts.append(len(slots))
                slots += [p.offsets[u] + i for u, i in owners] + [len(p.slot_labels)]
            assert p.label_slots.tolist() == slots
            assert p.label_starts.tolist() == starts

    def test_never_exceeds_lap_optimum(self):
        # Dropping the one-label-per-node coupling can only relax, so the
        # closed-form term sits at or below the exact LAP value.
        rng = np.random.default_rng(74)
        for _ in range(100):
            p = random_problem(rng, max_nodes=6)
            r = random_reparametrization(p, rng)
            _, lap_value = qf.solve_lap(p, qf.assignment_side(p, r))
            assert qf.label_min_term(p, r) <= lap_value + 1e-9
