"""Primal cutting-plane matching solver."""

import random

import pytest

from zerohalf import matching
from zerohalf.core import (
    BudgetExceededError,
    DimensionMismatchError,
    InternalConsistencyError,
    ZeroHalfError,
)
from zerohalf.matching import (
    WeightedGraph,
    _best_toggle,
    incidence_instance,
    solve_matching,
)
from zerohalf.oracle import brute_max_matching
from zerohalf.simplex import add_cut, solve_relaxation

from conftest import triangle_instance


def k3(w=(1, 1, 1)):
    return WeightedGraph(3, ((0, 1, w[0]), (0, 2, w[1]), (1, 2, w[2])))


def path4(w=(1, 1, 1)):
    return WeightedGraph(4, ((0, 1, w[0]), (1, 2, w[1]), (2, 3, w[2])))


class TestGraphType:
    def test_rejects_bad_edges(self):
        with pytest.raises(ZeroHalfError):
            WeightedGraph(2, ((0, 2, 1),))
        with pytest.raises(ZeroHalfError):
            WeightedGraph(2, ((1, 1, 1),))
        with pytest.raises(ZeroHalfError):
            WeightedGraph(2, ((0, 1, 1), (1, 0, 2)))

    def test_isolated_nodes_are_fine(self):
        g = WeightedGraph(5, ((0, 1, 2),))
        assert g.node_count == 5


class TestIncidence:
    def test_k3_matches_the_triangle_system(self):
        inst = incidence_instance(k3())
        ref = triangle_instance(objective=(1, 1, 1))
        assert inst.A == ref.A and inst.b == ref.b
        assert inst.lower_present == ref.lower_present
        assert inst.objective == (1, 1, 1)

    def test_single_edge(self):
        inst = incidence_instance(WeightedGraph(2, ((0, 1, 7),)))
        assert inst.A == ((1,), (1,)) and inst.b == (1, 1)
        assert inst.objective == (7,)

    def test_no_edges_rejected_by_the_instance_type(self):
        with pytest.raises(DimensionMismatchError):
            incidence_instance(WeightedGraph(3, ()))


class TestToggleSearch:
    def test_prefers_heavier_alternating_path(self):
        g = WeightedGraph(3, ((0, 1, 1), (1, 2, 3)))
        toggle = _best_toggle(g, (1, 3), frozenset({0}), frozenset({0, 1}))
        assert toggle == frozenset({0, 1})

    def test_finds_rotating_cycle(self):
        g = WeightedGraph(4, ((0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1)))
        toggle = _best_toggle(
            g, (5, 1, 5, 1), frozenset({1, 3}), frozenset(range(4))
        )
        assert toggle == frozenset({0, 1, 2, 3})

    def test_none_at_an_optimal_matching(self):
        g = path4()
        assert _best_toggle(g, (1, 1, 1), frozenset({0, 2}), frozenset(range(3))) is None

    def test_blocked_unmatched_end_is_invalid(self):
        # Toggling edge 1 alone would double-cover node 1, so the only
        # positive toggle swaps the whole path.
        g = WeightedGraph(3, ((0, 1, 2), (1, 2, 3)))
        toggle = _best_toggle(g, (2, 3), frozenset({0}), frozenset({1}))
        assert toggle is None

    def test_walk_budget_is_enforced(self, monkeypatch):
        # the full search on a 4-cycle visits 24 walks: from each of the 8
        # (node, edge) starts, lengths 1, 2 and 3; the 4th edge closes a cycle
        g = WeightedGraph(4, ((0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 0, 1)))
        args = (g, (5, 1, 5, 1), frozenset({1, 3}), frozenset(range(4)))
        monkeypatch.setattr(matching, "TOGGLE_NODE_BUDGET", 24)
        assert _best_toggle(*args) == frozenset({0, 1, 2, 3})
        monkeypatch.setattr(matching, "TOGGLE_NODE_BUDGET", 23)
        with pytest.raises(BudgetExceededError, match="more than 23 alternating walks"):
            _best_toggle(*args)

    def test_solver_reports_an_exhausted_walk_budget(self, monkeypatch):
        # K3 at xhat = 0: no cut is tight, so the solver must toggle
        monkeypatch.setattr(matching, "TOGGLE_NODE_BUDGET", 1)
        with pytest.raises(BudgetExceededError):
            solve_matching(k3())

    def test_a_failed_support_search_is_an_internal_error(self, monkeypatch):
        # K3 at xhat = 0: no cut is tight, so the solver must toggle; a search
        # that finds nothing is not repeated over the whole graph
        calls = []

        def nothing(graph, weights, matched, allowed):
            calls.append(allowed)
            return None

        monkeypatch.setattr(matching, "_best_toggle", nothing)
        with pytest.raises(InternalConsistencyError, match=r"inside supp\(x\* - xhat\)"):
            solve_matching(k3())
        assert calls == [frozenset({0, 1, 2})]


class TestSolve:
    def test_k3_needs_the_odd_set_cut(self):
        res = solve_matching(k3())
        assert res.weight == 1 and len(res.matching) == 1
        assert any(c.coeffs == (1, 1, 1) and c.rhs == 1 for c in res.cuts)
        assert all(calls <= 3 + 2 * 3 for calls in res.counters.mincut_calls)

    def test_path_is_solved_without_cuts(self):
        res = solve_matching(path4())
        assert res.weight == 2
        assert res.matching == (0, 2)
        assert res.counters.cuts_added == 0

    def test_weighted_path_takes_the_middle(self):
        res = solve_matching(path4((1, 5, 1)))
        assert res.weight == 5 and res.matching == (1,)

    def test_zero_weights(self):
        res = solve_matching(k3((0, 0, 0)))
        assert res.weight == 0 and res.matching == ()

    def test_no_edges(self):
        res = solve_matching(WeightedGraph(4, ()))
        assert res.weight == 0 and res.matching == ()
        assert res.counters.lp_solves == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(ZeroHalfError):
            solve_matching(k3((1, -1, 1)))

    def test_explicit_weights_override(self):
        res = solve_matching(k3(), weights=(4, 1, 1))
        assert res.weight == 4 and res.matching == (0,)

    def test_matching_edges_are_disjoint(self):
        g = WeightedGraph(
            6,
            (
                (0, 1, 3), (1, 2, 2), (2, 3, 3), (3, 4, 2), (4, 5, 3),
                (5, 0, 2), (0, 2, 1), (1, 4, 4),
            ),
        )
        res = solve_matching(g)
        used = [v for e in res.matching for v in g.edges[e][:2]]
        assert len(used) == len(set(used))
        want, _ = brute_max_matching(g)
        assert res.weight == want


def _random_graphs():
    rng = random.Random(20260821)
    for _ in range(60):
        nodes = rng.randint(2, 7)
        edges = []
        for u in range(nodes):
            for v in range(u + 1, nodes):
                if rng.random() < 0.55:
                    edges.append((u, v, rng.randint(0, 5)))
        yield WeightedGraph(nodes, tuple(edges))


class TestOracleAgreement:
    def test_random_graphs_match_the_brute_optimum(self):
        found_cut_runs = 0
        for g in _random_graphs():
            nodes, edges = g.node_count, g.edges
            res = solve_matching(g)
            want, _ = brute_max_matching(g)
            assert res.weight == want
            bound = nodes + 2 * len(edges)
            assert all(c <= bound for c in res.counters.mincut_calls)
            assert res.counters.total_mincut_calls == sum(res.counters.mincut_calls)
            found_cut_runs += bool(res.counters.cuts_added)
        assert found_cut_runs >= 5

    def test_each_augmentation_searches_only_the_step_support(self, monkeypatch):
        # one toggle search per augmentation, with allowed = supp(x* - xhat)
        # for the x* of the LP just solved: no search over the whole graph
        points, searches = [], []

        def cold(*args):
            res = solve_relaxation(*args)
            points.append(res.point)
            return res

        def warm(res, cut):
            res = add_cut(res, cut)
            points.append(res.point)
            return res

        def toggle(graph, weights, matched, allowed):
            step = [x - (e in matched) for e, x in enumerate(points[-1])]
            searches.append(allowed == frozenset(e for e, dx in enumerate(step) if dx))
            return _best_toggle(graph, weights, matched, allowed)

        monkeypatch.setattr(matching, "solve_relaxation", cold)
        monkeypatch.setattr(matching, "add_cut", warm)
        monkeypatch.setattr(matching, "_best_toggle", toggle)
        augmented = 0
        for g in _random_graphs():
            searches.clear()
            res = solve_matching(g)
            assert searches == [True] * res.counters.augmentations
            augmented += res.counters.augmentations
        assert augmented > 0

    def test_an_augmentation_solves_no_lp(self):
        # one cold solve, then one warm re-optimisation per cut and none
        # after an augmentation, which leaves the relaxation as it was
        augmented = cut = 0
        for g in _random_graphs():
            c = solve_matching(g).counters
            if g.edges:
                assert c.lp_solves == 1 + c.cuts_added
            augmented += c.augmentations
            cut += c.cuts_added
        assert augmented > 0 and cut > 0

    def test_lp_pivots_sum_the_pivots_of_every_solve(self, monkeypatch):
        pivots = []

        def cold(*args):
            res = solve_relaxation(*args)
            pivots.append(res.pivots)
            return res

        def warm(res, cut):
            res = add_cut(res, cut)
            pivots.append(res.pivots)
            return res

        monkeypatch.setattr(matching, "solve_relaxation", cold)
        monkeypatch.setattr(matching, "add_cut", warm)
        for g in _random_graphs():
            pivots.clear()
            c = solve_matching(g).counters
            assert c.lp_pivots == sum(pivots)
            assert len(pivots) == c.lp_solves
