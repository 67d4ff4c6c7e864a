"""Tests for the shortest-path separator."""

import random
from fractions import Fraction

import pytest

from zerohalf.core import (
    IlpInstance,
    InternalConsistencyError,
    MethodNotApplicableError,
    compute_context,
    extended_slack,
    is_tight_nontrivial,
    parity_profile,
    violation,
)
from zerohalf.colsep import primal_separate_col
from zerohalf.oracle import brute_primal_separate
from zerohalf.rowsep import (
    RowCandidate,
    build_parity_graph,
    enumerate_row_candidates,
    multipliers_from_path,
    primal_separate_row,
)
from zerohalf.graphs import shortest_path

HALF = Fraction(1, 2)
TERM = -1


def triangle_ctx(triangle):
    return compute_context(triangle, (1, 0, 0), (HALF, HALF, HALF))


class TestParityGraph:
    def test_triangle_edges(self, triangle):
        ctx = triangle_ctx(triangle)
        graph = build_parity_graph(ctx)
        assert ctx.scale == 2
        assert set(graph.nodes) == {0, 1, 2, TERM}
        rows = {
            e.tag[1]: (frozenset((e.u, e.v)), e.weight)
            for e in graph.edges
            if e.tag[0] == "row"
        }
        assert rows == {
            0: (frozenset((0, 1)), Fraction(0)),
            1: (frozenset((0, 2)), Fraction(0)),
        }
        boxes = {
            e.tag[1]: (frozenset((e.u, e.v)), e.weight)
            for e in graph.edges
            if e.tag[0] == "box"
        }
        assert boxes == {
            0: (frozenset((0, TERM)), HALF * ctx.scale),
            1: (frozenset((1, TERM)), HALF * ctx.scale),
            2: (frozenset((2, TERM)), HALF * ctx.scale),
        }

    def test_all_even_tight_row_gets_no_edge(self):
        inst = IlpInstance(
            A=((2, 2), (1, 1)),
            b=(2, 1),
            lower_present=(True, True),
            upper_present=(True, True),
        )
        ctx = compute_context(inst, (1, 0), (HALF, HALF))
        graph = build_parity_graph(ctx)
        assert {e.tag for e in graph.edges} == {
            ("row", 1),
            ("box", 0),
            ("box", 1),
        }

    def test_missing_bound_side_gets_no_edge(self):
        inst = IlpInstance(
            A=((1, 1),),
            b=(1,),
            lower_present=(True, False),
            upper_present=(True, True),
        )
        ctx = compute_context(inst, (1, 0), (HALF, HALF))
        tags = {e.tag for e in build_parity_graph(ctx).edges}
        assert ("box", 0) in tags  # xhat at 1, upper bound present
        assert ("box", 1) not in tags  # xhat at 0, lower bound absent


class TestCandidates:
    def test_triangle_candidates(self, triangle):
        ctx = triangle_ctx(triangle)
        cands = enumerate_row_candidates(ctx)
        assert [(c.kind, c.index, c.terminals) for c in cands] == [
            ("row", 2, (1, 2)),
            ("box", 0, (0, TERM)),
            ("box", 1, (1, TERM)),
            ("box", 2, (2, TERM)),
        ]
        assert ctx.scale == 2
        assert cands[0].fixed_cost == 0
        assert all(c.fixed_cost == HALF * ctx.scale for c in cands[1:])

    def test_slack_row_with_one_and_zero_odd_entries(self):
        inst = IlpInstance(
            A=((1, 2), (2, 2)),
            b=(1, 1),
            lower_present=(True, True),
            upper_present=(True, True),
        )
        ctx = compute_context(inst, (0, 0), (Fraction(1, 4), Fraction(1, 4)))
        cands = [c for c in enumerate_row_candidates(ctx) if c.kind == "row"]
        assert [(c.index, c.terminals) for c in cands] == [
            (0, (0, TERM)),
            (1, ()),
        ]


class TestReconstruction:
    def test_box_candidate_path_with_interior_bound_edge(self, triangle):
        ctx = triangle_ctx(triangle)
        graph = build_parity_graph(ctx)
        found = shortest_path(graph, 1, TERM, forbidden_tag=("box", 1))
        assert ctx.scale == 2
        assert found.length == HALF * ctx.scale
        assert [e.tag for e in found.edges] == [("row", 0), ("box", 0)]
        cand = RowCandidate("box", 1, ctx.slack_bound_cost[1], (1, TERM))
        mult = multipliers_from_path(ctx, cand, found.edges)
        assert mult.lam == (HALF, 0, 0)
        assert mult.mu_up == (HALF, HALF, 0)
        assert mult.mu_down == (0, 0, 0)

    def test_duplicate_row_on_path_rejected(self, triangle):
        ctx = triangle_ctx(triangle)
        graph = build_parity_graph(ctx)
        edge = next(e for e in graph.edges if e.tag == ("row", 0))
        cand = RowCandidate("row", 2, Fraction(0), (1, 2))
        with pytest.raises(InternalConsistencyError):
            multipliers_from_path(ctx, cand, (edge, edge))


class TestSeparation:
    def test_triangle_finds_blossom(self, triangle):
        ctx = triangle_ctx(triangle)
        res = primal_separate_row(ctx)
        assert res.cut is not None
        assert (res.cut.coeffs, res.cut.rhs) == ((1, 1, 1), 1)
        assert res.violation == HALF
        assert res.cut.provenance.lam == (HALF, HALF, HALF)
        assert res.calls == 4
        assert res.calls <= triangle.m + triangle.n

    def test_zero_odd_slack_row_needs_no_path(self):
        # 2x + 2y <= 3 has slack 1 at (1, 0) and halves to x + y <= 1;
        # the only path queries are the two hopeless bound candidates
        inst = IlpInstance(
            A=((2, 2),),
            b=(3,),
            lower_present=(True, True),
            upper_present=(True, True),
        )
        ctx = compute_context(inst, (1, 0), (Fraction(3, 4), Fraction(3, 4)))
        res = primal_separate_row(ctx)
        assert res.calls == 2
        assert (res.cut.coeffs, res.cut.rhs) == ((1, 1), 1)
        assert res.violation == HALF

    def test_nothing_to_separate_at_far_point(self, triangle):
        ctx = compute_context(triangle, (1, 0, 0), (Fraction(1, 3),) * 3)
        res = primal_separate_row(ctx)
        assert res.cut is None and res.violation is None

    def test_three_odd_entries_in_a_row_rejected(self):
        inst = IlpInstance(
            A=((1, 1, 1),),
            b=(1,),
            lower_present=(True, True, True),
            upper_present=(True, True, True),
        )
        ctx = compute_context(inst, (1, 0, 0), (HALF, HALF, 0))
        with pytest.raises(MethodNotApplicableError):
            primal_separate_row(ctx)


def all_simple_paths(graph, s, t, forbidden_tag=None):
    adj = {v: [] for v in graph.nodes}
    for e in graph.edges:
        if forbidden_tag is not None and e.tag == forbidden_tag:
            continue
        adj[e.u].append((e.v, e))
        adj[e.v].append((e.u, e))
    out = []

    def dfs(v, visited, acc):
        if v == t:
            out.append(tuple(acc))
            return
        for w, e in adj[v]:
            if w not in visited:
                dfs(w, visited | {w}, acc + [e])

    dfs(s, {s}, [])
    return out


class TestCostIdentity:
    def test_every_path_prices_its_extended_slack(self, triangle):
        """fixed cost + path length doubles the extended slack at xstar,
        along every simple path of every candidate, not just shortest ones."""
        ctx = triangle_ctx(triangle)
        graph = build_parity_graph(ctx)
        checked = 0
        for cand in enumerate_row_candidates(ctx):
            if not cand.terminals:
                continue
            forbidden = ("box", cand.index) if cand.kind == "box" else None
            for path in all_simple_paths(graph, *cand.terminals, forbidden):
                mult = multipliers_from_path(ctx, cand, path)
                cost = cand.fixed_cost + sum(e.weight for e in path)
                assert cost == 2 * ctx.scale * extended_slack(triangle, mult, ctx.xstar)
                assert is_tight_nontrivial(ctx, mult)
                checked += 1
        assert checked >= 8


def random_row_instance(rng):
    m = rng.randrange(2, 5)
    n = rng.randrange(2, 5)
    rows = []
    for _ in range(m):
        odd = rng.sample(range(n), rng.randrange(0, 3))
        rows.append(
            tuple(
                rng.choice((1, 1, 3, -1)) if i in odd else rng.choice((0, 0, 0, 2))
                for i in range(n)
            )
        )
    lower = tuple(rng.random() < 0.85 for _ in range(n))
    upper = tuple(rng.random() < 0.85 for _ in range(n))
    xhat = tuple(rng.randrange(2) for _ in range(n))
    slack = [rng.choice((0, 0, 1, 1, 2)) for _ in range(m)]
    b = tuple(
        sum(a * x for a, x in zip(row, xhat)) + s for row, s in zip(rows, slack)
    )
    return IlpInstance(tuple(rows), b, lower, upper), xhat


def random_fractional_point(rng, inst, xhat):
    for _ in range(80):
        pt = []
        for i in range(inst.n):
            step = Fraction(rng.choice((0, 0, 1, 1, 2)), 4)
            pt.append(Fraction(xhat[i]) + (step if xhat[i] == 0 else -step))
        pt = tuple(pt)
        if all(v.denominator == 1 for v in pt):
            continue
        if inst.feasibility_failure(pt) is None:
            return pt
    return None


class TestOracleAgreement:
    def test_random_instances_match_brute_force(self):
        rng = random.Random(20260818)
        found = 0
        cross_checked = 0
        for _ in range(140):
            inst, xhat = random_row_instance(rng)
            xstar = random_fractional_point(rng, inst, xhat)
            if xstar is None:
                continue
            ctx = compute_context(inst, xhat, xstar)
            res = primal_separate_row(ctx)
            brute = brute_primal_separate(ctx)
            assert (res.cut is None) == (brute is None)
            assert res.calls <= inst.m + inst.n
            if parity_profile(inst).column_method_ok:
                col = primal_separate_col(ctx)
                assert (col.cut is None) == (res.cut is None)
                assert col.violation == res.violation
                cross_checked += 1
            if res.cut is None:
                continue
            found += 1
            assert res.violation == violation(brute, xstar)
            assert violation(res.cut, xstar) == res.violation
            assert is_tight_nontrivial(ctx, res.cut.provenance)
        assert found >= 15
        assert cross_checked >= 30
