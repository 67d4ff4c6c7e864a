"""Tests for the minimum-cut separator."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerohalf import matching
from zerohalf.colsep import (
    _SINK,
    ColCandidate,
    build_cut_graph,
    enumerate_col_candidates,
    extract_multipliers,
    primal_separate_col,
    tight_row_graph,
)
from zerohalf.core import (
    IlpInstance,
    InternalConsistencyError,
    MethodNotApplicableError,
    compute_context,
    extended_slack,
    is_tight_nontrivial,
    violation,
)
from zerohalf.generate import gen_primal_case
from zerohalf.graphs import min_cut
from zerohalf.matching import WeightedGraph
from zerohalf.oracle import brute_primal_separate

import reference_colsep
from conftest import triangle_instance

HALF = Fraction(1, 2)


def triangle_ctx(triangle):
    return compute_context(triangle, (1, 0, 0), (HALF, HALF, HALF))


class TestCandidates:
    def test_triangle_candidate_list(self, triangle):
        ctx = triangle_ctx(triangle)
        cands = enumerate_col_candidates(ctx)
        assert [(c.kind, c.source_row, c.coord) for c in cands] == [
            ("row", 2, None),
            ("box", 0, 0),
            ("box", 1, 0),
            ("box", 0, 1),
            ("box", 1, 2),
        ]
        assert ctx.scale == 2
        assert all(c.fixed_cost == (0 if c.kind == "row" else HALF * ctx.scale) for c in cands)

    def test_missing_slack_side_suppresses_box_candidates(self):
        # xhat pins every variable at 0 and there is no upper bound row
        inst = IlpInstance(
            A=((1, 1),),
            b=(0,),
            lower_present=(True, True),
            upper_present=(False, False),
        )
        ctx = compute_context(inst, (0, 0), (0, 0))
        assert enumerate_col_candidates(ctx) == []


def unrepairable_ctx():
    """No lower bound on the second coordinate at xhat = 0: its column
    cannot be repaired, and it is odd in both rows, which are tight."""
    inst = IlpInstance(
        A=((1, 1), (0, 1)),
        b=(1, 0),
        lower_present=(True, False),
        upper_present=(True, True),
    )
    return compute_context(inst, (1, 0), (HALF, Fraction(-1, 2)))


def _edges(info, kind):
    return {(e.u, e.v, e.tag[1], e.weight) for e in info.graph.edges if e.tag[0] == kind}


class TestGraphShape:
    def test_triangle_row_candidate_graph(self, triangle):
        ctx = triangle_ctx(triangle)
        cand = enumerate_col_candidates(ctx)[0]
        info = build_cut_graph(ctx, cand)
        assert ctx.scale == 2
        assert cand.source_row == 2 and _SINK == -1
        assert info.graph.nodes == (0, 1, 2, -1)
        slack_edges = {
            (e.u, e.weight) for e in info.graph.edges if e.tag[0] == "slack"
        }
        assert slack_edges == {(0, Fraction(0)), (1, Fraction(0)), (2, Fraction(0))}
        col_edges = {
            (frozenset((e.u, e.v)), e.tag[1], e.weight)
            for e in info.graph.edges
            if e.tag[0] == "col"
        }
        # every column has a repair side, so no edge is priced at the scale
        assert col_edges == {
            (frozenset((0, 1)), 0, HALF * ctx.scale),
            (frozenset((0, 2)), 1, HALF * ctx.scale),
            (frozenset((1, 2)), 2, HALF * ctx.scale),
        }

    def test_unrepairable_column_contracts_rows(self):
        # the two odd tight rows of the second coordinate are joined at the
        # scale, so every cut below the scale selects both or neither
        ctx = unrepairable_ctx()
        assert ctx.tight_bound_cost[1] is None
        cand = ColCandidate("box", 0, 0, ctx.slack_bound_cost[0])
        info = build_cut_graph(ctx, cand)
        assert info.graph.nodes == (0, 1, -1) and not info.collapsed
        assert _edges(info, "col") == {(0, 1, 1, ctx.scale)}
        # selecting row 0 alone pays the scale on top of its slack edge
        cut = min_cut(info.graph, 0, _SINK)
        ref = reference_colsep.build_cut_graph(ctx, cand)
        assert ref.members == {0: (0, 1)}
        assert cut.value == min_cut(ref.graph, ref.source, ref.sink).value
        assert cut.source_side == {0, 1}

    def test_partner_contraction_can_collapse_source(self):
        ctx = unrepairable_ctx()
        # coordinate 1 carries the slack bound row and cannot be repaired,
        # so the partner of the source row runs to the sink at the scale
        info = build_cut_graph(ctx, ColCandidate("box", 1, 1, ctx.slack_bound_cost[1]))
        assert _edges(info, "col") == {(0, -1, 0, ctx.tight_bound_cost[0]), (0, -1, 1, ctx.scale)}
        assert min_cut(info.graph, 1, _SINK).source_side == {1}
        info0 = build_cut_graph(ctx, ColCandidate("box", 0, 1, ctx.slack_bound_cost[1]))
        assert _edges(info0, "col") == {(0, -1, 0, ctx.tight_bound_cost[0]), (1, -1, 1, ctx.scale)}
        assert min_cut(info0.graph, 0, _SINK).source_side == {0}
        # with one row, the source itself is tied to the sink at the scale:
        # the former builder skipped it as collapsed, and its cut now
        # prices at least the scale, which acceptance rejects
        inst = IlpInstance(
            A=((1, 1),),
            b=(1,),
            lower_present=(True, False),
            upper_present=(True, True),
        )
        ctx = compute_context(inst, (1, 0), (HALF, Fraction(-1, 2)))
        cand = ColCandidate("box", 0, 0, ctx.slack_bound_cost[0])
        assert reference_colsep.build_cut_graph(ctx, cand).collapsed
        info = build_cut_graph(ctx, cand)
        assert _edges(info, "col") == {(0, -1, 1, ctx.scale)}
        assert min_cut(info.graph, 0, _SINK).value >= ctx.scale


class TestSeparation:
    def test_triangle_finds_blossom(self, triangle):
        ctx = triangle_ctx(triangle)
        res = primal_separate_col(ctx)
        assert res.cut is not None
        assert (res.cut.coeffs, res.cut.rhs) == ((1, 1, 1), 1)
        assert res.violation == HALF
        assert res.calls == 5
        assert res.calls <= triangle.m + 2 * triangle.n

    def test_single_slack_row_without_tight_rows(self):
        inst = IlpInstance(
            A=((2, 1),),
            b=(2,),
            lower_present=(True, True),
            upper_present=(True, True),
        )
        ctx = compute_context(inst, (0, 1), (Fraction(3, 4), HALF))
        res = primal_separate_col(ctx)
        assert res.cut is not None
        assert (res.cut.coeffs, res.cut.rhs) == ((1, 1), 1)
        assert res.violation == Fraction(1, 4)
        assert res.calls == 1

    def test_nothing_to_separate_at_far_point(self, triangle):
        ctx = compute_context(triangle, (1, 0, 0), (Fraction(1, 3),) * 3)
        res = primal_separate_col(ctx)
        assert res.cut is None and res.violation is None

    def test_three_odd_entries_in_a_column_rejected(self):
        inst = IlpInstance(
            A=((1, 0), (1, 1), (1, 0)),
            b=(1, 1, 1),
            lower_present=(True, True),
            upper_present=(True, True),
        )
        ctx = compute_context(inst, (1, 0), (HALF, HALF))
        with pytest.raises(MethodNotApplicableError):
            primal_separate_col(ctx)


def crossing_capacity(graph, side):
    total = Fraction(0)
    for e in graph.edges:
        if (e.u in side) != (e.v in side):
            total += e.weight
    return total


def price_every_selection(ctx, seen):
    """fixed cost + crossing capacity doubles the extended slack at xstar
    for every selectable row set of every candidate graph that crosses no
    edge priced at the scale; a set that crosses one costs the scale."""
    for cand in enumerate_col_candidates(ctx):
        info = build_cut_graph(ctx, cand)
        capped = [
            e for e in info.graph.edges
            if e.tag[0] == "col" and ctx.tight_bound_cost[e.tag[1]] is None
        ]
        assert all(e.weight == ctx.scale for e in capped)
        others = [v for v in info.graph.nodes if v not in (cand.source_row, _SINK)]
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                side = frozenset((cand.source_row,) + extra)
                cost = cand.fixed_cost + crossing_capacity(info.graph, side)
                if any((e.u in side) != (e.v in side) for e in capped):
                    assert cost >= ctx.scale
                    seen["at the scale"] += 1
                    continue
                try:
                    mult = extract_multipliers(ctx, info, side)
                except InternalConsistencyError:
                    # the partner row of a bound candidate was selected;
                    # such selections are priced out of acceptance
                    assert cost >= ctx.scale
                    seen["partner"] += 1
                    continue
                assert cost == 2 * ctx.scale * extended_slack(ctx.instance, mult, ctx.xstar)
                assert is_tight_nontrivial(ctx, mult)
                seen["priced"] += 1


class TestCostIdentity:
    def test_every_selection_prices_its_extended_slack(self, triangle):
        seen = Counter()
        price_every_selection(triangle_ctx(triangle), seen)
        assert seen["priced"] >= 10 and seen["at the scale"] == 0

    def test_unrepairable_columns_price_at_the_scale(self):
        seen = Counter()
        price_every_selection(unrepairable_ctx(), seen)
        assert seen["priced"] >= 3 and seen["at the scale"] >= 3
        # and on small seeded col2 cases with thinned bounds
        rng = random.Random("colsep/cost-identity")
        for _ in range(100):
            case = gen_primal_case(rng, rng.randrange(2, 6), rng.randrange(2, 5), "col2")
            price_every_selection(compute_context(case.instance, case.xhat, case.xstar), seen)
        assert seen["priced"] >= 500 and seen["at the scale"] >= 60 and seen["partner"] >= 30


def random_col_instance(rng):
    m = rng.randrange(2, 5)
    n = rng.randrange(2, 5)
    cols = []
    for _ in range(n):
        odd = rng.sample(range(m), rng.randrange(0, 3))
        col = [
            rng.choice((1, 1, 3)) if j in odd else rng.choice((0, 0, 0, 2))
            for j in range(m)
        ]
        cols.append(col)
    A = tuple(tuple(cols[i][j] for i in range(n)) for j in range(m))
    lower = tuple(rng.random() < 0.85 for _ in range(n))
    upper = tuple(rng.random() < 0.85 for _ in range(n))
    xhat = tuple(rng.randrange(2) for _ in range(n))
    slack = [rng.choice((0, 0, 1, 1, 2)) for _ in range(m)]
    b = tuple(
        sum(a * x for a, x in zip(row, xhat)) + s for row, s in zip(A, slack)
    )
    return IlpInstance(A, b, lower, upper), xhat


def random_fractional_point(rng, inst, xhat):
    """A feasible fractional point near xhat, where tight cuts can bite."""
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
        rng = random.Random(20260817)
        found = 0
        for _ in range(140):
            inst, xhat = random_col_instance(rng)
            xstar = random_fractional_point(rng, inst, xhat)
            if xstar is None:
                continue
            ctx = compute_context(inst, xhat, xstar)
            res = primal_separate_col(ctx)
            brute = brute_primal_separate(ctx)
            assert (res.cut is None) == (brute is None)
            assert res.calls <= inst.m + 2 * inst.n
            if res.cut is None:
                continue
            found += 1
            assert res.violation == violation(brute, xstar)
            assert violation(res.cut, xstar) == res.violation
            assert is_tight_nontrivial(ctx, res.cut.provenance)
        assert found >= 15


def _selected_rows(info, side):
    return sorted(r for node in side if node in info.members for r in info.members[node])


def _multipliers_or_error(extract, ctx, info, side):
    try:
        return extract(ctx, info, side)
    except InternalConsistencyError:
        return InternalConsistencyError


def _contracted_edges(ctx, info, ref):
    """The package's edges as the former builder drew them: edges priced at
    the scale left out, endpoints mapped onto their contracted node, edges
    inside a node dropped."""
    node_of = {r: node for node, rows in ref.members.items() for r in rows}
    node_of[_SINK] = ref.sink
    out = []
    for e in info.graph.edges:
        if e.tag[0] == "col" and ctx.tight_bound_cost[e.tag[1]] is None:
            assert e.weight == ctx.scale
            continue
        a, b = node_of[e.u], node_of[e.v]
        if a != b:
            out.append((a, b, e.weight, e.tag))
    return out


def _assert_matches_reference(ctx, cand, info, seen):
    """``info`` (the package's graph for ``cand``) prices and selects what
    the former contracting builder does, wherever that builder contracted
    nothing or its cut stays below the scale; a collapsed reference
    candidate counts as the scale."""
    ref = reference_colsep.build_cut_graph(ctx, cand)
    seen["candidates"] += 1
    got_cut = min_cut(info.graph, cand.source_row, _SINK)
    if ref.collapsed:
        seen["collapsed"] += 1
        assert got_cut.value >= ctx.scale
        return
    partner = [e.tag for e in ref.graph.edges if e.tag[0] == "partner"]
    seen["partner edges"] += len(partner)
    assert info.graph.nodes == tuple(sorted(r for rows in ref.members.values() for r in rows)) + (_SINK,)
    assert _contracted_edges(ctx, info, ref) == [
        (e.u, e.v, e.weight, ("col", e.tag[1]) if e.tag in partner else e.tag)
        for e in ref.graph.edges
    ]
    ref_cut = min_cut(ref.graph, ref.source, ref.sink)
    ref_mult = _multipliers_or_error(
        reference_colsep.extract_multipliers, ctx, ref, ref_cut.source_side
    )
    seen["rejected selections"] += ref_mult is InternalConsistencyError
    if any(rows != (node,) for node, rows in ref.members.items()) and ref_cut.value >= ctx.scale:
        # rows were contracted: only the fact that no cut is violated carries over
        assert got_cut.value >= ctx.scale
        seen["at the scale"] += 1
        return
    assert got_cut.value == ref_cut.value
    assert sorted(got_cut.source_side) == _selected_rows(ref, ref_cut.source_side)
    assert _multipliers_or_error(extract_multipliers, ctx, info, got_cut.source_side) == ref_mult


def triangle_chain(k, rng):
    edges = []
    for t in range(k):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
        if t + 1 < k:
            edges.append((c, c + 1, 1))
    rng.shuffle(edges)
    return WeightedGraph(3 * k, tuple(edges))


def random_weighted_graph(rng, nodes, p, wmax):
    edges = [
        (u, v, rng.randint(1, wmax))
        for u in range(nodes)
        for v in range(u + 1, nodes)
        if rng.random() < p
    ]
    return WeightedGraph(nodes, tuple(edges))


@pytest.fixture(scope="module")
def matching_contexts():
    """Every context that ``solve_matching`` separates on triangle chains
    k = 4..6 and on seeded random weighted graphs."""
    rng = random.Random("colsep/matching-contexts")
    graphs = [triangle_chain(k, rng) for k in (4, 5, 6)]
    graphs += [random_weighted_graph(rng, rng.randint(12, 15), 0.3, 9) for _ in range(14)]
    contexts = []

    def record(ctx):
        contexts.append(ctx)
        return primal_separate_col(ctx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "primal_separate_col", record)
        for graph in graphs:
            matching.solve_matching(graph)
    return contexts


@pytest.fixture(scope="module")
def col2_contexts():
    """The triangle and 440 seeded col2 cases, columns without a repair
    side included."""
    rng = random.Random("colsep/reference-builder")
    cases = [(triangle_instance(), (1, 0, 0), (HALF, HALF, HALF))]
    for _ in range(440):
        case = gen_primal_case(rng, profile="col2")
        cases.append((case.instance, case.xhat, case.xstar))
    return [compute_context(*case) for case in cases]


class TestAgainstReference:
    """The shared tight-row graph plus each candidate's delta, with its
    columns without a repair side priced at the scale, matches the former
    per-column scan with its contraction and its separate partner branch,
    candidate by candidate."""

    def test_col2_cases_match_the_former_builder(self, col2_contexts):
        seen = Counter()
        for ctx in col2_contexts:
            cands = enumerate_col_candidates(ctx)
            assert cands == reference_colsep.enumerate_col_candidates(ctx)
            base = tight_row_graph(ctx)
            for cand in cands:
                if cand.kind == "box" and ctx.tight_bound_cost[cand.coord] is None:
                    odd = [v for v in ctx.parity.column_odd_rows[cand.coord] if v in ctx.tight_rows]
                    seen["partner pinned"] += len(odd) == 2
                _assert_matches_reference(ctx, cand, build_cut_graph(ctx, cand, base), seen)
        # both special branches of the former builder are exercised
        assert seen["candidates"] >= 1400 and seen["collapsed"] >= 100
        assert seen["partner edges"] >= 100 and seen["partner pinned"] >= 20
        assert seen["rejected selections"] >= 1

    def test_matching_contexts_match_the_former_builder(self, matching_contexts):
        # every edge variable has both bounds, so no column is priced at
        # the scale, and the slack-1 rows are the degree rows of the nodes
        # left exposed
        seen = Counter()
        for ctx in matching_contexts:
            assert None not in ctx.tight_bound_cost
            cands = enumerate_col_candidates(ctx)
            assert cands == reference_colsep.enumerate_col_candidates(ctx)
            base = tight_row_graph(ctx)
            seen["row candidates"] += sum(c.kind == "row" for c in cands)
            for cand in cands:
                _assert_matches_reference(ctx, cand, build_cut_graph(ctx, cand, base), seen)
        assert len(matching_contexts) >= 30
        assert seen["candidates"] >= 1000 and seen["row candidates"] >= 300
        assert seen["collapsed"] == 0


class TestCallCount:
    """One minimum cut per candidate, none skipped."""

    def test_col2_cases_cut_once_per_candidate(self, col2_contexts):
        for ctx in col2_contexts:
            calls = primal_separate_col(ctx).calls
            assert calls == len(enumerate_col_candidates(ctx))
            assert calls <= ctx.instance.m + 2 * ctx.instance.n

    def test_matching_contexts_cut_once_per_candidate(self, matching_contexts):
        for ctx in matching_contexts:
            assert primal_separate_col(ctx).calls == len(enumerate_col_candidates(ctx))


@st.composite
def tiny_col2_cases(draw):
    """At most 4x3, at most two odd entries per column, each bound present
    with probability one half, xstar in quarters and feasible."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    odd_rows = [
        draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True))
        for k in [min(draw(st.sampled_from((0, 1, 2, 2))), m) for _ in range(n)]
    ]
    A = tuple(
        tuple(
            draw(st.sampled_from((1, 3, -1) if j in odd_rows[i] else (0, 2, -2)))
            for i in range(n)
        )
        for j in range(m)
    )
    lower = tuple(draw(st.booleans()) for _ in range(n))
    upper = tuple(draw(st.booleans()) for _ in range(n))
    xhat = tuple(draw(st.integers(0, 1)) for _ in range(n))
    b = tuple(
        sum(a * x for a, x in zip(row, xhat)) + draw(st.sampled_from((0, 0, 1, 2)))
        for row in A
    )
    inst = IlpInstance(A, b, lower, upper)
    steps = [Fraction(draw(st.integers(0, 3)), 4) for _ in range(n)]
    xstar = tuple(x + (s if x == 0 else -s) for x, s in zip(xhat, steps))
    assume(any(v.denominator != 1 for v in xstar))
    assume(inst.feasibility_failure(xstar) is None)
    return inst, xhat, xstar


class TestOracleProperty:
    def test_tiny_col2_instances_match_brute_force(self):
        seen = Counter()

        @settings(derandomize=True, database=None, max_examples=300, deadline=None)
        @given(tiny_col2_cases())
        def check(case):
            inst, xhat, xstar = case
            ctx = compute_context(inst, xhat, xstar)
            for i, cap in enumerate(ctx.tight_bound_cost):
                if cap is None:
                    odd = [v for v in ctx.parity.column_odd_rows[i] if v in ctx.tight_rows]
                    seen[f"unrepairable with {len(odd)} odd rows"] += 1
            res = primal_separate_col(ctx)
            brute = brute_primal_separate(ctx)
            assert (res.cut is None) == (brute is None)
            assert res.calls == len(enumerate_col_candidates(ctx))
            if res.cut is not None:
                seen["found"] += 1
                assert res.violation == violation(brute, xstar)
                assert violation(res.cut, xstar) == res.violation
                assert is_tight_nontrivial(ctx, res.cut.provenance)

        check()
        assert seen["unrepairable with 1 odd rows"] >= 60
        assert seen["unrepairable with 2 odd rows"] >= 15
        assert seen["found"] >= 10


def _shape(info):
    return (info.graph.nodes, [(e.u, e.v, e.weight, e.tag) for e in info.graph.edges])


class TestSharedStructure:
    """Candidates patch copies of the shared tight-row graph, never the
    graph itself, so the order they are built in cannot matter."""

    def test_build_order_does_not_change_any_graph(self, matching_contexts):
        rng = random.Random("colsep/build-order")
        contexts = list(matching_contexts[::3])
        for _ in range(60):
            case = gen_primal_case(rng, profile="col2")
            contexts.append(compute_context(case.instance, case.xhat, case.xstar))
        checked = 0
        for ctx, other in zip(contexts, contexts[1:] + contexts[:1]):
            cands = enumerate_col_candidates(ctx)
            base = tight_row_graph(ctx)
            forward = [_shape(build_cut_graph(ctx, c, base)) for c in cands]
            backward = [_shape(build_cut_graph(ctx, c, base)) for c in reversed(cands)]
            other_cands = enumerate_col_candidates(other)
            other_base = tight_row_graph(other)
            mixed = []
            for k, cand in enumerate(cands):
                mixed.append(_shape(build_cut_graph(ctx, cand, base)))
                for c in other_cands[2 * k:2 * k + 2]:
                    build_cut_graph(other, c, other_base)
            assert forward == backward[::-1] == mixed
            assert forward == [_shape(build_cut_graph(ctx, c)) for c in cands]
            checked += len(cands)
        assert checked >= 500
