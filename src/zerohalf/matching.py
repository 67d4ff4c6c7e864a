"""Maximum-weight matching by primal cutting planes.

The solver keeps an integral matching at all times.  Each round looks at
the optimum of the linear relaxation of the degree system plus all cuts
collected so far: solved once from scratch, then re-optimised from the last
basis after each cut (``simplex.add_cut``) and kept as it is after an
augmentation, which leaves the relaxation unchanged.  A fractional optimum
is first attacked with the column separator, which only produces cuts tight
at the current matching, and when no such cut exists the matching itself is
improved by toggling an alternating path or cycle.  Odd-set inequalities
generate the matching polytope, so one of the two moves is always available
until an optimal matching is certified.

Certification happens in two ways: the relaxation value drops to the
weight of the current matching (every cut is valid for all matchings, so
the relaxation value is an upper bound), or the relaxation optimum itself
is integral, hence a matching of maximum weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import (
    BudgetExceededError,
    Cut,
    IlpInstance,
    InternalConsistencyError,
    Point,
    ZeroHalfError,
    compute_context,
    is_integral,
)
from .colsep import primal_separate_col
from .simplex import add_cut, solve_relaxation

# Alternating walks ``_best_toggle`` may visit per call; more raise
# BudgetExceededError instead of letting the exponential search run on.
TOGGLE_NODE_BUDGET = 1 << 20


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph; edges are (endpoint, endpoint, weight)."""

    node_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.node_count < 0:
            raise ZeroHalfError("negative node count")
        object.__setattr__(
            self, "edges", tuple([tuple([int(x) for x in e]) for e in self.edges])
        )
        seen = set()
        for u, v, _ in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ZeroHalfError(f"edge endpoint out of range: {(u, v)}")
            if u == v:
                raise ZeroHalfError(f"loop at node {u}")
            key = frozenset((u, v))
            if key in seen:
                raise ZeroHalfError(f"duplicate edge {(u, v)}")
            seen.add(key)


@dataclass
class MatchingCounters:
    """Work done by one solver run.

    ``lp_solves`` counts the cold solve and the warm re-optimisations, one
    per cut; ``lp_pivots`` sums their pivots and bound flips.
    """

    lp_solves: int = 0
    cuts_added: int = 0
    augmentations: int = 0
    mincut_calls: list[int] = field(default_factory=list)
    lp_pivots: int = 0

    @property
    def max_calls_per_separation(self) -> int:
        return max(self.mincut_calls, default=0)

    @property
    def total_mincut_calls(self) -> int:
        return sum(self.mincut_calls)


@dataclass(frozen=True)
class MatchingResult:
    matching: tuple[int, ...]
    weight: int
    counters: MatchingCounters
    cuts: tuple[Cut, ...]


def incidence_instance(
    graph: WeightedGraph, weights: Sequence[int] | None = None
) -> IlpInstance:
    """Degree system of the graph: one row x(edges at v) <= 1 per node.

    Every edge variable gets the full [0, 1] box.  The objective is the
    edge weight vector.  Graphs without edges have no columns and are
    rejected by the instance type itself.
    """
    if weights is None:
        weights = tuple([w for _, _, w in graph.edges])
    if len(weights) != len(graph.edges):
        raise ZeroHalfError("one weight per edge required")
    n = len(graph.edges)
    rows = []
    for v in range(graph.node_count):
        rows.append(tuple([1 if v in (e[0], e[1]) else 0 for e in graph.edges]))
    return IlpInstance(
        A=tuple(rows),
        b=(1,) * graph.node_count,
        lower_present=(True,) * n,
        upper_present=(True,) * n,
        objective=tuple([int(w) for w in weights]),
    )


def _toggle_gain(weights, matched: frozenset[int], s) -> int:
    return sum(-weights[e] if e in matched else weights[e] for e in s)


def _best_toggle(
    graph: WeightedGraph,
    weights: Sequence[int],
    matched: frozenset[int],
    allowed: frozenset[int],
) -> frozenset[int] | None:
    """Best positive-gain alternating path or cycle toggle, or None.

    A toggle set flips edge membership in the matching; it keeps the
    matching property exactly when it is a simple path or even cycle whose
    edges alternate between unmatched and matched, with an extra condition
    at path ends: an end landing on an unmatched edge must sit at an
    uncovered node.  All such structures inside the allowed edge set are
    enumerated outright, at most ``TOGGLE_NODE_BUDGET`` walks; ties prefer
    the lexicographically smallest sorted index tuple.
    """
    covered = {}
    for e in matched:
        u, v, _ = graph.edges[e]
        covered[u] = e
        covered[v] = e
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.node_count)]
    for e in sorted(allowed):
        u, v, _ = graph.edges[e]
        adj[u].append((e, v))
        adj[v].append((e, u))
    best: tuple[int, tuple[int, ...]] | None = None
    visited = 0

    def record(seq: list[int], start: int, end: int) -> None:
        # called once per walk _extend visits
        nonlocal best, visited
        visited += 1
        if visited > TOGGLE_NODE_BUDGET:
            raise BudgetExceededError(
                f"more than {TOGGLE_NODE_BUDGET} alternating walks in one toggle search"
            )
        if seq[0] not in matched and start in covered:
            return
        if seq[-1] not in matched and end in covered:
            return
        gain = _toggle_gain(weights, matched, seq)
        if gain <= 0:
            return
        key = (-gain, tuple(sorted(seq)))
        if best is None or key < best:
            best = key

    def record_cycle(cyc: list[int]) -> None:
        nonlocal best
        gain = _toggle_gain(weights, matched, cyc)
        if gain > 0:
            key = (-gain, tuple(sorted(cyc)))
            if best is None or key < best:
                best = key

    for v0 in range(graph.node_count):
        for e, w in adj[v0]:
            _extend(adj, matched, record, record_cycle, v0, w, [e], {v0, w})
    if best is None:
        return None
    return frozenset(best[1])


def _extend(adj, matched, record, record_cycle, start: int, at: int, seq: list[int],
            seen_nodes: set[int]) -> None:
    """Report the alternating walk ``seq`` from ``start`` to ``at`` and its extensions.

    A module-level function, so the recursion leaves no reference cycle
    through a closure cell.
    """
    record(seq, start, at)
    last_matched = seq[-1] in matched
    for e, w in adj[at]:
        if e in seq or (e in matched) == last_matched:
            continue
        if w == start:
            # closing edge: also alternate against the first edge
            if (e in matched) != (seq[0] in matched):
                record_cycle(seq + [e])
            continue
        if w in seen_nodes:
            continue
        seq.append(e)
        seen_nodes.add(w)
        _extend(adj, matched, record, record_cycle, start, w, seq, seen_nodes)
        seen_nodes.remove(w)
        seq.pop()


def solve_matching(
    graph: WeightedGraph, weights: Sequence[int] | None = None
) -> MatchingResult:
    """Maximum-weight matching; weights default to the graph's own.

    When the column separator finds no cut, the toggle search stays inside
    supp(x* - xhat), and it always finds one there.  With no cut, x* meets
    every facet of the matching polytope that is tight at xhat (degree rows,
    bounds and odd-set inequalities, all rows or {0,1/2}-cuts of the degree
    system), so x* - xhat lies in the polytope's radial cone at xhat.  That
    cone is generated by alternating paths and cycles, each -1 only on
    matched and +1 only on unmatched edges, so none cancel: every generator
    of x* - xhat lies inside its support, and one of them has positive gain
    because x* is worth more than xhat.  A failed search is therefore an
    internal error.
    """
    if weights is None:
        weights = tuple([w for _, _, w in graph.edges])
    weights = tuple([int(w) for w in weights])
    if len(weights) != len(graph.edges):
        raise ZeroHalfError("one weight per edge required")
    if any(w < 0 for w in weights):
        raise ZeroHalfError("negative edge weight")
    counters = MatchingCounters()
    if not graph.edges:
        return MatchingResult((), 0, counters, ())
    inst = incidence_instance(graph, weights)
    n = inst.n
    xhat: tuple[Fraction, ...] = (Fraction(0),) * n
    cuts: list[Cut] = []
    res = solve_relaxation(
        inst.A, inst.b, inst.lower_present, inst.upper_present, (), weights
    )
    counters.lp_solves += 1
    counters.lp_pivots += res.pivots
    while True:
        current = sum(w * x for w, x in zip(weights, xhat))
        if res.value == current:
            return _finish(graph, weights, xhat, counters, cuts)
        if is_integral(res.point):
            return _finish(graph, weights, res.point, counters, cuts)
        ctx = compute_context(inst, xhat, res.point)
        sep = primal_separate_col(ctx)
        counters.mincut_calls.append(sep.calls)
        if sep.cut is not None:
            cuts.append(sep.cut)
            counters.cuts_added += 1
            res = add_cut(res, sep.cut)
            counters.lp_solves += 1
            counters.lp_pivots += res.pivots
            continue
        matched = frozenset(e for e in range(n) if xhat[e] == 1)
        support = frozenset(e for e in range(n) if res.point[e] != xhat[e])
        toggle = _best_toggle(graph, weights, matched, support)
        if toggle is None:
            raise InternalConsistencyError(
                "no cut and no improving alternating toggle inside supp(x* - xhat)"
            )
        xhat = tuple(
            [Fraction(1) - x if e in toggle else x for e, x in enumerate(xhat)]
        )
        counters.augmentations += 1


def _finish(
    graph: WeightedGraph,
    weights: Sequence[int],
    xvec: Point,
    counters: MatchingCounters,
    cuts: list[Cut],
) -> MatchingResult:
    picked = tuple([e for e, x in enumerate(xvec) if x == 1])
    used = set()
    for e in picked:
        u, v, _ = graph.edges[e]
        if u in used or v in used:
            raise InternalConsistencyError("selected edges share a node")
        used.update((u, v))
    weight = sum(weights[e] for e in picked)
    return MatchingResult(picked, weight, counters, tuple(cuts))
