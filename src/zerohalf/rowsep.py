"""Primal separation through shortest paths.

Applicable when every row of A has at most two odd entries.  The parity
graph has one node per coordinate plus a terminal node: every tight row
becomes an edge joining its odd coordinates, as listed in ``ctx.parity``
(running to the terminal when only one entry is odd, vanishing when none
is), with length equal to the row's slack at xstar, and every coordinate
whose xhat-tight bound row is part of the instance gets an edge to the
terminal with the cost of that bound row at xstar.

Walking an edge path toggles coordinate parities only at the endpoints:
interior coordinates are touched by two odd entries and stay even, and
the terminal absorbs parity for free, so paths may run through it.  A cut
that is tight and nontrivial at xhat again has exactly one slack unit,
carried by a slack-1 row or by the non-tight bound row of one coordinate;
the carrier determines which parities must be flipped and the cheapest
completion is a shortest path:

* a slack-1 row with two odd coordinates needs a path between them;
* with one odd coordinate, a path from it to the terminal;
* with none, it forms a cut by itself (no path call);
* a bound carrier at coordinate i needs a path i -> terminal that avoids
  the opposite bound row of i, excluded by its edge tag.

Doubled extended slack at xstar equals the carrier's own cost plus the
path length.  Lengths and costs are integer numerators over ``ctx.scale``,
so a candidate is accepted exactly when the total stays below the scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Cut,
    InternalConsistencyError,
    MethodNotApplicableError,
    Multipliers,
    SeparationContext,
    SeparationResult,
    accept_cut,
    selection_multipliers,
)
from .graphs import Edge, Graph, shortest_path

_TERM = -1  # terminal node; coordinates are >= 0


@dataclass(frozen=True)
class RowCandidate:
    """Carrier of the slack unit: a slack-1 row or a coordinate's bound row."""

    kind: str  # "row" | "box"
    index: int
    fixed_cost: int
    terminals: tuple[int, ...]  # path endpoints; empty when no path is needed


def _ends(odd: tuple[int, ...]) -> tuple[int, ...]:
    """Path ends for a row's odd coordinates: a lone one pairs with the terminal."""
    return odd + (_TERM,) if len(odd) == 1 else odd


def build_parity_graph(ctx: SeparationContext) -> Graph:
    edges = []
    for e in sorted(ctx.tight_rows):
        ends = _ends(ctx.parity.row_odd_columns[e])
        if len(ends) == 2:
            edges.append(Edge(*ends, ctx.slack_star[e], ("row", e)))
    for i, cost in enumerate(ctx.tight_bound_cost):
        if cost is not None:
            edges.append(Edge(i, _TERM, cost, ("box", i)))
    return Graph(tuple(range(ctx.instance.n)) + (_TERM,), edges)


def enumerate_row_candidates(ctx: SeparationContext) -> list[RowCandidate]:
    out = []
    for j in sorted(ctx.slack_one_rows):
        ends = _ends(ctx.parity.row_odd_columns[j])
        out.append(RowCandidate("row", j, ctx.slack_star[j], ends))
    for i in range(ctx.instance.n):
        fixed = ctx.slack_bound_cost[i]
        if fixed is not None:
            out.append(RowCandidate("box", i, fixed, (i, _TERM)))
    return out


def multipliers_from_path(ctx: SeparationContext, cand: RowCandidate, path_edges) -> Multipliers:
    """Assemble multipliers from a carrier and the edges of its path."""
    rows = [cand.index] if cand.kind == "row" else []
    repaired = []
    for e in path_edges:
        kind, idx = e.tag
        if kind == "box":
            repaired.append(idx)
        elif idx in rows:
            raise InternalConsistencyError(f"row {idx} used twice on the path")
        else:
            rows.append(idx)
    carrier = cand.index if cand.kind == "box" else None
    return selection_multipliers(ctx, rows, repaired, carrier)


def primal_separate_row(ctx: SeparationContext) -> SeparationResult:
    """Most violated cut that is tight and nontrivial at xhat, if any.

    Runs at most one shortest-path query per candidate, hence at most
    m + n in total.  Ties on the violation keep the earliest candidate
    (slack rows in index order, then coordinates in index order).
    """
    if not ctx.parity.row_method_ok:
        raise MethodNotApplicableError("a row of A has more than two odd entries")
    graph = build_parity_graph(ctx)
    best: tuple[int, Cut, Fraction] | None = None
    calls = 0
    for cand in enumerate_row_candidates(ctx):
        if not cand.terminals:
            total = cand.fixed_cost
            path_edges = ()
        else:
            forbidden = ("box", cand.index) if cand.kind == "box" else None
            found = shortest_path(graph, *cand.terminals, forbidden_tag=forbidden)
            calls += 1
            if found is None:
                continue
            total = cand.fixed_cost + found.length
            path_edges = found.edges
        if total >= (best[0] if best else ctx.scale):
            continue
        mult = multipliers_from_path(ctx, cand, path_edges)
        best = (total, *accept_cut(ctx, mult, total))
    if calls > ctx.instance.m + ctx.instance.n:
        raise InternalConsistencyError("shortest-path budget exceeded")
    if best is None:
        return SeparationResult(None, None, calls)
    return SeparationResult(best[1], best[2], calls)
