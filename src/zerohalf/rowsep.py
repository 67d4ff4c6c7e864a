"""Primal separation through shortest paths.

Applicable when every row of A has at most two odd entries.  The parity
graph has one node per coordinate plus a terminal node: every tight row
becomes an edge joining its odd coordinates (running to the terminal when
only one entry is odd, vanishing when none is), with length equal to the
row's slack at xstar, and every coordinate whose xhat-tight bound row is
part of the instance gets an edge to the terminal with the cost of that
bound row at xstar.

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
    parity_profile,
)
from .graphs import LengthEdge, LengthGraph, shortest_path

_TERM = -1  # terminal node; coordinates are >= 0


@dataclass(frozen=True)
class RowCandidate:
    """Carrier of the slack unit: a slack-1 row or a coordinate's bound row."""

    kind: str  # "row" | "box"
    index: int
    fixed_cost: int
    terminals: tuple[int, ...]  # path endpoints; empty when no path is needed


def build_parity_graph(ctx: SeparationContext) -> LengthGraph:
    inst = ctx.instance
    edges = []
    for e in sorted(ctx.tight_rows):
        odd = [i for i in range(inst.n) if inst.A[e][i] % 2]
        if len(odd) == 2:
            edges.append(LengthEdge(odd[0], odd[1], ctx.slack_star[e], ("row", e)))
        elif len(odd) == 1:
            edges.append(LengthEdge(odd[0], _TERM, ctx.slack_star[e], ("row", e)))
    for i in range(inst.n):
        cost = ctx.tight_bound_cost[i]
        if cost is not None:
            edges.append(LengthEdge(i, _TERM, cost, ("box", i)))
    return LengthGraph(tuple(range(inst.n)) + (_TERM,), tuple(edges))


def enumerate_row_candidates(ctx: SeparationContext) -> list[RowCandidate]:
    inst = ctx.instance
    out = []
    for j in sorted(ctx.slack_one_rows):
        odd = tuple([i for i in range(inst.n) if inst.A[j][i] % 2])
        if len(odd) == 2:
            terminals = odd
        elif len(odd) == 1:
            terminals = (odd[0], _TERM)
        else:
            terminals = ()
        out.append(RowCandidate("row", j, ctx.slack_star[j], terminals))
    for i in range(inst.n):
        fixed = ctx.slack_bound_cost[i]
        if fixed is not None:
            out.append(RowCandidate("box", i, fixed, (i, _TERM)))
    return out


def multipliers_from_path(
    ctx: SeparationContext,
    cand: RowCandidate,
    path_edges,
) -> Multipliers:
    """Assemble multipliers from a carrier and the edges of its path."""
    lam, down, up = set(), set(), set()

    def flip_bound(i: int, slack_side: bool) -> None:
        if i in down or i in up:
            raise InternalConsistencyError(
                f"both bound rows of coordinate {i} selected"
            )
        if ctx.xhat[i] == 0:
            (up if slack_side else down).add(i)
        elif ctx.xhat[i] == 1:
            (down if slack_side else up).add(i)
        else:
            raise InternalConsistencyError(
                f"coordinate {i} has no usable bound row"
            )

    if cand.kind == "row":
        lam.add(cand.index)
    else:
        flip_bound(cand.index, slack_side=True)
    for e in path_edges:
        kind, idx = e.tag
        if kind == "row":
            if idx in lam:
                raise InternalConsistencyError(f"row {idx} used twice on the path")
            lam.add(idx)
        else:
            flip_bound(idx, slack_side=False)
    return Multipliers.from_support(ctx.instance.m, ctx.instance.n, lam, down, up)


def primal_separate_row(ctx: SeparationContext) -> SeparationResult:
    """Most violated cut that is tight and nontrivial at xhat, if any.

    Runs at most one shortest-path query per candidate, hence at most
    m + n in total.  Ties on the violation keep the earliest candidate
    (slack rows in index order, then coordinates in index order).
    """
    if not parity_profile(ctx.instance).row_method_ok:
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
