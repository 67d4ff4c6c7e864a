"""Primal separation through minimum cuts.

Applicable when every column of A has at most two odd entries.  A cut that
is tight and nontrivial at the integral point carries exactly one unit of
doubled slack, and that unit sits either on one non-tight row (multiplier
1/2 on a row whose slack at xhat is exactly 1) or on one non-tight bound
row of a single coordinate.  Each of those placements becomes a candidate;
for a fixed candidate the remaining freedom is which tight rows join the
row multiplier support, and the cheapest choice at xstar is a minimum cut.

The graph for a candidate has one node per committed row plus a sink.
Edges:

* a slack edge row -> sink with capacity slack_star of the row, paid
  whenever the row is selected;
* a parity edge per coordinate whose column is odd in exactly two
  committed rows, joining them, with capacity equal to the cost of the
  bound-row repair at that coordinate (the side tight at xhat), paid when
  exactly one endpoint is selected;
* the same per single-odd column, running to the sink.

Where the repair side is absent the coordinate cannot be fixed, and its
parity edge gets capacity ``ctx.scale``: a cut across it costs at least
the scale, so the acceptance test rejects it like any other cut that is
not violated.  A candidate whose source row is tied to the sink by such
edges gets a minimum cut of at least the scale and is rejected the same
way.  A box candidate's own coordinate goes through the same
single-odd-row rule with the source row left out of its column: the
slack bound row already fixes the source there, so the other odd row is
priced at the repair cost (or the scale), which with the fixed cost
reaches the scale.  The odd rows of each column come from ``ctx.parity``.
Selected rows are the source side of the cut; doubled extended slack at
xstar equals the candidate's fixed cost plus the cut value.  Capacities and
costs are integer numerators over ``ctx.scale``, so a candidate yields a
violated cut exactly when that total stays below the scale.

Candidates differ only in their source row and one column, so the graph is
a shared per-context structure plus the candidate's delta:
``tight_row_graph`` lists the tight rows, each column's odd tight rows and
capacity, and the slack and parity edges among them once per context, and
``build_cut_graph`` adds a slack row (and its odd columns) or drops a box
candidate's source from its coordinate, on copies, rebuilding only the
edges of the columns it touched.
"""

from __future__ import annotations

from bisect import bisect_left
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
from .graphs import Edge, Graph, min_cut

_SINK = -1  # the sink node; real rows are >= 0


@dataclass(frozen=True)
class ColCandidate:
    """One possible carrier of the single unit of slack at xhat.

    kind "row": source_row is the slack-1 row, coord is None.
    kind "box": coord's non-tight bound row carries the slack and
    source_row is a tight row with odd entry in that column, forced into
    the multiplier support to make the bound multiplier integral.
    """

    kind: str
    source_row: int
    coord: int | None
    fixed_cost: int


@dataclass
class CutGraphInfo:
    """Built graph for one candidate: source ``candidate.source_row``, sink ``_SINK``."""

    candidate: ColCandidate
    graph: Graph
    # read by the bench tracer (bench/tracing.py); no candidate collapses
    collapsed = False


def enumerate_col_candidates(ctx: SeparationContext) -> list[ColCandidate]:
    out = []
    for j in sorted(ctx.slack_one_rows):
        out.append(ColCandidate("row", j, None, 0))
    for i, rows in enumerate(ctx.parity.column_odd_rows):
        fixed = ctx.slack_bound_cost[i]
        if fixed is None:
            continue
        for v in rows:
            if v in ctx.tight_rows:
                out.append(ColCandidate("box", v, i, fixed))
    return out


@dataclass(frozen=True)
class TightRowGraph:
    """The part of every candidate's cut graph that the context fixes.

    ``rows`` are the tight rows in index order, ``slack_edges`` their slack
    edges to the sink (aligned with ``rows``), ``odd[i]`` the odd tight rows
    of column i, ``caps[i]`` the capacity of column i's parity edge (its
    repair cost, or the scale where it has no repair side) and
    ``col_edges[i]`` that edge among the odd tight rows (None if there are
    none).  Candidates share these objects and never change them.
    """

    rows: tuple[int, ...]
    slack_edges: tuple[Edge, ...]
    odd: tuple[tuple[int, ...], ...]
    caps: tuple[int, ...]
    col_edges: tuple[Edge | None, ...]


def _col_edge(cap: int, i: int, rows: tuple[int, ...]) -> Edge | None:
    if not rows:
        return None
    return Edge(rows[0], rows[1] if len(rows) == 2 else _SINK, cap, ("col", i))


def tight_row_graph(ctx: SeparationContext) -> TightRowGraph:
    """The tight rows' share of the cut graph, built once per context."""
    rows = tuple(sorted(ctx.tight_rows))
    odd = tuple(
        [tuple([v for v in col if v in ctx.tight_rows]) for col in ctx.parity.column_odd_rows]
    )
    caps = tuple([ctx.scale if cap is None else cap for cap in ctx.tight_bound_cost])
    return TightRowGraph(
        rows,
        tuple([Edge(v, _SINK, ctx.slack_star[v], ("slack", v)) for v in rows]),
        odd,
        caps,
        tuple([_col_edge(cap, i, col) for i, (cap, col) in enumerate(zip(caps, odd))]),
    )


def build_cut_graph(
    ctx: SeparationContext, cand: ColCandidate, base: TightRowGraph | None = None
) -> CutGraphInfo:
    """Cut graph of one candidate: the shared tight-row graph plus its delta.

    ``base`` is ``tight_row_graph(ctx)``, built here when not handed in.
    """
    if base is None:
        base = tight_row_graph(ctx)
    rows, slack_edges = base.rows, base.slack_edges
    changed: dict[int, tuple[int, ...]] = {}  # patched odd rows per column
    j = cand.source_row
    if cand.kind == "row" and j not in ctx.tight_rows:
        k = bisect_left(rows, j)
        rows = rows[:k] + (j,) + rows[k:]
        edge = Edge(j, _SINK, ctx.slack_star[j], ("slack", j))
        slack_edges = slack_edges[:k] + (edge,) + slack_edges[k:]
        for i in ctx.parity.row_odd_columns[j]:
            changed[i] = tuple(sorted(base.odd[i] + (j,)))
    if cand.coord is not None:
        # the slack bound row already fixes the source at its coordinate,
        # so only the partner is left there
        col = list(changed.get(cand.coord, base.odd[cand.coord]))
        col.remove(j)
        changed[cand.coord] = tuple(col)
    col_edges = base.col_edges
    if changed:
        col_edges = list(col_edges)
        for i, col in changed.items():
            col_edges[i] = _col_edge(base.caps[i], i, col)
    edges = [*slack_edges, *[e for e in col_edges if e is not None]]
    return CutGraphInfo(cand, Graph(rows + (_SINK,), edges))


def extract_multipliers(ctx: SeparationContext, info: CutGraphInfo, source_side) -> Multipliers:
    """Multipliers for a selected row set, bound rows chosen by parity."""
    rows = sorted(source_side)
    odd: set[int] = set()
    for r in rows:
        odd.symmetric_difference_update(ctx.parity.row_odd_columns[r])
    coord = info.candidate.coord
    if coord is not None:
        if coord not in odd:
            raise InternalConsistencyError("slack bound coordinate lost its odd row")
        odd.remove(coord)
    return selection_multipliers(ctx, rows, sorted(odd), coord)


def primal_separate_col(ctx: SeparationContext) -> SeparationResult:
    """Most violated cut that is tight and nontrivial at xhat, if any.

    Runs one minimum cut per candidate, hence at most m + 2n in total.
    Ties on the violation keep the earliest candidate (slack rows in index
    order, then bound candidates by coordinate and source row).
    """
    if not ctx.parity.column_method_ok:
        raise MethodNotApplicableError("a column of A has more than two odd entries")
    cands = enumerate_col_candidates(ctx)
    if len(cands) > ctx.instance.m + 2 * ctx.instance.n:
        raise InternalConsistencyError("minimum-cut budget exceeded")
    best: tuple[int, Cut, Fraction] | None = None
    base = tight_row_graph(ctx)
    for cand in cands:
        info = build_cut_graph(ctx, cand, base)
        res = min_cut(info.graph, cand.source_row, _SINK)
        total = cand.fixed_cost + res.value
        if total >= (best[0] if best else ctx.scale):
            continue
        mult = extract_multipliers(ctx, info, res.source_side)
        best = (total, *accept_cut(ctx, mult, total))
    if best is None:
        return SeparationResult(None, None, len(cands))
    return SeparationResult(best[1], best[2], len(cands))
