"""Reference cut-graph builder for differential tests: the former colsep code.

These are the ``enumerate_col_candidates``, ``build_cut_graph`` and
``extract_multipliers`` that ``zerohalf.colsep`` ran before the odd
positions of A moved into ``SeparationContext.parity``, and before a column
without a repair side became a parity edge of capacity ``ctx.scale``.  They
rescan A for the odd committed rows of every column, and contract the odd
rows of a column without a repair side by a union-find (onto each other, or
onto the sink for a single odd row); a candidate whose source row lands in
the sink's class is reported as collapsed, with no graph.  A box
candidate's own coordinate has a branch of its own: the other odd row of
that column (the partner) is pinned to the sink when the coordinate cannot
be repaired, else joined to the sink by a ``("partner", i)`` edge at the
repair cost.  Bound rows are chosen by per-coordinate down/up branches.
The builder returns the package's ``Graph`` inside its own ``CutGraphInfo``
with ``source``, ``sink`` and the ``members`` of every contracted node.
Below the scale, the package's minimum cut must price and select exactly
what this one does; a collapsed candidate counts as the scale.  Kept only
as a test oracle; nothing in the package imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from zerohalf.colsep import _SINK, ColCandidate
from zerohalf.core import InternalConsistencyError, Multipliers, SeparationContext
from zerohalf.graphs import Edge, Graph


@dataclass
class CutGraphInfo:
    """Built graph for one candidate, or the fact that it collapsed."""

    candidate: ColCandidate
    collapsed: bool
    graph: Graph | None
    source: int | None
    sink: int | None
    members: dict[int, tuple[int, ...]]


class _UnionFind:
    def __init__(self, elems):
        self.parent = {e: e for e in elems}

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller id as root so the sink sentinel survives
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def enumerate_col_candidates(ctx: SeparationContext) -> list[ColCandidate]:
    out = [ColCandidate("row", j, None, 0) for j in sorted(ctx.slack_one_rows)]
    tight = sorted(ctx.tight_rows)
    for i in range(ctx.instance.n):
        fixed = ctx.slack_bound_cost[i]
        if fixed is None:
            continue
        for v in tight:
            if ctx.instance.A[v][i] % 2:
                out.append(ColCandidate("box", v, i, fixed))
    return out


def build_cut_graph(ctx: SeparationContext, cand: ColCandidate) -> CutGraphInfo:
    inst = ctx.instance
    committed = set(ctx.tight_rows)
    if cand.kind == "row":
        committed.add(cand.source_row)
    committed = sorted(committed)

    def odd_rows(i: int) -> list[int]:
        return [v for v in committed if inst.A[v][i] % 2]

    partner = None
    if cand.coord is not None:
        others = [v for v in odd_rows(cand.coord) if v != cand.source_row]
        if others:
            partner = others[0]

    uf = _UnionFind(committed + [_SINK])
    for i in range(inst.n):
        if ctx.tight_bound_cost[i] is not None:
            continue
        if i == cand.coord:
            if partner is not None:
                uf.union(partner, _SINK)
            continue
        odd = odd_rows(i)
        if len(odd) == 2:
            uf.union(odd[0], odd[1])
        elif len(odd) == 1:
            uf.union(odd[0], _SINK)

    sink = uf.find(_SINK)
    source = uf.find(cand.source_row)
    if source == sink:
        return CutGraphInfo(cand, True, None, None, None, {})

    edges = []
    for v in committed:
        root = uf.find(v)
        if root != sink:
            edges.append(Edge(root, sink, ctx.slack_star[v], ("slack", v)))
    for i in range(inst.n):
        cap = ctx.tight_bound_cost[i]
        if cap is None:
            continue
        if i == cand.coord:
            if partner is not None and uf.find(partner) != sink:
                edges.append(Edge(uf.find(partner), sink, cap, ("partner", i)))
            continue
        odd = odd_rows(i)
        if len(odd) == 2:
            a, b = uf.find(odd[0]), uf.find(odd[1])
            if a != b:
                edges.append(Edge(a, b, cap, ("col", i)))
        elif len(odd) == 1:
            a = uf.find(odd[0])
            if a != sink:
                edges.append(Edge(a, sink, cap, ("col", i)))

    members: dict[int, list[int]] = {}
    for v in committed:
        members.setdefault(uf.find(v), []).append(v)
    nodes = sorted(members) + ([sink] if sink not in members else [])
    return CutGraphInfo(
        cand, False, Graph(nodes, edges), source, sink,
        {node: tuple(rows) for node, rows in members.items()},
    )


def extract_multipliers(ctx: SeparationContext, info: CutGraphInfo, source_side) -> Multipliers:
    inst = ctx.instance
    rows = sorted(
        r for node in source_side if node in info.members for r in info.members[node]
    )
    down, up = [], []
    for i in range(inst.n):
        odd = sum(inst.A[r][i] for r in rows) % 2
        if i == info.candidate.coord:
            if not odd:
                raise InternalConsistencyError("slack bound coordinate lost its odd row")
            (up if ctx.xhat[i] == 0 else down).append(i)
        elif odd:
            if ctx.tight_bound_cost[i] is None:
                raise InternalConsistencyError(
                    f"odd coordinate {i} has no bound row to repair it"
                )
            (down if ctx.xhat[i] == 0 else up).append(i)
    return Multipliers.from_support(inst.m, inst.n, rows, down, up)
