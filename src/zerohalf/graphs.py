"""Exact min-cut and shortest-path kernels.

Both kernels take one graph type: undirected, parallel edges allowed, and
every edge carries an opaque ``tag`` so callers can recover which
constraint or coordinate an edge came from.  An edge's weight is its
capacity for ``min_cut`` and its length for ``shortest_path``.  Weights
are nonnegative exact rationals, ``int`` or ``fractions.Fraction``, and
sums start from the integer 0, so integer weights (the separators pass
numerators over one common scale) never become ``Fraction`` objects.
Results follow the input type.

``min_cut`` runs augmenting-path max-flow (shortest augmenting paths, each
undirected edge modelled as an opposing arc pair) and returns the source
side of the residual graph, so the reported cut value always equals the
flow value.  ``shortest_path`` is label-setting with lexicographic
tie-breaks on the node insertion order, which keeps results deterministic
in the presence of ties.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from numbers import Rational
from typing import Hashable, Iterable, Sequence

from .core import InternalConsistencyError, ZeroHalfError


class GraphError(ZeroHalfError):
    pass


@dataclass(frozen=True)
class Edge:
    u: Hashable
    v: Hashable
    weight: Rational
    tag: Hashable = None


def _check_edges(nodes: Sequence[Hashable], edges: Sequence[Edge]):
    node_set = set(nodes)
    if len(node_set) != len(nodes):
        raise GraphError("duplicate node")
    for e in edges:
        if e.u == e.v:
            raise GraphError(f"self-loop at {e.u!r}")
        if e.u not in node_set or e.v not in node_set:
            raise GraphError(f"edge {e.u!r}-{e.v!r} has an unknown endpoint")
        if e.weight < 0:
            raise GraphError(f"negative weight on edge {e.u!r}-{e.v!r}")


class Graph:
    def __init__(self, nodes: Iterable[Hashable], edges: Iterable[Edge]):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        _check_edges(self.nodes, self.edges)


@dataclass(frozen=True)
class MinCutResult:
    value: Rational
    source_side: frozenset


def min_cut(graph: Graph, s: Hashable, t: Hashable) -> MinCutResult:
    """Minimum s-t cut value and its source side.

    A disconnected pair yields value 0 with the source component as the
    source side.  ``s == t`` is rejected.
    """
    if s == t:
        raise GraphError("source equals sink")
    if s not in graph.nodes or t not in graph.nodes:
        raise GraphError("source or sink not in graph")

    # arc pairs: arcs[k] and arcs[k^1] are the two directions of one edge
    index = {v: i for i, v in enumerate(graph.nodes)}
    adjacency: list[list[int]] = [[] for _ in graph.nodes]
    arc_to: list[int] = []
    residual: list[Rational] = []
    for e in graph.edges:
        ui, vi = index[e.u], index[e.v]
        adjacency[ui].append(len(arc_to))
        arc_to.append(vi)
        residual.append(e.weight)
        adjacency[vi].append(len(arc_to))
        arc_to.append(ui)
        residual.append(e.weight)

    si, ti = index[s], index[t]
    flow = 0
    while True:
        parent_arc = [-1] * len(graph.nodes)
        parent_arc[si] = -2
        queue = deque([si])
        while queue:
            u = queue.popleft()
            if u == ti:
                break
            for a in adjacency[u]:
                v = arc_to[a]
                if parent_arc[v] == -1 and residual[a] > 0:
                    parent_arc[v] = a
                    queue.append(v)
        if parent_arc[ti] == -1:
            break
        # find the bottleneck, then push
        bottleneck = None
        v = ti
        while v != si:
            a = parent_arc[v]
            if bottleneck is None or residual[a] < bottleneck:
                bottleneck = residual[a]
            v = arc_to[a ^ 1]
        v = ti
        while v != si:
            a = parent_arc[v]
            residual[a] -= bottleneck
            residual[a ^ 1] += bottleneck
            v = arc_to[a ^ 1]
        flow += bottleneck

    reached = [False] * len(graph.nodes)
    reached[si] = True
    queue = deque([si])
    while queue:
        u = queue.popleft()
        for a in adjacency[u]:
            v = arc_to[a]
            if not reached[v] and residual[a] > 0:
                reached[v] = True
                queue.append(v)
    side = frozenset(v for v, i in index.items() if reached[i])

    crossing = sum([e.weight for e in graph.edges if (e.u in side) != (e.v in side)])
    if crossing != flow:
        raise InternalConsistencyError(
            f"cut capacity {crossing} does not match flow value {flow}"
        )
    return MinCutResult(flow, side)


@dataclass(frozen=True)
class PathResult:
    length: Rational
    edges: tuple[Edge, ...]


def shortest_path(
    graph: Graph,
    s: Hashable,
    t: Hashable,
    forbidden_tag: Hashable = None,
) -> PathResult | None:
    """Shortest s-t path, or None if t is unreachable.

    ``forbidden_tag`` excludes every edge carrying that tag.  ``s == t``
    yields the empty path of length 0.
    """
    if s not in graph.nodes or t not in graph.nodes:
        raise GraphError("source or target not in graph")
    if s == t:
        return PathResult(0, ())

    index = {v: i for i, v in enumerate(graph.nodes)}
    adjacency: list[list[tuple[int, Edge]]] = [[] for _ in graph.nodes]
    for e in graph.edges:
        if forbidden_tag is not None and e.tag == forbidden_tag:
            continue
        adjacency[index[e.u]].append((index[e.v], e))
        adjacency[index[e.v]].append((index[e.u], e))

    dist: list[Rational | None] = [None] * len(graph.nodes)
    via: list[tuple[int, Edge] | None] = [None] * len(graph.nodes)
    si, ti = index[s], index[t]
    dist[si] = 0
    heap: list[tuple[Rational, int]] = [(0, si)]
    done = [False] * len(graph.nodes)
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == ti:
            break
        for v, e in adjacency[u]:
            nd = d + e.weight
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                via[v] = (u, e)
                heapq.heappush(heap, (nd, v))
    if dist[ti] is None or not done[ti]:
        return None
    path = []
    v = ti
    while v != si:
        u, e = via[v]
        path.append(e)
        v = u
    return PathResult(dist[ti], tuple(reversed(path)))
