import math
import random
from fractions import Fraction

import pytest

from zerohalf.graphs import (
    Edge,
    Graph,
    GraphError,
    min_cut,
    shortest_path,
)

F = Fraction


def capgraph(nodes, triples):
    return Graph(nodes, [Edge(u, v, F(c), tag) for u, v, c, tag in triples])


def lengraph(nodes, triples):
    return Graph(nodes, [Edge(u, v, F(c), tag) for u, v, c, tag in triples])


class TestMinCut:
    def test_series_bottleneck(self):
        g = capgraph("abc", [("a", "b", 2, 0), ("b", "c", 1, 1)])
        r = min_cut(g, "a", "c")
        assert r.value == 1
        assert r.source_side == {"a", "b"}

    def test_parallel_edges_add_up(self):
        g = capgraph("ab", [("a", "b", F(1, 3), 0), ("a", "b", F(1, 4), 1)])
        assert min_cut(g, "a", "b").value == F(7, 12)

    def test_disconnected_gives_zero(self):
        g = capgraph("ab", [])
        r = min_cut(g, "a", "b")
        assert r.value == 0
        assert r.source_side == {"a"}

    def test_zero_capacity_edge(self):
        g = capgraph("ab", [("a", "b", 0, 0)])
        assert min_cut(g, "a", "b").value == 0

    def test_triangle_with_sink(self):
        # three nodes all joined by capacity-1/2 edges, zero edges to t:
        # cheapest way to disconnect node 0 from t is to take everything
        g = capgraph(
            [0, 1, 2, "t"],
            [(0, "t", 0, "e0"), (1, "t", 0, "e1"), (2, "t", 0, "e2"),
             (0, 1, F(1, 2), "a"), (0, 2, F(1, 2), "b"), (1, 2, F(1, 2), "c")],
        )
        r = min_cut(g, 0, "t")
        assert r.value == 0
        assert r.source_side == {0, 1, 2}

    def test_exact_fractional_flow(self):
        g = capgraph(
            "sabt",
            [("s", "a", F(1, 3), 0), ("s", "b", F(1, 7), 1),
             ("a", "t", F(1, 5), 2), ("b", "t", F(1, 2), 3), ("a", "b", F(1, 11), 4)],
        )
        r = min_cut(g, "s", "t")
        # s-side capacity candidates computed by hand
        assert r.value == min(F(1, 3) + F(1, 7), F(1, 5) + F(1, 2),
                              F(1, 5) + F(1, 11) + F(1, 7), F(1, 3) + F(1, 2) + F(1, 11))
        assert r.value == F(1, 5) + F(1, 11) + F(1, 7)

    def test_source_equals_sink_rejected(self):
        g = capgraph("ab", [("a", "b", 1, 0)])
        with pytest.raises(GraphError):
            min_cut(g, "a", "a")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            capgraph("ab", [("a", "a", 1, 0)])

    def test_negative_capacity_rejected(self):
        with pytest.raises(GraphError):
            capgraph("ab", [("a", "b", -1, 0)])


class TestShortestPath:
    def test_two_hop_beats_direct(self):
        g = lengraph("abc", [("a", "c", 1, "direct"), ("a", "b", F(1, 3), 0), ("b", "c", F(1, 3), 1)])
        r = shortest_path(g, "a", "c")
        assert r.length == F(2, 3)
        assert tuple(e.tag for e in r.edges) == (0, 1)

    def test_forbidden_edge_by_tag(self):
        g = lengraph("ab", [("a", "b", 1, "long"), ("a", "b", F(1, 3), "short")])
        assert shortest_path(g, "a", "b").length == F(1, 3)
        r = shortest_path(g, "a", "b", forbidden_tag="short")
        assert r.length == 1
        assert r.edges[0].tag == "long"

    def test_unreachable_returns_none(self):
        g = lengraph("ab", [])
        assert shortest_path(g, "a", "b") is None

    def test_same_node_zero_length(self):
        g = lengraph("ab", [("a", "b", 1, 0)])
        r = shortest_path(g, "a", "a")
        assert r.length == 0 and r.edges == ()

    def test_zero_length_edges(self):
        g = lengraph("abcd", [("a", "b", 0, 0), ("b", "c", 0, 1), ("c", "d", F(1, 2), 2)])
        assert shortest_path(g, "a", "d").length == F(1, 2)

    def test_path_is_simple_and_consistent(self):
        g = lengraph(
            range(5),
            [(0, 1, 1, "a"), (1, 2, 1, "b"), (2, 3, 1, "c"), (3, 4, 1, "d"),
             (0, 4, 5, "e"), (1, 3, 1, "f")],
        )
        r = shortest_path(g, 0, 4)
        assert r.length == 3
        assert len({e.tag for e in r.edges}) == len(r.edges)
        # endpoints chain together
        seen = {0}
        at = 0
        for e in r.edges:
            at = e.v if e.u == at else e.u
            assert at not in seen
            seen.add(at)
        assert at == 4

    def test_deterministic_under_ties(self):
        g = lengraph("sabt", [("s", "a", 1, "sa"), ("s", "b", 1, "sb"),
                              ("a", "t", 1, "at"), ("b", "t", 1, "bt")])
        first = shortest_path(g, "s", "t")
        for _ in range(5):
            again = shortest_path(g, "s", "t")
            assert again.length == first.length
            assert tuple(e.tag for e in again.edges) == tuple(e.tag for e in first.edges)


def tagged(edge_type, ends, weights):
    return [edge_type(u, v, w, k) for k, ((u, v), w) in enumerate(zip(ends, weights))]


class TestScaleInvariance:
    """Integer weights over a common scale give the Fraction answers.

    The separators hand the kernels numerators over the lcm of xstar's
    denominators; scaling every weight by one positive integer must keep
    every comparison and tie, so the same source side and the same path
    come back with the value multiplied by the scale.
    """

    def test_integer_weights_give_the_fraction_answers(self):
        rng = random.Random("graphs/scale-invariance")
        paths = 0
        for _ in range(300):
            nodes = list(range(rng.randint(2, 7)))
            ends = [rng.sample(nodes, 2) for _ in range(rng.randint(0, 12))]
            weights = [F(rng.randrange(4), rng.choice((1, 2, 3, 4, 6))) for _ in ends]
            scale = math.lcm(*[w.denominator for w in weights])
            ints = [int(w * scale) for w in weights]
            s, t = rng.sample(nodes, 2)

            cut = min_cut(Graph(nodes, tagged(Edge, ends, weights)), s, t)
            scaled = min_cut(Graph(nodes, tagged(Edge, ends, ints)), s, t)
            assert type(scaled.value) is int
            assert scaled.value == cut.value * scale
            assert scaled.source_side == cut.source_side

            forbidden = rng.randrange(len(ends)) if ends and rng.random() < 0.5 else None
            path = shortest_path(Graph(nodes, tagged(Edge, ends, weights)), s, t, forbidden)
            scaled_path = shortest_path(Graph(nodes, tagged(Edge, ends, ints)), s, t, forbidden)
            if path is None:
                assert scaled_path is None
                continue
            paths += 1
            assert type(scaled_path.length) is int
            assert scaled_path.length == path.length * scale
            assert [e.tag for e in scaled_path.edges] == [e.tag for e in path.edges]
        assert paths >= 100
