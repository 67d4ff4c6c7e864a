"""Property tests: every instance, point and graph survives format -> parse.

Derandomized, so every run draws the same examples.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from zerohalf.cli import (
    format_graph,
    format_instance,
    format_point,
    parse_graph,
    parse_instance,
    parse_point,
)
from zerohalf.core import IlpInstance
from zerohalf.matching import WeightedGraph

_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

_ints = st.integers(min_value=-10**6, max_value=10**6)


@st.composite
def instances(draw) -> IlpInstance:
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    row = st.tuples(*[_ints] * n)
    flags = st.tuples(*[st.booleans()] * n)
    return IlpInstance(
        A=draw(st.tuples(*[row] * m)),
        b=draw(st.tuples(*[_ints] * m)),
        lower_present=draw(flags),
        upper_present=draw(flags),
        objective=draw(st.none() | st.tuples(*[_ints] * n)),
    )


@st.composite
def graphs(draw) -> WeightedGraph:
    k = draw(st.integers(0, 7))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(_ints)))
    return WeightedGraph(k, tuple(edges))


@_SETTINGS
@given(instances())
def test_instance_round_trip(inst):
    assert parse_instance(format_instance(inst)) == inst


@_SETTINGS
@given(st.lists(st.fractions(max_denominator=10**4), min_size=1, max_size=8))
def test_point_round_trip(values):
    point = tuple(Fraction(v) for v in values)
    assert parse_point(format_point(point), len(point)) == point


@_SETTINGS
@given(graphs())
def test_graph_round_trip(graph):
    assert parse_graph(format_graph(graph)) == graph
