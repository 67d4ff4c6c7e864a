"""Differential tests: the file parsers against the former per-token code.

``reference_cli`` holds the parsers that ``zerohalf.cli`` ran before it read
integer runs in bulk.  Valid files are mutated (a token replaced by a
non-integer, a signed or grouped integer or a fraction; tokens dropped or
added; comments, tabs and blank lines added) and both parsers must return
the same value, or raise the same exception with the same message.
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

import reference_cli as ref

_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# tokens that int() or Fraction() read differently, or not at all
_ODD_TOKENS = ["x", "1.5", "+3", "1_000", "3/4", "-0", "1/0", "3/-4", "07", "2", "0", "1",
               "-1", "END", "OBJ"]

_small = st.integers(-3, 3)


@st.composite
def _instances(draw) -> IlpInstance:
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return IlpInstance(
        A=draw(st.tuples(*[st.tuples(*[_small] * n)] * m)),
        b=draw(st.tuples(*[_small] * m)),
        lower_present=draw(st.tuples(*[st.booleans()] * n)),
        upper_present=draw(st.tuples(*[st.booleans()] * n)),
        objective=draw(st.none() | st.tuples(*[_small] * n)),
    )


@st.composite
def _graphs(draw) -> WeightedGraph:
    k = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return WeightedGraph(k, tuple((u, v, draw(_small)) for u, v in chosen))


@st.composite
def _mutated(draw, text: str) -> str:
    """``text`` with a few token, comment and whitespace edits."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        j = draw(st.integers(0, len(lines) - 1))
        line = lines[j]
        kind = draw(st.sampled_from(["replace", "drop", "add", "comment", "blank"]))
        k = draw(st.integers(0, len(line)))
        if kind == "replace" and line:
            line[min(k, len(line) - 1)] = draw(st.sampled_from(_ODD_TOKENS))
        elif kind == "drop" and line:
            del line[min(k, len(line) - 1)]
        elif kind == "add":
            line.insert(k, draw(st.sampled_from(_ODD_TOKENS)))
        elif kind == "comment":
            line.insert(k, "#" + draw(st.sampled_from(["", " 1 2", "x#3"])))
        else:
            lines.insert(j, [])
    seps = st.sampled_from([" ", "  ", "\t", " \t"])
    out = [draw(st.sampled_from(["", " ", "\t"])) + draw(seps).join(line) for line in lines]
    return "\n".join(out) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _outcome(parse, *args):
    try:
        return ("ok", parse(*args))
    except Exception as exc:
        return (type(exc), str(exc))


@_SETTINGS
@given(st.data())
def test_instance_parser_matches_the_per_token_code(data):
    text = data.draw(_mutated(format_instance(data.draw(_instances()))))
    assert _outcome(parse_instance, text) == _outcome(ref.parse_instance, text)


@_SETTINGS
@given(st.data())
def test_point_parser_matches_the_per_token_code(data):
    values = data.draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=1, max_size=5))
    text = data.draw(_mutated(format_point([Fraction(v) for v in values])))
    assert _outcome(parse_point, text, len(values)) == _outcome(ref.parse_point, text, len(values))


@_SETTINGS
@given(st.data())
def test_graph_parser_matches_the_per_token_code(data):
    text = data.draw(_mutated(format_graph(data.draw(_graphs()))))
    assert _outcome(parse_graph, text) == _outcome(ref.parse_graph, text)


def test_graph_edge_errors_come_before_a_later_bad_token():
    # edge 1 is a loop and edge 2 has a non-integer weight: the loop is
    # reported, as when each edge was checked right after its own tokens
    text = "NODES 3\nEDGES 2\n1 1 4\n2 3 x\n"
    assert _outcome(parse_graph, text) == _outcome(ref.parse_graph, text)
    assert "edge 1: loop at node 1" in _outcome(parse_graph, text)[1]
