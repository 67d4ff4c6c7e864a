"""Reference file parsers for differential tests: the former per-token code.

These are the ``_Tokens`` tokenizer and the ``parse_instance``,
``parse_point`` and ``parse_graph`` that ``zerohalf.cli`` ran before it
read integer runs in bulk.  The tokenizer records the column of every
token as it goes, and every integer goes through its own ``take`` and
``int()`` call.  They raise the package's ``FileFormatError``, so the
package must return the same value, or raise the same exception with the
same message, on every input.  Kept only as a test oracle; nothing in the
package imports it.
"""

from __future__ import annotations

from fractions import Fraction

from zerohalf.cli import FileFormatError
from zerohalf.core import IlpInstance, Point
from zerohalf.matching import WeightedGraph


class _Tokens:
    """Whitespace-separated tokens with positions; # starts a comment."""

    def __init__(self, text: str, source: str):
        self.source = source
        self.items: list[tuple[str, int, int]] = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0]
            col = 0
            for tok in line.split():
                col = line.index(tok, col)
                self.items.append((tok, lineno, col + 1))
                col += len(tok)
        self.pos = 0

    def _fail(self, message: str, at: tuple[str, int, int] | None) -> FileFormatError:
        if at is None:
            return FileFormatError(f"{self.source}: {message} at end of file")
        tok, line, col = at
        return FileFormatError(f"{self.source}: line {line} column {col}: {message}, found {tok!r}")

    def take(self, what: str) -> tuple[str, int, int]:
        if self.pos >= len(self.items):
            raise self._fail(f"expected {what}", None)
        item = self.items[self.pos]
        self.pos += 1
        return item

    def keyword(self, word: str) -> None:
        item = self.take(word)
        if item[0] != word:
            raise self._fail(f"expected {word}", item)

    def integer(self, what: str, minimum: int | None = None) -> int:
        item = self.take(what)
        try:
            value = int(item[0])
        except ValueError:
            raise self._fail(f"expected {what} (an integer)", item) from None
        if minimum is not None and value < minimum:
            raise self._fail(f"expected {what} of at least {minimum}", item)
        return value

    def fraction(self, what: str) -> Fraction:
        item = self.take(what)
        try:
            return Fraction(item[0])
        except (ValueError, ZeroDivisionError):
            raise self._fail(f"expected {what} (integer or p/q)", item) from None

    def flag(self, what: str) -> bool:
        item = self.take(what)
        if item[0] not in ("0", "1"):
            raise self._fail(f"expected {what} (0 or 1)", item)
        return item[0] == "1"

    def finish(self) -> None:
        if self.pos < len(self.items):
            raise self._fail("expected end of file", self.items[self.pos])


def parse_instance(text: str, source: str = "instance") -> IlpInstance:
    t = _Tokens(text, source)
    t.keyword("ROWS")
    m = t.integer("row count", minimum=1)
    t.keyword("COLS")
    n = t.integer("column count", minimum=1)
    t.keyword("A")
    A = tuple(
        [tuple([t.integer(f"A[{j + 1}][{i + 1}]") for i in range(n)]) for j in range(m)]
    )
    t.keyword("B")
    b = tuple([t.integer(f"B[{j + 1}]") for j in range(m)])
    t.keyword("LOWER")
    lower = tuple([t.flag(f"LOWER[{i + 1}]") for i in range(n)])
    t.keyword("UPPER")
    upper = tuple([t.flag(f"UPPER[{i + 1}]") for i in range(n)])
    objective = None
    item = t.take("OBJ or END")
    if item[0] == "OBJ":
        objective = tuple([t.integer(f"OBJ[{i + 1}]") for i in range(n)])
        item = t.take("END")
    if item[0] != "END":
        raise t._fail("expected END", item)
    t.finish()
    return IlpInstance(A, b, lower, upper, objective)


def parse_point(text: str, n: int, source: str = "point") -> Point:
    t = _Tokens(text, source)
    pt = tuple([t.fraction(f"coordinate {i + 1}") for i in range(n)])
    t.finish()
    return pt


def parse_graph(text: str, source: str = "graph") -> WeightedGraph:
    t = _Tokens(text, source)
    t.keyword("NODES")
    k = t.integer("node count", minimum=0)
    t.keyword("EDGES")
    m = t.integer("edge count", minimum=0)
    edges = []
    first: dict[frozenset[int], int] = {}  # endpoints -> number of the first such edge
    for e in range(1, m + 1):
        u = t.integer(f"edge {e} endpoint")
        v = t.integer(f"edge {e} endpoint")
        w = t.integer(f"edge {e} weight")
        if not (1 <= u <= k and 1 <= v <= k):
            raise FileFormatError(f"{source}: edge {e}: endpoints are 1..{k}, got {u} {v}")
        if u == v:
            raise FileFormatError(f"{source}: edge {e}: loop at node {u}")
        key = frozenset((u, v))
        if key in first:
            raise FileFormatError(
                f"{source}: edge {e}: {u} {v} repeats edge {first[key]}"
            )
        first[key] = e
        edges.append((u - 1, v - 1, w))
    t.finish()
    return WeightedGraph(k, tuple(edges))
