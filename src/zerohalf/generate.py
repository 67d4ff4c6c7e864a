"""Seeded random cases for the test suites and the gen subcommand.

All generators take an explicit random.Random so identical seeds give
identical cases.  Instances are built backwards from a feasible integral
point: the right-hand side is the row value at that point plus a small
slack drawn from {0, 1, 2}, which guarantees feasibility and produces a
healthy mix of tight, slack-one and slack-two rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import IlpInstance, Point, ZeroHalfError
from .matching import WeightedGraph

PROFILES = ("col2", "row2", "mixed")

_ODD = (1, 1, 3, -1)
_EVEN = (0, 0, 0, 2, -2)


@dataclass(frozen=True)
class PrimalCase:
    instance: IlpInstance
    xhat: Point
    xstar: Point


def _matrix(rng: random.Random, m: int, n: int, profile: str) -> tuple[tuple[int, ...], ...]:
    if profile == "col2":
        cols = []
        for _ in range(n):
            odd = rng.sample(range(m), rng.randrange(0, 3))
            cols.append(
                [rng.choice(_ODD) if j in odd else rng.choice(_EVEN) for j in range(m)]
            )
        return tuple(tuple(cols[i][j] for i in range(n)) for j in range(m))
    if profile == "row2":
        rows = []
        for _ in range(m):
            odd = rng.sample(range(n), rng.randrange(0, 3))
            rows.append(
                tuple(rng.choice(_ODD) if i in odd else rng.choice(_EVEN) for i in range(n))
            )
        return tuple(rows)
    if profile == "mixed":
        return tuple(
            tuple(rng.choice((-2, -1, 0, 0, 1, 1, 2, 3)) for _ in range(n))
            for _ in range(m)
        )
    raise ZeroHalfError(f"unknown profile {profile!r}; expected one of {PROFILES}")


def _fractional_point(rng: random.Random, inst: IlpInstance, xhat) -> Point | None:
    """A feasible fractional point near xhat, or None after 80 tries."""
    for _ in range(80):
        pt = []
        for i in range(inst.n):
            step = Fraction(rng.choice((0, 0, 1, 1, 2)), 4)
            pt.append(Fraction(xhat[i]) + (step if xhat[i] == 0 else -step))
        pt = tuple(pt)
        if all(v.denominator == 1 for v in pt):
            continue
        if inst.feasibility_failure(pt) is None:
            return pt
    return None


def gen_primal_case(
    rng: random.Random,
    rows: int | None = None,
    cols: int | None = None,
    profile: str = "mixed",
) -> PrimalCase:
    """An instance with a feasible integral xhat and fractional xstar.

    col2 keeps every column at no more than two odd entries, row2 does the
    same per row, mixed applies no parity control.  Box flags are thinned
    at random.  Sizes default to the ranges the oracle suites use; a given
    size below 1 is rejected before anything is drawn.
    """
    for name, size in (("rows", rows), ("cols", cols)):
        if size is not None and size < 1:
            raise ZeroHalfError(f"{name} must be at least 1, got {size}")
    for _ in range(200):
        m = rows if rows is not None else rng.randrange(2, 9)
        n = cols if cols is not None else rng.randrange(2, 7)
        A = _matrix(rng, m, n, profile)
        lower = tuple(rng.random() < 0.85 for _ in range(n))
        upper = tuple(rng.random() < 0.85 for _ in range(n))
        xhat = tuple(Fraction(rng.randrange(2)) for _ in range(n))
        b = tuple(
            sum(a * x for a, x in zip(row, xhat)) + rng.choice((0, 0, 1, 1, 2))
            for row in A
        )
        inst = IlpInstance(A, b, lower, upper)
        xstar = _fractional_point(rng, inst, xhat)
        if xstar is not None:
            return PrimalCase(inst, xhat, xstar)
    raise ZeroHalfError("no fractional feasible point found; sizes too tight")


def gen_sandwich_case(rng: random.Random) -> IlpInstance:
    """A boxed instance with b >= 1 and a nonnegative objective."""
    m = rng.randrange(1, 8)
    n = rng.randrange(1, 6)
    A = tuple(
        tuple(rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(m)
    )
    return IlpInstance(
        A=A,
        b=tuple(rng.randrange(1, 6) for _ in range(m)),
        lower_present=(True,) * n,
        upper_present=(True,) * n,
        objective=tuple(rng.randrange(0, 5) for _ in range(n)),
    )


def gen_graph(rng: random.Random, max_nodes: int = 7) -> WeightedGraph:
    """A random weighted graph with edge probability about one half."""
    nodes = rng.randrange(2, max_nodes + 1)
    edges = []
    for u in range(nodes):
        for v in range(u + 1, nodes):
            if rng.random() < 0.5:
                edges.append((u, v, rng.randrange(0, 6)))
    return WeightedGraph(nodes, tuple(edges))
