"""Seeded random cases for the test suites and the gen subcommand.

All generators take an explicit random.Random so identical seeds give
identical cases.  Primal cases are built backwards from their points: the
integral xhat, a fractional xstar near it and the parity pattern are drawn
first, then each row on its own.  A row's right-hand side is its value at
xhat plus a slack drawn once from {0, 1, 2}, which gives a healthy mix of
tight, slack-one and slack-two rows; its entries are redrawn until xstar
satisfies it too.  Rejecting one row at a time, not whole instances, keeps
the cost linear in the number of rows.
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
_MIXED = (-2, -1, 0, 0, 1, 1, 2, 3)
_SLACK = (0, 0, 1, 1, 2)


@dataclass(frozen=True)
class PrimalCase:
    instance: IlpInstance
    xhat: Point
    xstar: Point


def _odd_pattern(rng: random.Random, m: int, n: int, profile: str) -> list[list[bool]] | None:
    """Which entries of A are odd: at most two per column (col2) or row (row2).

    A draw of two odd entries in a line of length one takes the one entry.
    None for mixed, which applies no parity control.
    """
    if profile == "col2":
        odd = [[False] * n for _ in range(m)]
        for i in range(n):
            for j in rng.sample(range(m), min(rng.randrange(0, 3), m)):
                odd[j][i] = True
        return odd
    if profile == "row2":
        odd = []
        for _ in range(m):
            cols = rng.sample(range(n), min(rng.randrange(0, 3), n))
            odd.append([i in cols for i in range(n)])
        return odd
    if profile == "mixed":
        return None
    raise ZeroHalfError(f"unknown profile {profile!r}; expected one of {PROFILES}")


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
    m = rows if rows is not None else rng.randrange(2, 9)
    n = cols if cols is not None else rng.randrange(2, 7)
    xhat = [rng.randrange(2) for _ in range(n)]
    steps = [0] * n
    while not any(steps):
        steps = [rng.choice((0, 0, 1, 1, 2)) for _ in range(n)]
    # xstar in quarters, stepped from xhat into the box
    num4 = [4 * h + (s if h == 0 else -s) for h, s in zip(xhat, steps)]
    odd = _odd_pattern(rng, m, n, profile)
    A, b = [], []
    for j in range(m):
        slack = rng.choice(_SLACK)
        for _ in range(1000):
            if odd is None:
                row = tuple(rng.choice(_MIXED) for _ in range(n))
            else:
                row = tuple(rng.choice(_ODD if o else _EVEN) for o in odd[j])
            rhs = sum(a * x for a, x in zip(row, xhat)) + slack
            if sum(a * x for a, x in zip(row, num4)) <= 4 * rhs:
                break
        else:
            raise ZeroHalfError(f"row {j + 1} admitted xstar in none of 1000 draws")
        A.append(row)
        b.append(rhs)
    lower = tuple(rng.random() < 0.85 for _ in range(n))
    upper = tuple(rng.random() < 0.85 for _ in range(n))
    inst = IlpInstance(tuple(A), tuple(b), lower, upper)
    return PrimalCase(inst, tuple([Fraction(h) for h in xhat]),
                      tuple([Fraction(v, 4) for v in num4]))


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
