"""Exact rational LP solver.

Dense two-phase simplex with Bland's pivot rule, so termination needs no
tolerances and results are deterministic.  Only ``a . x <= rhs``
constraints are accepted; callers encode lower bounds and equations as
inequality pairs.  Variables are free by default and split into positive
and negative parts internally; ``nonneg=True`` skips the split for callers
whose constraint set already implies ``x >= 0``.

The tableau holds Python integers over one common denominator ``D``, the
absolute determinant of the current basis (integer-preserving pivoting,
Edmonds 1967; Bareiss 1968).  Each input row and the objective are first
scaled by the lcm of their denominators.  A positive row scale only
rescales that row's slack and artificial variable, so reduced-cost signs
and ratio orderings, and with them Bland's pivot path, are those of the
rational tableau.  Pivoting on ``p = T[r][c]`` keeps row ``r`` and sets
every other row (the objective row included) to
``(T[i] * p - T[i][c] * T[r]) / D``, a division that is always exact;
``p`` becomes the new ``D``.  Fractions are built only for the returned
value and point.

Every optimal solve is certified before returning: the simplex multipliers
are read off the final reduced costs and checked, in integers, as an exact
feasible dual with matching objective value.  A failed certificate raises
InternalConsistencyError since it can only mean a solver bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import (
    Cut,
    InternalConsistencyError,
    LpInfeasibleError,
    LpUnboundedError,
    box_rows,
)


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpResult:
    status: LpStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """``values`` times the lcm of their denominators, and that lcm."""
    if all(type(v) is int for v in values):
        return list(values), 1
    fracs = [Fraction(v) for v in values]
    scale = lcm(*[f.denominator for f in fracs])
    return [f.numerator * (scale // f.denominator) for f in fracs], scale


def _pivot(tab: list[list[int]], basis: list[int], den: int, row: int, col: int,
           obj: list[int] | None = None) -> int:
    """Pivot on ``tab[row][col]`` (also updating ``obj``); returns the new D."""
    prow = tab[row]
    p = prow[col]
    if p < 0:
        # negating the pivot row first keeps the new denominator positive
        prow = tab[row] = [-v for v in prow]
        p = -p
    rows = tab if obj is None else tab + [obj]
    for r, cur in enumerate(rows):
        if r == row:
            continue
        f = cur[col]
        if f:
            cur[:] = [(a * p - f * b) // den for a, b in zip(cur, prow)]
        elif p != den:
            cur[:] = [a * p // den for a in cur]
    basis[row] = col
    return p


def _price(tab: list[list[int]], basis: list[int], den: int, cost: list[int]) -> list[int]:
    """Reduced-cost row for ``cost`` over ``den``; last entry is the negated objective."""
    obj = [den * c for c in cost] + [0]
    for r, bcol in enumerate(basis):
        cb = cost[bcol]
        if cb:
            obj = [o - cb * v for o, v in zip(obj, tab[r])]
    return obj


def _run_simplex(tab, basis, den: int, obj, allowed) -> tuple[bool, int]:
    """Bland pivoting until optimal (True) or unbounded (False); returns the final D too."""
    width = len(obj) - 1
    while True:
        enter = -1
        for j in range(width):
            if allowed[j] and obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return True, den
        leave = -1
        best_num = best_den = 0
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    best_num, best_den, leave = row[-1], a, r
                    continue
                # ratios row[-1] / a compared by cross-multiplication
                lhs = row[-1] * best_den
                rhs = best_num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    best_num, best_den, leave = row[-1], a, r
        if leave < 0:
            return False, den
        den = _pivot(tab, basis, den, leave, enter, obj)


def lp_solve(
    rows: Sequence[Sequence],
    rhs: Sequence,
    objective: Sequence,
    *,
    nonneg: bool = False,
) -> LpResult:
    """Maximize ``objective . x`` subject to ``rows[j] . x <= rhs[j]``."""
    n = len(objective)
    if any(len(row) != n for row in rows):
        raise ValueError("row length does not match objective length")
    m = len(rows)
    # a[j] = row j and rhs j scaled to integers by s_j > 0
    scaled = [_integer_row(list(rows[j]) + [rhs[j]]) for j in range(m)]
    a = [row for row, _ in scaled]
    # maximize cprime, the objective scaled to integers by cscale > 0
    cprime, cscale = _integer_row(objective)

    struct = n if nonneg else 2 * n
    width = struct + m

    negated = [a[j][-1] < 0 for j in range(m)]
    art_rows = [j for j in range(m) if negated[j]]
    total = width + len(art_rows)

    tab: list[list[int]] = []
    for j in range(m):
        body = a[j][:n]
        if not nonneg:
            body += [-v for v in body]
        slack = [0] * m
        slack[j] = 1
        b = a[j][-1]
        if negated[j]:
            body = [-v for v in body]
            slack[j] = -1
            b = -b
        tab.append(body + slack + [0] * len(art_rows) + [b])
    for k, j in enumerate(art_rows):
        tab[j][width + k] = 1

    basis = [width + art_rows.index(j) if negated[j] else struct + j for j in range(m)]
    allowed = [True] * total
    den = 1

    if art_rows:
        # Artificial k carries s_j times its rational counterpart, so the
        # phase-1 cost -L/s_j (L the lcm of those scales) is L times the
        # rational phase-1 objective and keeps every reduced-cost sign.
        art_lcm = lcm(*[scaled[j][1] for j in art_rows])
        cost1 = [0] * total
        for k, j in enumerate(art_rows):
            cost1[width + k] = -(art_lcm // scaled[j][1])
        obj = _price(tab, basis, den, cost1)
        bounded, den = _run_simplex(tab, basis, den, obj, allowed)
        if not bounded:
            raise InternalConsistencyError("phase 1 cannot be unbounded")
        if obj[-1] > 0:
            return LpResult(LpStatus.INFEASIBLE)
        # Drive leftover artificials out of the basis.  The slack columns
        # are a signed identity, so no row is zero on the first width
        # columns and no row is ever redundant.
        for r in range(len(tab)):
            if basis[r] >= width:
                pcol = next((j for j in range(width) if tab[r][j] != 0), None)
                if pcol is None:
                    raise InternalConsistencyError("tableau row vanished on the slack columns")
                den = _pivot(tab, basis, den, r, pcol)
        for k in range(len(art_rows)):
            allowed[width + k] = False

    cost2 = [0] * total
    cost2[:n] = cprime
    if not nonneg:
        cost2[n:struct] = [-c for c in cprime]
    obj = _price(tab, basis, den, cost2)
    bounded, den = _run_simplex(tab, basis, den, obj, allowed)
    if not bounded:
        return LpResult(LpStatus.UNBOUNDED)

    assign = [0] * total
    for r, bcol in enumerate(basis):
        assign[bcol] = tab[r][-1]
    # xnum = den * x
    xnum = assign[:n] if nonneg else [assign[i] - assign[n + i] for i in range(n)]

    _certify(a, cprime, nonneg, obj, struct, den, xnum)
    vprime = Fraction(-obj[-1], den * cscale)
    point = tuple([Fraction(v, den) for v in xnum])
    return LpResult(LpStatus.OPTIMAL, vprime, point)


def solve_relaxation(
    A: Sequence[Sequence[int]],
    b: Sequence[int],
    lower_present: Sequence[bool],
    upper_present: Sequence[bool],
    cuts: Sequence[Cut],
    objective: Sequence,
    *,
    nonneg: bool = False,
) -> LpResult:
    """Maximize ``objective . x`` over ``A x <= b``, the present bound rows and the cuts.

    The rows are stacked in that order (the bound rows as ``core.box_rows``
    writes them), which fixes Bland's pivot path.  Returns the optimal
    result; an empty or unbounded relaxation raises LpInfeasibleError or
    LpUnboundedError.
    """
    brows, brhs = box_rows(lower_present, upper_present)
    rows = [*A, *brows, *[c.coeffs for c in cuts]]
    rhs = [*b, *brhs, *[c.rhs for c in cuts]]
    res = lp_solve(rows, rhs, objective, nonneg=nonneg)
    if res.status is LpStatus.INFEASIBLE:
        raise LpInfeasibleError("the relaxation is empty")
    if res.status is LpStatus.UNBOUNDED:
        raise LpUnboundedError("the relaxation optimum is unbounded")
    return res


def _certify(a, cprime, nonneg, obj, struct, den, xnum):
    """Exact optimality certificate from the final reduced costs, in integers.

    ``a`` holds the scaled rows with their right-hand sides last; ``obj``
    and ``xnum`` are over the common denominator ``den``.  The multiplier
    of row j is the negated reduced cost of its slack column, so
    ``y = -obj[slack]`` is ``den`` times the dual of the scaled system; the
    formula is unaffected by rows that were flipped for phase 1 because
    flipping negates both the column and the multiplier.
    """
    n = len(cprime)
    m = len(a)
    duals = [-obj[struct + j] for j in range(m)]
    if any(y < 0 for y in duals):
        raise InternalConsistencyError("negative dual multiplier")
    # y^T [A | b], accumulated over the rows with a nonzero multiplier
    ya = [0] * (n + 1)
    for y, row in zip(duals, a):
        if y:
            ya = [s + y * v for s, v in zip(ya, row)]
    for i in range(n):
        target = den * cprime[i]
        if nonneg:
            if ya[i] < target:
                raise InternalConsistencyError("dual constraint violated")
        elif ya[i] != target:
            raise InternalConsistencyError("dual equality violated")
    if ya[n] != -obj[-1]:
        raise InternalConsistencyError("duality gap in certificate")
    for row in a:
        if sum([v * x for v, x in zip(row, xnum)]) > den * row[-1]:
            raise InternalConsistencyError("returned point violates a row")
    if nonneg and any(v < 0 for v in xnum):
        raise InternalConsistencyError("returned point has a negative coordinate")
