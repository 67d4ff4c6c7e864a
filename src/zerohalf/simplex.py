"""Exact rational LP solver.

Dense two-phase simplex with Bland's pivot rule, so termination needs no
tolerances and results are deterministic.  Constraints are ``a . x <= rhs``
rows plus the 0/1 box, given per coordinate by the flags ``lower_present``
(``0 <= x_i``) and ``upper_present`` (``x_i <= 1``) as ``IlpInstance``
names them; callers encode equations as inequality pairs.  The box takes no
row: a coordinate with its lower bound is one nonnegative column, one
without it is split into ``x+ - x-``, and an upper bound sits on ``x+``
alone, which is exactly ``x <= 1``.

Upper bounds are handled by the bounded-variable ratio test (Chvátal 1983,
*Linear Programming*, ch. 8).  Each column is kept in its current
orientation, ``x_j`` or ``1 - x_j``, so every nonbasic variable sits at 0.
The entering variable either pivots in, moves a basic variable to its
lower bound, or (when its own bound of 1 is strictly the shortest step)
flips: its column is negated in every row and ``T[i][j]`` is subtracted
from each right-hand side.  A basic variable that leaves at its upper bound
has its row complemented first, so the pivot is an ordinary one.  Bland's
rule picks the smallest improving oriented column, and row ties go to the
smallest basis index.

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

Every optimal solve is certified before returning: the row multipliers and
the bound duals of the flipped columns are read off the final reduced costs
and checked, in integers, as an exact feasible dual whose value equals that
of the returned point.  A failed certificate raises
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


def _flip(tab: list[list[int]], obj: list[int], col: int) -> None:
    """Substitute ``1 - x`` for the nonbasic variable of ``col`` in every row."""
    for row in tab + [obj]:
        v = row[col]
        if v:
            row[col] = -v
            row[-1] -= v


def _run_simplex(tab, basis, den: int, obj, allowed, has_upper, flipped) -> tuple[bool, int]:
    """Bland pivoting until optimal (True) or unbounded (False); returns the final D too.

    ``has_upper[j]`` marks the columns with an upper bound of 1 and
    ``flipped[j]`` those currently written as ``1 - x_j``; both flips and
    complemented rows update ``flipped`` in place.
    """
    width = len(obj) - 1
    while True:
        enter = -1
        for j in range(width):
            if allowed[j] and obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return True, den
        # ratio best_num / best_den of the shortest step, compared by
        # cross-multiplication; a row whose basic variable would rise
        # leaves at its upper bound after (D - rhs) / -a
        leave = -1
        best_num = best_den = 0
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                num, step = row[-1], a
            elif a < 0 and has_upper[basis[r]]:
                num, step = den - row[-1], -a
            else:
                continue
            if leave < 0:
                best_num, best_den, leave = num, step, r
                continue
            lhs = num * best_den
            rhs = best_num * step
            if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                best_num, best_den, leave = num, step, r
        if has_upper[enter] and (leave < 0 or best_den < best_num):
            # the entering variable reaches its own bound of 1 first
            _flip(tab, obj, enter)
            flipped[enter] = not flipped[enter]
            continue
        if leave < 0:
            return False, den
        row = tab[leave]
        if row[enter] < 0:
            # complement the row of the basic variable leaving at its upper bound
            out = basis[leave]
            row[:] = [-v for v in row]
            row[out] = den
            row[-1] += den
            flipped[out] = not flipped[out]
        den = _pivot(tab, basis, den, leave, enter, obj)


def lp_solve(
    rows: Sequence[Sequence],
    rhs: Sequence,
    objective: Sequence,
    *,
    lower_present: Sequence[bool] | None = None,
    upper_present: Sequence[bool] | None = None,
) -> LpResult:
    """Maximize ``objective . x`` subject to ``rows[j] . x <= rhs[j]`` and the box.

    ``lower_present[i]`` adds ``0 <= x_i`` and ``upper_present[i]`` adds
    ``x_i <= 1``; an omitted flag sequence means no such bound anywhere.
    Raises ValueError when ``rhs``, a row or a flag sequence does not match
    the number of rows or coordinates.
    """
    n = len(objective)
    if any(len(row) != n for row in rows):
        raise ValueError("row length does not match objective length")
    m = len(rows)
    if len(rhs) != m:
        raise ValueError(f"rhs has {len(rhs)} entries for {m} rows")
    lower = [False] * n if lower_present is None else [bool(v) for v in lower_present]
    upper = [False] * n if upper_present is None else [bool(v) for v in upper_present]
    if len(lower) != n or len(upper) != n:
        raise ValueError("box flags do not match objective length")
    # a[j] = row j and rhs j scaled to integers by s_j > 0
    scaled = [_integer_row(list(rows[j]) + [rhs[j]]) for j in range(m)]
    a = [row for row, _ in scaled]
    # maximize cprime, the objective scaled to integers by cscale > 0
    cprime, cscale = _integer_row(objective)

    # columns: x_i (x+_i for a free coordinate), then x-_i of the free
    # coordinates, the slacks and the artificials
    free = [i for i in range(n) if not lower[i]]
    struct = n + len(free)
    width = struct + m

    negated = [a[j][-1] < 0 for j in range(m)]
    art_rows = [j for j in range(m) if negated[j]]
    total = width + len(art_rows)

    tab: list[list[int]] = []
    for j in range(m):
        body = a[j][:n] + [-a[j][i] for i in free]
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
    has_upper = upper + [False] * (total - n)
    flipped = [False] * total
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
        bounded, den = _run_simplex(tab, basis, den, obj, allowed, has_upper, flipped)
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

    # the objective in the columns' current orientation: a flipped column
    # 1 - x_j carries -c_j and moves c_j into the constant term
    cost2 = [0] * total
    cost2[:struct] = [-c if f else c for c, f in zip(cprime, flipped)] + [-cprime[i] for i in free]
    obj = _price(tab, basis, den, cost2)
    obj[-1] -= den * sum([c for c, f in zip(cprime, flipped) if f])
    bounded, den = _run_simplex(tab, basis, den, obj, allowed, has_upper, flipped)
    if not bounded:
        return LpResult(LpStatus.UNBOUNDED)

    # den times each structural variable, back in its own orientation
    assign = [0] * total
    for r, bcol in enumerate(basis):
        assign[bcol] = tab[r][-1]
    values = [den - v if f else v for v, f in zip(assign[:struct], flipped)]
    xnum = values[:n]
    for k, i in enumerate(free):
        xnum[i] -= values[n + k]

    duals = [-obj[struct + j] for j in range(m)]
    bound_duals = [-obj[i] if flipped[i] else 0 for i in range(n)]
    _certify(a, cprime, lower, upper, duals, bound_duals, -obj[-1], den, xnum)
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
) -> LpResult:
    """Maximize ``objective . x`` over ``A x <= b``, the present bounds and the cuts.

    The rows of A and then the cuts are stacked in that order, which fixes
    Bland's pivot path; the bounds go to ``lp_solve`` as its box.  Returns
    the optimal result; an empty or unbounded relaxation raises
    LpInfeasibleError or LpUnboundedError.
    """
    rows = [*A, *[c.coeffs for c in cuts]]
    rhs = [*b, *[c.rhs for c in cuts]]
    res = lp_solve(rows, rhs, objective, lower_present=lower_present,
                   upper_present=upper_present)
    if res.status is LpStatus.INFEASIBLE:
        raise LpInfeasibleError("the relaxation is empty")
    if res.status is LpStatus.UNBOUNDED:
        raise LpUnboundedError("the relaxation optimum is unbounded")
    return res


def _certify(a, cprime, lower, upper, duals, bound_duals, value, den, xnum):
    """Exact optimality certificate, in integers.

    ``a`` holds the scaled rows with their right-hand sides last; every
    other argument is over the common denominator ``den``.  The multiplier
    of row j is the negated reduced cost of its slack column, unaffected by
    rows that were flipped for phase 1 because flipping negates both the
    column and the multiplier.  The bound dual of ``x_i <= 1`` is the
    negated reduced cost of a flipped column and 0 otherwise.  Checks dual
    feasibility (``y, w >= 0``, ``yA + w >= c`` with equality on free
    coordinates), that the dual value ``y.b + sum(w)`` and the point's value
    both equal ``value``, and that the point satisfies the rows and the box.
    """
    n = len(cprime)
    if any(y < 0 for y in duals):
        raise InternalConsistencyError("negative dual multiplier")
    if any(w < 0 or (w and not up) for w, up in zip(bound_duals, upper)):
        raise InternalConsistencyError("bound dual negative or on a missing bound")
    # y^T [A | b], accumulated over the rows with a nonzero multiplier
    ya = [0] * (n + 1)
    for y, row in zip(duals, a):
        if y:
            ya = [s + y * v for s, v in zip(ya, row)]
    for i in range(n):
        reduced = ya[i] + bound_duals[i] - den * cprime[i]
        if reduced < 0 or (reduced and not lower[i]):
            raise InternalConsistencyError("dual constraint violated")
    if ya[n] + sum(bound_duals) != value:
        raise InternalConsistencyError("duality gap in certificate")
    if sum([c * x for c, x in zip(cprime, xnum)]) != value:
        raise InternalConsistencyError("returned point does not attain the value")
    for row in a:
        if sum([v * x for v, x in zip(row, xnum)]) > den * row[-1]:
            raise InternalConsistencyError("returned point violates a row")
    for x, low, up in zip(xnum, lower, upper):
        if (low and x < 0) or (up and x > den):
            raise InternalConsistencyError("returned point leaves the box")
