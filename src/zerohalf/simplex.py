"""Exact rational LP solver.

Dense simplex with Bland's pivot rule, so termination needs no tolerances
and results are deterministic.  Constraints are ``a . x <= rhs`` rows plus
the 0/1 box, given per coordinate by the flags ``lower_present``
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
rescales that row's slack variable, so reduced-cost signs and ratio
orderings, and with them Bland's pivot path, are those of the rational
tableau.  Pivoting on ``p = T[r][c]`` keeps row ``r`` and sets every other
row (the objective row included) to ``(T[i] * p - T[i][c] * T[r]) / D``, a
division that is always exact; ``p`` becomes the new ``D``.  Fractions are
built only for the returned value and point.

Dual simplex.  On a dual feasible tableau (no positive reduced cost),
bounded dual simplex pivots restore primal feasibility: a basic variable
above its bound of 1 has its row complemented first, the leaving row is
the infeasible one with the smallest basic index, and the entering column
has the smallest ratio ``-obj[j] / -T[r][j]`` over the columns with
``T[r][j] < 0``, ties to the smallest ``j`` (Bland's rule applied to the
dual, so it cannot cycle).  A leaving row with no entering column proves
the LP infeasible.  The ratio of two entries of one column does not change
with that column's scale, so this path too is that of the rational tableau.

Phase 1.  A cold solve starts from the slack basis with ``D = 1``.  When a
right-hand side is negative, the cost clipped at 0 (``min(c_j, 0)`` for
each column) is dual feasible there, and dual simplex pivots on it reach a
feasible basis or prove that there is none (the cost-modification phase 1
of Koberstein & Suhl 2007).  The real cost is then priced on that basis
and phase 2 runs as usual.  No artificial column is ever added.

Warm re-optimisation.  An optimal result carries its final tableau, and
``add_cut`` adds one row ``a . x <= b`` to it without solving from scratch
(the primal cutting-plane loop of Letchford & Lodi 2002, "Primal cutting
plane algorithms revisited").  The row is written in the columns' current
orientation and over the same ``D``, then reduced against the basis with
integer row operations, ``D * row - row[b] * T[r]`` for each basic column
``b`` in row ``r``; its new slack is basic in it with entry ``D``.  The new
basis has the same determinant, so ``D`` and the exact division of later
pivots carry over.  The old basis stays dual feasible, so the dual simplex
restores primal feasibility.

Every optimum, cold or warm, is certified before returning: the row
multipliers and the bound duals of the flipped columns are read off the
final reduced costs and checked, in integers, as an exact feasible dual
whose value equals that of the returned point.  A failed certificate raises
InternalConsistencyError since it can only mean a solver bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class LpState:
    """Final integer tableau of an optimal solve, the starting point of ``add_cut``.

    Columns are the structural ones (``x_i``, then ``x-_i`` of the free
    coordinates), then one slack per row in row order (the input rows, then
    the added ones), then the right-hand side.  ``a`` holds the scaled rows
    with their right-hand sides last, in input coordinates, and ``cprime``
    the objective scaled by ``cscale``.
    """

    tab: list[list[int]]
    basis: list[int]
    den: int
    obj: list[int]
    has_upper: list[bool]
    flipped: list[bool]
    a: list[list[int]]
    cprime: list[int]
    cscale: int
    lower: list[bool]
    upper: list[bool]
    free: list[int]


@dataclass(frozen=True)
class LpResult:
    """Status, value and point of one solve.

    ``pivots`` counts the pivots and bound flips the solve took; an optimal
    result also carries its final tableau for ``add_cut``.  Neither takes
    part in comparisons.
    """

    status: LpStatus
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    pivots: int = field(default=0, compare=False)
    _state: LpState | None = field(default=None, compare=False, repr=False)


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


def _run_simplex(tab, basis, den: int, obj, has_upper, flipped) -> tuple[bool, int, int]:
    """Bland pivoting until optimal (True) or unbounded (False).

    Also returns the final D and the number of pivots and bound flips.

    ``has_upper[j]`` marks the columns with an upper bound of 1 and
    ``flipped[j]`` those currently written as ``1 - x_j``; both flips and
    complemented rows update ``flipped`` in place.
    """
    width = len(obj) - 1
    steps = 0
    while True:
        enter = -1
        for j in range(width):
            if obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return True, den, steps
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
            steps += 1
            continue
        if leave < 0:
            return False, den, steps
        if tab[leave][enter] < 0:
            # the basic variable leaves at its upper bound
            _complement(tab[leave], basis[leave], den, flipped)
        den = _pivot(tab, basis, den, leave, enter, obj)
        steps += 1


def _complement(row: list[int], out: int, den: int, flipped: list[bool]) -> None:
    """Substitute ``1 - x`` for the basic variable ``out`` of ``row``.

    Its column is zero in every other row and in the reduced costs, so only
    this row changes; a value above the bound of 1 becomes one below 0.
    """
    row[:] = [-v for v in row]
    row[out] = den
    row[-1] += den
    flipped[out] = not flipped[out]


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
    a = [_integer_row(list(rows[j]) + [rhs[j]])[0] for j in range(m)]
    # maximize cprime, the objective scaled to integers by cscale > 0
    cprime, cscale = _integer_row(objective)

    # columns: x_i (x+_i for a free coordinate), then x-_i of the free
    # coordinates and the slacks, which form the starting basis with D = 1
    free = [i for i in range(n) if not lower[i]]
    struct = n + len(free)
    width = struct + m
    tab: list[list[int]] = []
    for j in range(m):
        row = a[j][:n] + [-a[j][i] for i in free] + [0] * m + [a[j][-1]]
        row[struct + j] = 1
        tab.append(row)
    basis = list(range(struct, width))
    has_upper = upper + [False] * (width - n)
    flipped = [False] * width
    den = 1
    pivots = 0
    cost = cprime + [-cprime[i] for i in free] + [0] * m

    if any(row[-1] < 0 for row in tab):
        # phase 1: the cost clipped at 0 is dual feasible at the slack basis
        obj = _price(tab, basis, den, [min(c, 0) for c in cost])
        feasible, den, pivots = _run_dual_simplex(tab, basis, den, obj, has_upper, flipped)
        if not feasible:
            return LpResult(LpStatus.INFEASIBLE, pivots=pivots)

    # the objective in the columns' current orientation: a flipped column
    # 1 - x_j carries -c_j and moves c_j into the constant term
    obj = _price(tab, basis, den, [-c if f else c for c, f in zip(cost, flipped)])
    obj[-1] -= den * sum([c for c, f in zip(cost, flipped) if f])
    bounded, den, steps = _run_simplex(tab, basis, den, obj, has_upper, flipped)
    pivots += steps
    if not bounded:
        return LpResult(LpStatus.UNBOUNDED, pivots=pivots)
    state = LpState(tab, basis, den, obj, has_upper, flipped, a, cprime, cscale, lower, upper,
                    free)
    return _optimum(state, pivots)


def _optimum(state: LpState, pivots: int) -> LpResult:
    """The certified optimal result read off an optimal tableau."""
    n = len(state.cprime)
    struct = n + len(state.free)
    den, obj, flipped = state.den, state.obj, state.flipped
    # den times each structural variable, back in its own orientation
    assign = [0] * struct
    for r, bcol in enumerate(state.basis):
        if bcol < struct:
            assign[bcol] = state.tab[r][-1]
    values = [den - v if f else v for v, f in zip(assign, flipped)]
    xnum = values[:n]
    for k, i in enumerate(state.free):
        xnum[i] -= values[n + k]

    duals = [-v for v in obj[struct:-1]]
    bound_duals = [-obj[i] if flipped[i] else 0 for i in range(n)]
    _certify(state.a, state.cprime, state.lower, state.upper, duals, bound_duals, -obj[-1],
             den, xnum)
    value = Fraction(-obj[-1], den * state.cscale)
    point = tuple([Fraction(v, den) for v in xnum])
    return LpResult(LpStatus.OPTIMAL, value, point, pivots, state)


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


def add_cut(res: LpResult, cut: Cut) -> LpResult:
    """Re-optimise the optimal ``res`` with the row ``cut.coeffs . x <= cut.rhs`` added.

    Starts from the final tableau of ``res`` (left unchanged) and runs
    bounded dual simplex pivots; the result, which carries its own tableau,
    equals in status and value that of ``lp_solve`` on the stacked rows,
    though on tied optima the point may differ.  An empty result raises
    LpInfeasibleError as ``solve_relaxation`` does.  Raises ValueError when
    ``res`` has no tableau or the cut does not match its coordinates.
    """
    old = res._state
    if old is None:
        raise ValueError("add_cut needs an optimal result of lp_solve or add_cut")
    n = len(old.cprime)
    if len(cut.coeffs) != n:
        raise ValueError(f"cut has {len(cut.coeffs)} coefficients for {n} coordinates")
    arow = [*cut.coeffs, cut.rhs]
    # the row over the structural columns in their current orientation
    body = arow[:n] + [-arow[i] for i in old.free]
    b = arow[-1]
    for j, v in enumerate(body):
        if v and old.flipped[j]:
            body[j] = -v
            b -= v
    den = old.den
    col = len(old.obj) - 1  # the new slack, inserted before the right-hand side
    tab = [[*row[:-1], 0, row[-1]] for row in old.tab]
    new = [den * v for v in body] + [0] * (col - len(body)) + [den, den * b]
    for r, bcol in enumerate(old.basis):
        f = body[bcol] if bcol < len(body) else 0
        if f:
            new = [x - f * t for x, t in zip(new, tab[r])]
    tab.append(new)
    basis = old.basis + [col]
    obj = [*old.obj[:-1], 0, old.obj[-1]]
    flipped = old.flipped + [False]
    has_upper = old.has_upper + [False]
    feasible, den, pivots = _run_dual_simplex(tab, basis, den, obj, has_upper, flipped)
    if not feasible:
        raise LpInfeasibleError("the relaxation is empty")
    state = LpState(tab, basis, den, obj, has_upper, flipped, old.a + [arow], old.cprime,
                    old.cscale, old.lower, old.upper, old.free)
    return _optimum(state, pivots)


def _run_dual_simplex(tab, basis, den: int, obj, has_upper,
                      flipped) -> tuple[bool, int, int]:
    """Dual Bland pivoting on a dual feasible tableau until primal feasible (True).

    Returns False when a leaving row has no entering column, which proves
    the LP infeasible; also returns the final D and the number of pivots.
    Takes the arguments of ``_run_simplex`` and updates them in place.
    """
    width = len(obj) - 1
    pivots = 0
    while True:
        leave = -1
        for r, row in enumerate(tab):
            v = row[-1]
            if (v < 0 or (v > den and has_upper[basis[r]])) and (
                    leave < 0 or basis[r] < basis[leave]):
                leave = r
        if leave < 0:
            return True, den, pivots
        row = tab[leave]
        if row[-1] > den:
            _complement(row, basis[leave], den, flipped)
        # smallest ratio obj[j] / row[j] (both nonpositive), compared by
        # cross-multiplication; ties keep the smallest column
        enter = -1
        best_num = best_den = 0
        for j in range(width):
            t = row[j]
            if t < 0 and (enter < 0 or obj[j] * best_den < best_num * t):
                enter, best_num, best_den = j, obj[j], t
        if enter < 0:
            return False, den, pivots
        den = _pivot(tab, basis, den, leave, enter, obj)
        pivots += 1


def _certify(a, cprime, lower, upper, duals, bound_duals, value, den, xnum):
    """Exact optimality certificate, in integers.

    ``a`` holds the scaled rows with their right-hand sides last; every
    other argument is over the common denominator ``den``.  The multiplier
    of row j is the negated reduced cost of its slack column.  The bound
    dual of ``x_i <= 1`` is the negated reduced cost of a flipped column and
    0 otherwise.  Checks dual
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
