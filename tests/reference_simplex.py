"""Reference LP solver for differential tests: the dense Fraction tableau.

This is the solver ``zerohalf.simplex`` used before it moved to integer
pivoting over a common denominator.  ``lp_solve`` follows the same phases
and Bland's rule on the same tableau: phase 1 runs dual simplex pivots on
the cost clipped at 0 from the slack basis, phase 2 primal pivots on the
real cost.  The package solver must return the same ``LpResult`` (status,
value and point) on every input.  ``two_phase_lp_solve`` reaches its
feasible basis instead by the primal phase 1 over artificial columns that
the package solver used before; it is a second oracle for status and value
only, since on tied optima it may end at another vertex.  Kept only as test
oracles; nothing in the package imports them.

They take no box: ``box_rows`` writes the 0/1 bounds that the package solver
handles natively as explicit rows, which is how the package itself passed
them before the bounded ratio test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from zerohalf.core import InternalConsistencyError
from zerohalf.simplex import LpResult, LpStatus


def box_rows(
    lower_present: Sequence[bool], upper_present: Sequence[bool]
) -> tuple[list[list[int]], list[int]]:
    """The present bound rows as explicit inequality rows.

    Lower bounds become ``-x_i <= 0`` and upper bounds ``x_i <= 1``, in
    coordinate order with the lower row first.
    """
    n = len(lower_present)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(n):
        if lower_present[i]:
            rows.append([-int(k == i) for k in range(n)])
            rhs.append(0)
        if upper_present[i]:
            rows.append([int(k == i) for k in range(n)])
            rhs.append(1)
    return rows, rhs


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int,
           obj: list[Fraction] | None = None) -> None:
    inv = 1 / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for cur in tab if obj is None else tab + [obj]:
        factor = cur[col]
        if factor and cur is not prow:
            cur[:] = [a - factor * b for a, b in zip(cur, prow)]
    basis[row] = col


def _price(tab, basis, cost):
    """Reduced-cost row for ``cost``; last entry is the negated objective."""
    obj = list(cost) + [Fraction(0)]
    for r, bcol in enumerate(basis):
        cb = cost[bcol]
        if cb:
            obj = [o - cb * v for o, v in zip(obj, tab[r])]
    return obj


def _run_simplex(tab, basis, obj, allowed) -> bool:
    """Bland pivoting until optimal (True) or unbounded (False)."""
    width = len(obj) - 1
    while True:
        enter = -1
        for j in range(width):
            if allowed[j] and obj[j] > 0:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best = None
        for r, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[leave]):
                    best = ratio
                    leave = r
        if leave < 0:
            return False
        _pivot(tab, basis, leave, enter, obj)


def _run_dual_simplex(tab, basis, obj) -> bool:
    """Dual Bland pivoting until primal feasible (True) or proven infeasible (False).

    The leaving row is the one with a negative right-hand side and the
    smallest basic index; the entering column has the smallest ratio
    ``obj[j] / row[j]`` over ``row[j] < 0``, ties to the smallest ``j``.
    """
    width = len(obj) - 1
    while True:
        leave = -1
        for r, row in enumerate(tab):
            if row[-1] < 0 and (leave < 0 or basis[r] < basis[leave]):
                leave = r
        if leave < 0:
            return True
        row = tab[leave]
        enter = -1
        best = None
        for j in range(width):
            if row[j] < 0:
                ratio = obj[j] / row[j]
                if best is None or ratio < best:
                    best = ratio
                    enter = j
        if enter < 0:
            return False
        _pivot(tab, basis, leave, enter, obj)


def _dual_phase_one(tab, basis, cost) -> list[bool] | None:
    """Dual simplex on the cost clipped at 0, dual feasible at the slack basis.

    Returns the allowed columns (all of them), or None when infeasible.
    """
    obj = _price(tab, basis, [min(c, 0) for c in cost])
    if not _run_dual_simplex(tab, basis, obj):
        return None
    return [True] * len(cost)


def _artificial_phase_one(tab, basis, cost) -> list[bool] | None:
    """Primal phase 1 over one artificial column per row with a negative rhs.

    Those rows are negated and their artificials start in the basis; after
    phase 1 leftover artificials are driven out and redundant rows dropped.
    Extends ``cost`` by a zero per artificial and returns the allowed
    columns (artificials never again), or None when infeasible.
    """
    width = len(cost)
    art_rows = [r for r, row in enumerate(tab) if row[-1] < 0]
    for r, row in enumerate(tab):
        if r in art_rows:
            row[:] = [-v for v in row]
        row[-1:-1] = [Fraction(int(art == r)) for art in art_rows]
    for k, r in enumerate(art_rows):
        basis[r] = width + k
    cost += [Fraction(0)] * len(art_rows)
    allowed = [True] * len(cost)
    obj = _price(tab, basis, [Fraction(-1) if j >= width else 0 for j in range(len(cost))])
    if not _run_simplex(tab, basis, obj, allowed):
        raise InternalConsistencyError("phase 1 cannot be unbounded")
    if -obj[-1] < 0:
        return None
    # drive leftover artificials out of the basis, drop redundant rows
    drop = []
    for r in range(len(tab)):
        if basis[r] >= width:
            pcol = next((j for j in range(width) if tab[r][j] != 0), None)
            if pcol is None:
                drop.append(r)
            else:
                _pivot(tab, basis, r, pcol)
    for r in sorted(drop, reverse=True):
        del tab[r]
        del basis[r]
    return [j < width for j in range(len(cost))]


def lp_solve(rows: Sequence[Sequence], rhs: Sequence, objective: Sequence, *,
             maximize: bool = True, nonneg: bool = False) -> LpResult:
    """Optimize ``objective . x`` subject to ``rows[j] . x <= rhs[j]``."""
    return _solve(rows, rhs, objective, maximize, nonneg, _dual_phase_one)


def two_phase_lp_solve(rows: Sequence[Sequence], rhs: Sequence, objective: Sequence, *,
                       maximize: bool = True, nonneg: bool = False) -> LpResult:
    """``lp_solve`` with the artificial phase 1; equal in status and value."""
    return _solve(rows, rhs, objective, maximize, nonneg, _artificial_phase_one)


def _solve(rows, rhs, objective, maximize, nonneg, phase_one) -> LpResult:
    n = len(objective)
    rows = [[Fraction(a) for a in row] for row in rows]
    rhs_orig = [Fraction(v) for v in rhs]
    if any(len(row) != n for row in rows):
        raise ValueError("row length does not match objective length")
    # internally always maximize cprime
    cprime = [Fraction(c) if maximize else -Fraction(c) for c in objective]

    m = len(rows)
    struct = n if nonneg else 2 * n

    # the slack basis: row j is body, slack j, rhs j
    tab: list[list[Fraction]] = []
    for j in range(m):
        body = list(rows[j]) if nonneg else list(rows[j]) + [-a for a in rows[j]]
        slack = [Fraction(int(k == j)) for k in range(m)]
        tab.append(body + slack + [rhs_orig[j]])
    basis = [struct + j for j in range(m)]
    cost = (cprime if nonneg else cprime + [-c for c in cprime]) + [Fraction(0)] * m

    allowed = [True] * len(cost)
    if any(v < 0 for v in rhs_orig):
        allowed = phase_one(tab, basis, cost)
        if allowed is None:
            return LpResult(LpStatus.INFEASIBLE)

    obj = _price(tab, basis, cost)
    if not _run_simplex(tab, basis, obj, allowed):
        return LpResult(LpStatus.UNBOUNDED)
    vprime = -obj[-1]

    assign = [Fraction(0)] * len(cost)
    for r, bcol in enumerate(basis):
        assign[bcol] = tab[r][-1]
    if nonneg:
        point = tuple(assign[:n])
    else:
        point = tuple(assign[i] - assign[n + i] for i in range(n))

    _certify(rows, rhs_orig, cprime, nonneg, obj, struct, m, point, vprime)
    return LpResult(LpStatus.OPTIMAL, vprime if maximize else -vprime, point)


def _certify(rows, rhs, cprime, nonneg, obj, struct, m, point, vprime):
    """Exact optimality certificate from the final reduced costs.

    The multiplier of row j is the negated reduced cost of its slack column;
    the formula is unaffected by rows that the artificial phase 1 negated
    because negating a row negates both its slack column and its multiplier.
    """
    n = len(cprime)
    duals = [-obj[struct + j] for j in range(m)]
    if any(y < 0 for y in duals):
        raise InternalConsistencyError("negative dual multiplier")
    for i in range(n):
        col = sum((duals[j] * rows[j][i] for j in range(m)), Fraction(0))
        if nonneg:
            if col < cprime[i]:
                raise InternalConsistencyError("dual constraint violated")
        elif col != cprime[i]:
            raise InternalConsistencyError("dual equality violated")
    if sum((duals[j] * rhs[j] for j in range(m)), Fraction(0)) != vprime:
        raise InternalConsistencyError("duality gap in certificate")
    for j in range(m):
        lhs = sum((rows[j][i] * point[i] for i in range(n)), Fraction(0))
        if lhs > rhs[j]:
            raise InternalConsistencyError("returned point violates a row")
    if nonneg and any(v < 0 for v in point):
        raise InternalConsistencyError("returned point has a negative coordinate")
