"""Reference LP solver for differential tests: the dense Fraction tableau.

This is the solver ``zerohalf.simplex`` used before it moved to integer
pivoting over a common denominator.  It follows the same two phases and
Bland's rule on the same tableau, so the package solver must return the
same ``LpResult`` (status, value and point) on every input.  Kept only as a
test oracle; nothing in the package imports it.

It takes no box: ``box_rows`` writes the 0/1 bounds that the package solver
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


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    inv = 1 / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    prow = tab[row]
    for r in range(len(tab)):
        if r == row:
            continue
        factor = tab[r][col]
        if factor:
            tab[r] = [a - factor * b for a, b in zip(tab[r], prow)]
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
        _pivot(tab, basis, leave, enter)
        factor = obj[enter]
        if factor:
            obj[:] = [o - factor * v for o, v in zip(obj, tab[leave])]


def lp_solve(
    rows: Sequence[Sequence],
    rhs: Sequence,
    objective: Sequence,
    *,
    maximize: bool = True,
    nonneg: bool = False,
) -> LpResult:
    """Optimize ``objective . x`` subject to ``rows[j] . x <= rhs[j]``."""
    n = len(objective)
    rows = [[Fraction(a) for a in row] for row in rows]
    rhs_orig = [Fraction(v) for v in rhs]
    if any(len(row) != n for row in rows):
        raise ValueError("row length does not match objective length")
    # internally always maximize cprime
    cprime = [Fraction(c) if maximize else -Fraction(c) for c in objective]

    m = len(rows)
    struct = n if nonneg else 2 * n
    width = struct + m

    negated = [v < 0 for v in rhs_orig]
    art_rows = [j for j in range(m) if negated[j]]
    total = width + len(art_rows)

    tab: list[list[Fraction]] = []
    for j in range(m):
        if nonneg:
            body = list(rows[j])
        else:
            body = list(rows[j]) + [-a for a in rows[j]]
        slack = [Fraction(0)] * m
        slack[j] = Fraction(1)
        b = rhs_orig[j]
        if negated[j]:
            body = [-a for a in body]
            slack[j] = Fraction(-1)
            b = -b
        art = [Fraction(0)] * len(art_rows)
        tab.append(body + slack + art + [b])
    for k, j in enumerate(art_rows):
        tab[j][width + k] = Fraction(1)

    basis = [width + art_rows.index(j) if negated[j] else struct + j for j in range(m)]
    allowed = [True] * total

    if art_rows:
        cost1 = [Fraction(0)] * total
        for k in range(len(art_rows)):
            cost1[width + k] = Fraction(-1)
        obj = _price(tab, basis, cost1)
        if not _run_simplex(tab, basis, obj, allowed):
            raise InternalConsistencyError("phase 1 cannot be unbounded")
        if -obj[-1] < 0:
            return LpResult(LpStatus.INFEASIBLE)
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
        for k in range(len(art_rows)):
            allowed[width + k] = False

    cost2 = [Fraction(0)] * total
    if nonneg:
        for i in range(n):
            cost2[i] = cprime[i]
    else:
        for i in range(n):
            cost2[i] = cprime[i]
            cost2[n + i] = -cprime[i]
    obj = _price(tab, basis, cost2)
    if not _run_simplex(tab, basis, obj, allowed):
        return LpResult(LpStatus.UNBOUNDED)
    vprime = -obj[-1]

    assign = [Fraction(0)] * total
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
    the formula is unaffected by rows that were flipped for phase 1 because
    flipping negates both the column and the multiplier.
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
