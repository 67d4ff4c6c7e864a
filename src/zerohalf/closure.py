"""Bounded-support approximation of the cut closure.

Optimizing exactly over the closure would need every derivable cut.  When
every right-hand side is at least 1, restricting to multiplier vectors of
total weight at most k = ceil(1 + 1/eps) gives a polynomially large cut
family whose optimum alpha satisfies

    max over the closure <= alpha <= (1 + eps) * max over the closure

for nonnegative objectives: a cut left out of the family has multiplier
weight above k, hence an unrounded right-hand side above 1 + 1/eps, and
such cuts survive shrinking the optimizer by 1/(1 + eps).  The same
bound-support argument works for any modulus q, with numerator sum at
most q*k.  Both preconditions, b >= 1 and a nonnegative objective, are
checked.

With row multipliers alone, lam/q derives an integral cut exactly when
lam A = 0 (mod q), so for prime q the family is read off the left kernel of
A over GF(q) (the mod-2 reduction of Caprara and Fischetti): one row
reduction gives a kernel basis in reduced echelon form, each basis vector
owning one pivot coordinate where lam equals its coefficient.  A depth-first
walk over the combinations drops every branch whose pivot coefficients
already sum past q*k, so for fixed eps and q the work is polynomial in m
(at most (d+1)^(q*k) combinations, d the kernel dimension).  Composite q is
no field; it walks the multiplier grid with ``oracle.enumerate_cut_rows``,
as does q >= 2^32, whose primality is not tested.
Either way the cuts go through ``oracle.tightest_cuts`` in grid order, so
both paths give the list the exhaustive enumeration would.  Bound
rows of the instance participate in the linear program as ordinary rows
but are never combined into cuts here; a bound that should take part in
cut generation has to be written as an explicit row of A, which the b >= 1
precondition then rejects for lower bounds.  The monotone presolve removes
the offending b = 0 rows for packing-type systems beforehand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .core import (
    BudgetExceededError,
    Cut,
    IlpInstance,
    MethodNotApplicableError,
    Point,
    PresolveError,
    ZeroHalfError,
    objective_of,
)
from .oracle import DEFAULT_BUDGET, enumerate_cut_rows, tightest_cuts
from .simplex import solve_relaxation


def k_of_epsilon(epsilon) -> int:
    """ceil(1 + 1/epsilon), the multiplier weight bound for quality eps."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ZeroHalfError("epsilon must be positive")
    return math.ceil(1 + 1 / eps)


@dataclass(frozen=True)
class ApproxParams:
    """Quality target and modulus; k is always derived from epsilon."""

    epsilon: Fraction
    modulus: int = 2
    k: int = field(init=False)

    def __post_init__(self):
        eps = Fraction(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "k", k_of_epsilon(eps))
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise ZeroHalfError("modulus must be an integer of at least 2")


@dataclass(frozen=True)
class PresolveReport:
    """What the monotone presolve removed, and how to undo the projection."""

    fixed_coords: tuple[int, ...]
    dropped_rows: tuple[int, ...]
    kept_coords: tuple[int, ...]
    kept_rows: tuple[int, ...]

    def lift(self, point: Sequence) -> Point:
        """Reinsert the fixed zero coordinates into a reduced-space point."""
        if len(point) != len(self.kept_coords):
            raise ZeroHalfError("point does not match the reduced space")
        full = [Fraction(0)] * (len(self.kept_coords) + len(self.fixed_coords))
        for i, v in zip(self.kept_coords, point):
            full[i] = Fraction(v)
        return tuple(full)


def monotone_presolve(
    instance: IlpInstance,
) -> tuple[IlpInstance | None, PresolveReport]:
    """Remove b = 0 rows of a packing system by fixing their support to 0.

    Needs A >= 0 and a lower bound row on every variable, so that a zero
    right-hand side really forces every variable in the row down to zero.
    One sweep suffices: deleting rows and fixing variables never changes
    any right-hand side, so no new b = 0 rows can appear.  Returns None
    for the instance when nothing (no row or no variable) is left.
    """
    if any(a < 0 for row in instance.A for a in row):
        raise PresolveError("presolve needs a nonnegative matrix")
    if not all(instance.lower_present):
        raise PresolveError("presolve needs the lower bound row of every variable")
    if any(v < 0 for v in instance.b):
        raise PresolveError("a negative right-hand side is unsatisfiable over x >= 0")
    fixed: set[int] = set()
    dropped = tuple([j for j in range(instance.m) if instance.b[j] == 0])
    for j in dropped:
        fixed.update(i for i, a in enumerate(instance.A[j]) if a)
    kept_rows = tuple([j for j in range(instance.m) if instance.b[j] != 0])
    kept_coords = tuple([i for i in range(instance.n) if i not in fixed])
    report = PresolveReport(tuple(sorted(fixed)), dropped, kept_coords, kept_rows)
    if not kept_rows or not kept_coords:
        return None, report
    reduced = IlpInstance(
        A=tuple([tuple([instance.A[j][i] for i in kept_coords]) for j in kept_rows]),
        b=tuple([instance.b[j] for j in kept_rows]),
        lower_present=tuple([instance.lower_present[i] for i in kept_coords]),
        upper_present=tuple([instance.upper_present[i] for i in kept_coords]),
        objective=None
        if instance.objective is None
        else tuple([instance.objective[i] for i in kept_coords]),
    )
    return reduced, report


# Largest modulus whose primality is settled by trial division (at most
# 2^16 steps); a larger one takes the grid path, which holds for any modulus.
_FIELD_LIMIT = 1 << 32


def _is_prime(q: int) -> bool:
    return 2 <= q < _FIELD_LIMIT and all(q % p for p in range(2, math.isqrt(q) + 1))


def _row_reduce(rows: list[list[int]], ncols: int, q: int) -> int:
    """Reduced echelon form over GF(q) on the first ncols columns, in place.

    Returns the rank r: rows[:r] hold a 1 at their pivot column, pivots
    ascending, and every other row is 0 there; rows[r:] are 0 on those
    columns.
    """
    r = 0
    for col in range(ncols):
        hit = next((j for j in range(r, len(rows)) if rows[j][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [v * inv % q for v in rows[r]]
        for j, row in enumerate(rows):
            f = row[col]
            if j != r and f:
                rows[j] = [(v - f * w) % q for v, w in zip(row, rows[r])]
        r += 1
    return r


def _kernel_multipliers(instance: IlpInstance, q: int, cap: int, budget: int) -> list[tuple[int, ...]]:
    """Nonzero lam in {0..q-1}^m with lam A = 0 (mod q) and sum(lam) <= cap.

    q must be prime.  Sorted, i.e. in ``itertools.product`` order.  The
    budget counts the kernel combinations the walk reaches.
    """
    m, n = instance.m, instance.n
    rows = [[a % q for a in instance.A[j]] + [int(i == j) for i in range(m)] for j in range(m)]
    rank = _row_reduce(rows, n, q)
    basis = [row[n:] for row in rows[rank:]]  # rows with a zero A part
    _row_reduce(basis, m, q)
    d = len(basis)
    # An odometer over the coefficients c, last digit fastest, skipping
    # every c whose digit sum (lam's pivot entries) exceeds cap.
    # partial[t] is sum_{i<t} c_i basis[i] mod q, so partial[d] is lam.
    c = [0] * d
    partial = [(0,) * m] * (d + 1)
    used = spent = 0
    found = []
    while True:
        spent += 1
        if spent > budget:
            raise BudgetExceededError(f"more than {budget} multiplier candidates")
        lam = partial[d]
        if 0 < sum(lam) <= cap:
            found.append(lam)
        # advance the rightmost digit that can grow; the digits after it drop to 0
        t, tail = d - 1, 0
        while t >= 0 and (c[t] == q - 1 or used - tail >= cap):
            tail += c[t]
            t -= 1
        if t < 0:
            return sorted(found)
        c[t + 1:] = [0] * (d - t - 1)
        c[t] += 1
        used += 1 - tail
        step = tuple([(a + b) % q for a, b in zip(partial[t + 1], basis[t])])
        partial[t + 1:] = [step] * (d - t)


def enumerate_bounded_cuts(
    instance: IlpInstance,
    params: ApproxParams,
    budget: int = DEFAULT_BUDGET,
) -> list[Cut]:
    """All cuts from row multiplier vectors of weight at most k, deduplicated.

    After checking b >= 1: integrality of every coefficient is required
    outright, and per coefficient vector the smallest right-hand side is
    kept, with the earliest multiplier vector in grid order as provenance
    (``oracle.tightest_cuts``).  Prime q enumerates the left kernel of A
    mod q and the budget counts kernel combinations; composite q runs
    ``oracle.enumerate_cut_rows``, whose budget counts grid vectors.
    """
    if any(v <= 0 for v in instance.b):
        raise MethodNotApplicableError(
            "the approximation needs b >= 1 on every row"
        )
    q = params.modulus
    if not _is_prime(q):
        return enumerate_cut_rows(instance, q, Fraction(params.k), budget, rows_only=True)
    zero = (0,) * instance.n
    lams = _kernel_multipliers(instance, q, q * params.k, budget)
    return tightest_cuts(instance, [(lam, zero, zero) for lam in lams], q)


@dataclass(frozen=True)
class ApproxResult:
    alpha: Fraction
    argmax: Point
    cut_count: int


def approx_optimize(
    instance: IlpInstance,
    objective: Sequence[int] | None,
    params: ApproxParams,
    budget: int = DEFAULT_BUDGET,
) -> ApproxResult:
    """Exact optimum over the bounded-support relaxation.

    The returned alpha approximates the closure optimum to factor 1 + eps
    (see the module docstring); the point is an optimizer of the relaxation
    itself.  A negative objective entry or a right-hand side below 1 raises
    MethodNotApplicableError.
    """
    objective = objective_of(instance, objective, nonnegative=True)
    cuts = enumerate_bounded_cuts(instance, params, budget)
    res = solve_relaxation(
        instance.A, instance.b, instance.lower_present, instance.upper_present, cuts, objective
    )
    return ApproxResult(res.value, res.point, len(cuts))
