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
lam A = 0 (mod q), so the family is read off the left kernel of A mod q
(the mod-2 reduction of Caprara and Fischetti, over Z/q).  A Howell-form
echelon of [A mod q | I] (Storjohann and Mulders) gives a kernel basis
whose pivots divide q; a depth-first walk fixes the pivot entries of lam in
turn and drops a branch once the final entries of lam sum past q*k.  Each
node it counts has pivot entries summing to at most q*k, so for fixed eps
and q the work is polynomial in m: at most d (d+1)^(q*k) nodes for d basis
vectors.  The cuts go through ``oracle.tightest_cuts`` in grid order,
giving the exhaustive enumeration's list.  Bound rows of the instance
participate in the linear program as ordinary rows but are never combined
into cuts here; a bound that should take part in cut generation has to be
written as an explicit row of A, which the b >= 1 precondition then
rejects for lower bounds.  The monotone presolve removes the offending
b = 0 rows for packing-type systems beforehand.
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
from .oracle import DEFAULT_BUDGET, tightest_cuts
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


def _echelon(pool: list[list[int]], q: int) -> list[list[int]]:
    """Howell-form echelon over Z/q: the pivot rows, pivot columns ascending.

    A pivot row is 0 before its pivot column and holds a divisor g of q
    there.  Putting it back times q/g, 0 there, keeps in the pool all of the
    span that is 0 up to the column (Storjohann and Mulders 1998).
    """
    pivots = []
    for col in range(len(pool[0])):
        hit = [row for row in pool if row[col]]
        if not hit:
            continue
        pool = [row for row in pool if not row[col]]
        top = hit.pop()
        for row in hit:
            while row[col]:  # Euclid steps, the smaller entry on top
                if row[col] < top[col]:
                    top, row = row, top
                f = row[col] // top[col]
                row = [(a - f * b) % q for a, b in zip(row, top)]
            pool.append(row)
        g = math.gcd(top[col], q)
        unit = next(u for u in range(pow(top[col] // g, -1, q // g), q, q // g) if math.gcd(u, q) == 1)
        pivots.append([unit * a % q for a in top])
        if g > 1:
            pool.append([q // g * a % q for a in top])
    return pivots


def _kernel_multipliers(instance: IlpInstance, q: int, cap: int, budget: int) -> list[tuple[int, ...]]:
    """Nonzero lam in {0..q-1}^m with lam A = 0 (mod q) and sum(lam) <= cap.

    Sorted, i.e. in ``itertools.product`` order.  The budget counts the
    nodes the walk builds, partial or complete.
    """
    m, n = instance.m, instance.n
    rows = [[a % q for a in instance.A[j]] + [int(i == j) for i in range(m)] for j in range(m)]
    basis = [row[n:] for row in _echelon(rows, q) if not any(row[:n])]  # kernel rows
    cols = [next(i for i, a in enumerate(row) if a) for row in basis]
    for t, p in enumerate(cols):  # below g above each pivot g: at g = 1 a node is its first child
        for i in range(t):
            f = basis[i][p] // basis[t][p]
            basis[i] = [(a - f * b) % q for a, b in zip(basis[i], basis[t])]
    levels = [(row, p, row[p], end) for row, p, end in zip(basis, cols, cols[1:] + [m])]
    # A node at depth t sums basis[:t]; the later rows are 0 before cols[t],
    # so its entries there are final, summing to fixed[t].  Its children take
    # each pivot entry v congruent to its own mod g up to tops[t], one basis[t]
    # apart, and are dropped when their final entries sum past cap.
    d = len(levels)
    lams, vs, tops, fixed = [()] * d, [0] * d, [0] * d, [0] * (d + 1)
    t, node, spent, found = 0, (0,) * m, 0, []
    while t >= 0 and levels:
        row, p, g, end = levels[t]
        if node is None:
            v = vs[t] + g
            if v > tops[t]:
                t -= 1
                continue
            lam = tuple([(a + b) % q for a, b in zip(lams[t], row)])
        else:
            e = node[p]
            v, tops[t] = e % g, min(q - 1, cap - fixed[t])
            spent += (tops[t] - v) // g + 1  # every child of node is built
            if spent > budget:
                raise BudgetExceededError(f"more than {budget} multiplier candidates")
            lam = tuple([(a - e // g * b) % q for a, b in zip(node, row)]) if e >= g else node
        lams[t], vs[t], node = lam, v, None
        s = fixed[t] + sum(lam[p:end])  # past cap also when v > tops[t]
        if s <= cap and t + 1 < d:
            fixed[t + 1] = s
            t, node = t + 1, lam
        elif 0 < s <= cap:
            found.append(lam)
    return sorted(found)


def enumerate_bounded_cuts(
    instance: IlpInstance,
    params: ApproxParams,
    budget: int = DEFAULT_BUDGET,
) -> list[Cut]:
    """All cuts from row multiplier vectors of weight at most k, deduplicated.

    After checking b >= 1: integrality of every coefficient is required
    outright, and per coefficient vector the smallest right-hand side is
    kept, with the earliest multiplier vector in grid order as provenance
    (``oracle.tightest_cuts``).  The multipliers come from the left kernel
    of A mod q for every modulus; the budget counts the nodes the kernel
    walk builds, partial or complete.
    """
    if any(v <= 0 for v in instance.b):
        raise MethodNotApplicableError(
            "the approximation needs b >= 1 on every row"
        )
    q, zero = params.modulus, (0,) * instance.n
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
