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

The family is the oracle's cut list restricted to that weight:
``oracle.enumerate_cut_rows`` with ``rows_only`` and support bound k, so
the approximation and the exhaustive closure share one enumerator.  Bound
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
    Cut,
    IlpInstance,
    MethodNotApplicableError,
    Point,
    PresolveError,
    ZeroHalfError,
    objective_of,
)
from .oracle import DEFAULT_BUDGET, enumerate_cut_rows
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


def enumerate_bounded_cuts(
    instance: IlpInstance,
    params: ApproxParams,
    budget: int = DEFAULT_BUDGET,
) -> list[Cut]:
    """All cuts from row multiplier vectors of weight at most k, deduplicated.

    ``oracle.enumerate_cut_rows`` with ``rows_only`` and support bound k,
    after checking b >= 1: integrality of every coefficient is required
    outright, and per coefficient vector the smallest right-hand side is
    kept, with the earliest multiplier vector as provenance.
    """
    if any(v <= 0 for v in instance.b):
        raise MethodNotApplicableError(
            "the approximation needs b >= 1 on every row"
        )
    return enumerate_cut_rows(
        instance, params.modulus, Fraction(params.k), budget, rows_only=True
    )


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
