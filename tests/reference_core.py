"""Reference cut kernels for differential tests: the former Fraction code.

These are the versions of ``derive_cut``, ``unfloored_rhs``,
``extended_slack``, ``IlpInstance.slacks``/``feasibility_failure``,
``compute_context`` and the bound costs ``tight_bound_cost``/
``slack_bound_cost`` that ``zerohalf.core`` ran before points and
multipliers were scaled to integer numerators.  Every sum here is a sum of
``Fraction`` objects, row by row, so the package must return the same cut,
slack, context or exception (type and message) on every input; the context
is computed in ``Fraction``s and only its costs at xstar are multiplied by
the lcm of xstar's denominators at the end, and its odd positions of A
come from the package's ``parity_profile``.  Kept only as a test oracle;
nothing in the package imports it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

from zerohalf.core import (
    Cut,
    DimensionMismatchError,
    IlpInstance,
    InfeasiblePointError,
    Multipliers,
    NonIntegralCutError,
    NonIntegralPointError,
    SeparationContext,
    _check_bound_usage,
    as_point,
    is_integral,
    parity_profile,
)


def row_value(instance: IlpInstance, j: int, x: Sequence[Fraction]) -> Fraction:
    return sum((a * xv for a, xv in zip(instance.A[j], x)), Fraction(0))


def slacks(instance: IlpInstance, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple([instance.b[j] - row_value(instance, j, x) for j in range(instance.m)])


def feasibility_failure(instance: IlpInstance, x: Sequence[Fraction]) -> str | None:
    if len(x) != instance.n:
        raise DimensionMismatchError(f"point has {len(x)} coordinates, instance has {instance.n}")
    for j in range(instance.m):
        if row_value(instance, j, x) > instance.b[j]:
            return f"row {j + 1} violated"
    for i in range(instance.n):
        if instance.lower_present[i] and x[i] < 0:
            return f"lower bound at coordinate {i + 1} violated"
        if instance.upper_present[i] and x[i] > 1:
            return f"upper bound at coordinate {i + 1} violated"
    return None


def compute_context(instance: IlpInstance, xhat: Sequence, xstar: Sequence) -> SeparationContext:
    xhat = as_point(xhat)
    xstar = as_point(xstar)
    if len(xhat) != instance.n or len(xstar) != instance.n:
        raise DimensionMismatchError(
            f"points have {len(xhat)}/{len(xstar)} coordinates, instance has {instance.n}"
        )
    if not is_integral(xhat):
        raise NonIntegralPointError(f"xhat {' '.join(map(str, xhat))} is not integral")
    bad = feasibility_failure(instance, xhat)
    if bad is not None:
        raise InfeasiblePointError("xhat", bad)
    bad = feasibility_failure(instance, xstar)
    if bad is not None:
        raise InfeasiblePointError("xstar", bad)
    slack_hat = tuple([int(s) for s in slacks(instance, xhat)])
    slack_star = slacks(instance, xstar)
    ones = frozenset(j for j, s in enumerate(slack_hat) if s == 1)
    tight = frozenset(j for j, s in enumerate(slack_hat) if s == 0)
    # the bound costs below read only these three fields of a context
    pair = SimpleNamespace(instance=instance, xhat=xhat, xstar=xstar)
    tight_cost = [tight_bound_cost(pair, i) for i in range(instance.n)]
    slack_cost = [slack_bound_cost(pair, i) for i in range(instance.n)]
    scale = math.lcm(*[v.denominator for v in xstar])

    def scaled(costs):
        return tuple([None if c is None else c * scale for c in costs])

    return SeparationContext(
        instance, xhat, xstar, slack_hat, scaled(slack_star), scale,
        ones, tight, scaled(tight_cost), scaled(slack_cost), parity_profile(instance),
    )


def tight_bound_cost(ctx: SeparationContext, i: int) -> Fraction | None:
    """Cost at xstar of the bound row tight at xhat in coordinate i.

    Selecting that row with multiplier 1/2 flips the parity of coordinate
    i without adding slack at xhat; the doubled cost at xstar is the
    distance of xstar from xhat in the coordinate.  None when the side of
    the box that xhat sits on is not part of the instance (also when xhat
    is not at 0 or 1 there, since then no bound row is tight at all).
    """
    if ctx.xhat[i] == 0 and ctx.instance.lower_present[i]:
        return ctx.xstar[i]
    if ctx.xhat[i] == 1 and ctx.instance.upper_present[i]:
        return 1 - ctx.xstar[i]
    return None


def slack_bound_cost(ctx: SeparationContext, i: int) -> Fraction | None:
    """Cost at xstar of the bound row with slack exactly 1 at xhat.

    That row can carry the single unit of slack a tight nontrivial cut
    owns; the doubled cost at xstar is the distance of xstar from the far
    side of the box.  None when the far side is absent or xhat is not at
    0 or 1 in the coordinate.
    """
    if ctx.xhat[i] == 0 and ctx.instance.upper_present[i]:
        return 1 - ctx.xstar[i]
    if ctx.xhat[i] == 1 and ctx.instance.lower_present[i]:
        return ctx.xstar[i]
    return None


def unfloored_rhs(instance: IlpInstance, mult: Multipliers) -> Fraction:
    total = sum((l * bv for l, bv in zip(mult.lam, instance.b)), Fraction(0))
    return total + sum(mult.mu_up, Fraction(0))


def derive_cut(instance: IlpInstance, mult: Multipliers) -> Cut:
    _check_bound_usage(instance, mult)
    coeffs = []
    for i in range(instance.n):
        c = sum((mult.lam[j] * instance.A[j][i] for j in range(instance.m)), Fraction(0))
        c = c - mult.mu_down[i] + mult.mu_up[i]
        if c.denominator != 1:
            raise NonIntegralCutError(f"coefficient {c} at coordinate {i + 1} is not integral")
        coeffs.append(int(c))
    rhs_exact = unfloored_rhs(instance, mult)
    rhs = rhs_exact.numerator // rhs_exact.denominator  # floor
    return Cut(tuple(coeffs), rhs, mult)


def extended_slack(instance: IlpInstance, mult: Multipliers, point: Sequence[Fraction]) -> Fraction:
    s = slacks(instance, point)
    total = sum((l * sv for l, sv in zip(mult.lam, s)), Fraction(0))
    total += sum((d * xv for d, xv in zip(mult.mu_down, point)), Fraction(0))
    total += sum((u * (1 - xv) for u, xv in zip(mult.mu_up, point)), Fraction(0))
    return total
