"""Reference cut enumerator for differential tests: the former closure loop.

This is the loop ``zerohalf.closure.enumerate_bounded_cuts`` ran before it
became a call to ``zerohalf.oracle.enumerate_cut_rows``.  It walks the same
multiplier grid in the same order, so the package must return the same
cuts, with the same provenance, on every input.  Kept only as a test
oracle; nothing in the package imports it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from zerohalf.closure import ApproxParams
from zerohalf.core import (
    BudgetExceededError,
    Cut,
    IlpInstance,
    MethodNotApplicableError,
    Multipliers,
    ZeroHalfError,
    derive_cut,
)


def enumerate_bounded_cuts(
    instance: IlpInstance,
    params: ApproxParams,
    budget: int = 1 << 20,
) -> list[Cut]:
    """All cuts from multiplier vectors of weight at most k, deduplicated.

    Only row multipliers participate; integrality of every coefficient is
    required outright.  Per coefficient vector the smallest right-hand
    side is kept, with the earliest multiplier vector as provenance.
    """
    if any(v <= 0 for v in instance.b):
        raise MethodNotApplicableError(
            "the approximation needs b >= 1 on every row"
        )
    q = params.modulus
    cap = q * params.k  # numerator sum bound from lam . 1 <= k
    cols = list(zip(*instance.A))
    seen: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    order: list[tuple[int, ...]] = []
    spent = 0
    for p in itertools.product(range(q), repeat=instance.m):
        spent += 1
        if spent > budget:
            raise BudgetExceededError(f"more than {budget} multiplier candidates")
        weight = sum(p)
        if weight == 0 or weight > cap:
            continue
        support = [j for j, v in enumerate(p) if v]
        sums = [sum(p[j] * col[j] for j in support) for col in cols]
        if any(s % q for s in sums):
            continue
        coeffs = tuple([s // q for s in sums])
        rhs = sum(p[j] * instance.b[j] for j in support) // q
        old = seen.get(coeffs)
        if old is None:
            seen[coeffs] = (rhs, p)
            order.append(coeffs)
        elif rhs < old[0]:
            seen[coeffs] = (rhs, p)
    zero = (Fraction(0),) * instance.n
    out = []
    for coeffs in order:
        rhs, p = seen[coeffs]
        mult = Multipliers(
            tuple([Fraction(v, q) for v in p]), zero, zero, modulus=q
        )
        cut = derive_cut(instance, mult)
        if cut.coeffs != coeffs or cut.rhs != rhs:
            raise ZeroHalfError("enumeration bookkeeping out of sync")
        out.append(cut)
    return out
