"""Reference cut enumerator for differential tests: the former closure loop.

This is the grid loop ``zerohalf.closure.enumerate_bounded_cuts`` ran
before it enumerated the left kernel of A mod q.  It knows no linear
algebra: it walks the multiplier grid in ``itertools.product`` order,
skipping only the vectors over the weight bound, and keeps the integral
ones, so the package must return the same cuts, with the same provenance,
on every input.  Kept only as a test oracle; nothing in the package
imports it.
"""

from __future__ import annotations

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


def _grid(q: int, m: int, cap: int):
    """Vectors in {0, ..., q-1}^m with entry sum at most cap, in product order."""
    if m == 0:
        yield ()
        return
    for v in range(min(q - 1, cap) + 1):
        for rest in _grid(q, m - 1, cap - v):
            yield (v,) + rest


def enumerate_bounded_cuts(
    instance: IlpInstance,
    params: ApproxParams,
    budget: int = 1 << 20,
) -> list[Cut]:
    """All cuts from multiplier vectors of weight at most k, deduplicated.

    Only row multipliers participate; integrality of every coefficient is
    required outright.  Per coefficient vector the smallest right-hand
    side is kept, with the earliest multiplier vector as provenance.  The
    budget counts the grid vectors within the weight bound.
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
    for p in _grid(q, instance.m, cap):
        spent += 1
        if spent > budget:
            raise BudgetExceededError(f"more than {budget} multiplier candidates")
        if not any(p):
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
