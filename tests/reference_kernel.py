"""Reference kernel walk for differential tests: the former GF(q) enumerator.

This is the multiplier walk ``zerohalf.closure`` ran for prime moduli
before it took a Howell-form basis over Z/q for every modulus: a reduced
echelon form over the field GF(q), then an odometer over the kernel
coefficients that skips every coefficient vector whose digit sum exceeds
the cap.  It needs q prime; for such q the package must return the same
multiplier list on every input.  Kept only as a test oracle; nothing in
the package imports it.
"""

from __future__ import annotations

from zerohalf.core import BudgetExceededError, IlpInstance


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


def kernel_multipliers(instance: IlpInstance, q: int, cap: int, budget: int) -> list[tuple[int, ...]]:
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
