"""Brute-force reference implementations.

Everything here works by enumerating multiplier vectors outright, deriving
the resulting cuts, and filtering or optimizing over them.  The point is to
be obviously correct and completely independent of the graph constructions,
so the fast separators can be tested against these functions on small
instances.  Enumeration cost is kept tolerable with plain integer
arithmetic: a multiplier vector with modulus q is handled as its vector of
numerators, turned into cut data by ``core.cut_numerators`` (the kernel
under ``derive_cut``), and materialized as a ``Cut`` only when returned.

Candidate counts are capped by a hard budget (default 2**20); blowing the
budget raises BudgetExceededError rather than silently truncating.

``enumerate_cut_rows`` stays on this brute loop: it is the ground truth
that the closure approximation is checked against.  The approximation
enumerates its own family from the left kernel of A mod q, for every
modulus (see ``closure``), and shares only ``tightest_cuts``, the
deduplication step.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    BudgetExceededError,
    Cut,
    IlpInstance,
    Multipliers,
    Point,
    SeparationContext,
    ZeroHalfError,
    as_point,
    cut_numerators,
    objective_of,
    scale_point,
)
from .simplex import solve_relaxation

DEFAULT_BUDGET = 1 << 20


def _iter_raw_multipliers(
    instance: IlpInstance,
    modulus: int,
    support_bound: Fraction | None,
    budget: int,
    rows_only: bool = False,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Yield numerator triplets (lam, mu_down, mu_up) of every valid choice.

    Valid means: entries on the 1/q grid, weighted coefficients all
    integral, bound rows only used where present, never both bound rows of
    one coordinate.  With rows_only the bound rows are off limits, so only
    lambda vectors with integral weighted coefficients survive.  The budget
    counts examined lambda vectors plus yielded combinations.
    """
    if not isinstance(modulus, int) or modulus < 2:
        raise ZeroHalfError("modulus must be an integer of at least 2")
    q = modulus
    m, n = instance.m, instance.n
    if q**m > budget:
        # the walk examines all q^m lambda vectors, so it would overrun the
        # budget anyway; fail before building the grid, which for a large q
        # alone would not fit in memory
        raise BudgetExceededError(f"more than {budget} multiplier candidates")
    cols = list(zip(*instance.A))  # column views for the residue pass
    max_num_sum = None
    if support_bound is not None:
        cap = Fraction(support_bound) * q
        max_num_sum = cap.numerator // cap.denominator  # floor, sum of numerators
    spent = 0
    for lam in itertools.product(range(q), repeat=m):
        spent += 1
        if spent > budget:
            raise BudgetExceededError(f"more than {budget} multiplier candidates")
        if max_num_sum is not None and sum(lam) > max_num_sum:
            continue
        support = [j for j, p in enumerate(lam) if p]
        choices: list[list[tuple[int, int]]] = []
        dead = False
        for i in range(n):
            r = sum(lam[j] * cols[i][j] for j in support) % q
            if r == 0:
                choices.append([(0, 0)])
                continue
            opts = []
            if not rows_only:
                if instance.lower_present[i]:
                    opts.append((r, 0))
                if instance.upper_present[i]:
                    opts.append((0, q - r))
            if not opts:
                dead = True
                break
            choices.append(opts)
        if dead:
            continue
        for combo in itertools.product(*choices):
            spent += 1
            if spent > budget:
                raise BudgetExceededError(f"more than {budget} multiplier candidates")
            yield lam, tuple([c[0] for c in combo]), tuple([c[1] for c in combo])


def _materialize(nums, q: int) -> Multipliers:
    return Multipliers(*[tuple([Fraction(p, q) for p in v]) for v in nums], modulus=q)


def _most_violated(instance: IlpInstance, candidates, xstar: Point, modulus: int) -> Cut | None:
    """Most violated cut at xstar among numerator triplets, if any.

    Ties on the violation are broken by lexicographically smallest lambda
    support, then by the numerator vectors themselves.
    """
    xnum, denom = scale_point(xstar)
    best = None  # ((neg violation, tie key), nums, coeffs, rhs)
    for nums in candidates:
        coeffs, rhs = cut_numerators(instance, *nums, modulus)
        viol_num = sum(c * xv for c, xv in zip(coeffs, xnum)) - rhs * denom
        if viol_num <= 0:
            continue
        lam, down, up = nums
        key = (-viol_num, (tuple([j for j, p in enumerate(lam) if p]), lam, down, up))
        if best is None or key < best[0]:
            best = (key, nums, coeffs, rhs)
    return None if best is None else Cut(best[2], best[3], _materialize(best[1], modulus))


def brute_standard_separate(
    instance: IlpInstance,
    xstar: Sequence,
    modulus: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> Cut | None:
    """Most violated cut at xstar over the full enumeration, if any."""
    xstar = as_point(xstar)
    if len(xstar) != instance.n:
        raise ZeroHalfError("xstar dimension mismatch")
    return _most_violated(
        instance, _iter_raw_multipliers(instance, modulus, None, budget), xstar, modulus
    )


def brute_primal_separate(
    ctx: SeparationContext,
    budget: int = DEFAULT_BUDGET,
) -> Cut | None:
    """Most violated cut among those tight and nontrivial at xhat.

    Modulus-2 enumeration; tightness is the weighted-slack-1/2 test.
    """
    inst = ctx.instance
    xhat = [int(v) for v in ctx.xhat]

    def tight_nontrivial(nums) -> bool:
        lam, down, up = nums
        # weighted slack at xhat, doubled: must equal exactly 1
        slack2 = (
            sum(lam[j] * ctx.slack_hat[j] for j in range(inst.m) if lam[j])
            + sum(d * x for d, x in zip(down, xhat) if d)
            + sum(u * (1 - x) for u, x in zip(up, xhat) if u)
        )
        return slack2 == 1

    candidates = filter(tight_nontrivial, _iter_raw_multipliers(inst, 2, None, budget))
    return _most_violated(inst, candidates, ctx.xstar, 2)


def tightest_cuts(instance: IlpInstance, candidates, modulus: int) -> list[Cut]:
    """Deduplicated cut list: per coefficient vector only the tightest rhs.

    ``candidates`` are numerator triplets (lam, down, up) of valid
    multiplier vectors.  Cuts come out in the order their coefficient
    vector first appears; among the candidates deriving the smallest rhs
    the first one is kept as provenance.
    """
    seen: dict[tuple[int, ...], tuple[int, tuple]] = {}
    order: list[tuple[int, ...]] = []
    for nums in candidates:
        coeffs, rhs = cut_numerators(instance, *nums, modulus)
        old = seen.get(coeffs)
        if old is None:
            seen[coeffs] = (rhs, nums)
            order.append(coeffs)
        elif rhs < old[0]:
            seen[coeffs] = (rhs, nums)
    return [Cut(c, seen[c][0], _materialize(seen[c][1], modulus)) for c in order]


def enumerate_cut_rows(
    instance: IlpInstance,
    modulus: int = 2,
    support_bound: Fraction | None = None,
    budget: int = DEFAULT_BUDGET,
    rows_only: bool = False,
) -> list[Cut]:
    """``tightest_cuts`` over every valid multiplier vector, in grid order.

    rows_only restricts to cuts taken from the rows of A alone, without
    bound-row rounding.  The zero row multiplier is skipped: it derives
    nothing but ``0 <= 0``.
    """
    raw = _iter_raw_multipliers(instance, modulus, support_bound, budget, rows_only)
    return tightest_cuts(instance, (nums for nums in raw if any(nums[0])), modulus)


def brute_closure_optimize(
    instance: IlpInstance,
    objective: Sequence[int] | None = None,
    modulus: int = 2,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Fraction, Point]:
    """Exact optimum of the objective over the full cut closure.

    The closure intersects the feasible set with every cut derived from the
    rows of A by row multipliers alone; bound rows take part in the linear
    program but not in cut derivation, which is reserved for the rounding
    step of the separation routines.  Materializes every such cut, appends
    it to the system and solves one LP.  Raises LpInfeasibleError or
    LpUnboundedError when the relaxation has no optimum.
    """
    objective = objective_of(instance, objective)
    cuts = enumerate_cut_rows(instance, modulus, None, budget, rows_only=True)
    res = solve_relaxation(
        instance.A, instance.b, instance.lower_present, instance.upper_present, cuts, objective
    )
    return res.value, res.point


def brute_max_matching(graph, weights: Sequence[int] | None = None) -> tuple[int, tuple[int, ...]]:
    """Maximum-weight matching by exhaustive search over the edge list.

    Returns (weight, edge index tuple); ties prefer the lexicographically
    smallest index tuple.  The state space is (position, covered vertex
    set), memoized, so graphs need few nodes; more than 24 edges or 16
    nodes raise BudgetExceededError.
    """
    edges = [(e[0], e[1]) for e in graph.edges]
    if weights is None:
        weights = [e[2] for e in graph.edges]
    if any(w < 0 for w in weights):
        raise ZeroHalfError("negative edge weight")
    nodes = sorted({v for e in edges for v in e})
    if len(edges) > 24 or len(nodes) > 16:
        raise BudgetExceededError("graph too large for exhaustive matching")
    bit = {v: 1 << k for k, v in enumerate(nodes)}

    cache: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}

    def rec(k: int, used: int) -> tuple[int, tuple[int, ...]]:
        if k == len(edges):
            return 0, ()
        state = (k, used)
        hit = cache.get(state)
        if hit is not None:
            return hit
        skip_w, skip_pick = rec(k + 1, used)
        best = (skip_w, skip_pick)
        mask = bit[edges[k][0]] | bit[edges[k][1]]
        if not used & mask:
            take_w, take_pick = rec(k + 1, used | mask)
            take_w += weights[k]
            # on equal weight the take branch starts with the smaller index
            if take_w >= skip_w:
                best = (take_w, (k,) + take_pick)
        cache[state] = best
        return best

    weight, picked = rec(0, 0)
    return weight, picked
