"""Core model for zero-half cut machinery.

An integer linear system is stored as ``Ax <= b`` with integer data, plus
optional per-variable bound rows ``0 <= x_i`` and ``x_i <= 1`` that are kept
as presence flags instead of explicit matrix rows.  A zero-half cut is
obtained from a multiplier vector with entries in {0, 1/2} (more generally
{0, 1/q, ..., (q-1)/q}): weigh the rows, add bound rows to make every
coefficient integral, and round the right-hand side down.

Conventions used throughout the package:

* ``mu_down[i]`` multiplies the lower bound row ``-x_i <= 0`` and therefore
  lowers the i-th cut coefficient; ``mu_up[i]`` multiplies ``x_i <= 1`` and
  raises it.  Both may only be nonzero where the bound exists, and never
  simultaneously at the same coordinate (using both only weakens the cut).
* All arithmetic is exact.  Points are tuples of ``fractions.Fraction``;
  there is no tolerance anywhere in this package, comparisons are literal.
* Rows and coordinates are 0-indexed in code.  The text formats accepted by
  the command line interface are 1-indexed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction

HALF = Fraction(1, 2)

#: A point is simply a tuple of rationals; helpers below build and check them.
Point = tuple[Fraction, ...]


class ZeroHalfError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(ZeroHalfError):
    pass


class NonIntegralPointError(ZeroHalfError):
    pass


class InfeasiblePointError(ZeroHalfError):
    """A point violates a row or a present bound.  ``role`` names which
    argument was bad ("xhat" or "xstar")."""

    def __init__(self, role: str, detail: str):
        super().__init__(f"{role} infeasible: {detail}")
        self.role = role


class MultiplierError(ZeroHalfError):
    """Multiplier vector outside the allowed grid, or bound usage that the
    instance does not permit."""


class NonIntegralCutError(ZeroHalfError):
    """The weighted row sum has a fractional coefficient left over."""


class MethodNotApplicableError(ZeroHalfError):
    """Parity precondition of a separator is not met."""


class BudgetExceededError(ZeroHalfError):
    """An enumeration grew past its configured candidate budget."""


class LpInfeasibleError(ZeroHalfError):
    pass


class LpUnboundedError(ZeroHalfError):
    pass


class PresolveError(ZeroHalfError):
    pass


class InternalConsistencyError(ZeroHalfError):
    """A structural invariant failed.  Indicates a bug, not bad input."""


def as_point(values: Iterable[int | str | Fraction]) -> Point:
    """Coerce a sequence of ints / 'p/q' strings / Fractions into a Point.

    Entries that are already exactly ``Fraction`` are kept as they are.
    """
    return tuple([v if type(v) is Fraction else Fraction(v) for v in values])


def is_integral(point: Sequence[Fraction]) -> bool:
    return all(v.denominator == 1 for v in as_point(point))


@dataclass(frozen=True)
class IlpInstance:
    """An integer system ``Ax <= b`` with optional 0/1 bound rows.

    ``lower_present[i]`` / ``upper_present[i]`` record whether ``0 <= x_i``
    resp. ``x_i <= 1`` is part of the system.  ``objective`` is an optional
    integer maximization objective used by the optimization front ends.
    """

    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    lower_present: tuple[bool, ...]
    upper_present: tuple[bool, ...]
    objective: tuple[int, ...] | None = None

    def __post_init__(self):
        A = tuple([tuple([int(a) for a in row]) for row in self.A])
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", tuple([int(v) for v in self.b]))
        object.__setattr__(self, "lower_present", tuple([bool(v) for v in self.lower_present]))
        object.__setattr__(self, "upper_present", tuple([bool(v) for v in self.upper_present]))
        if self.objective is not None:
            object.__setattr__(self, "objective", tuple([int(v) for v in self.objective]))
        if not A or not A[0]:
            raise DimensionMismatchError("instance needs at least one row and one column")
        n = len(A[0])
        if any(len(row) != n for row in A):
            raise DimensionMismatchError("ragged coefficient matrix")
        if len(self.b) != len(A):
            raise DimensionMismatchError(f"b has {len(self.b)} entries for {len(A)} rows")
        for name in ("lower_present", "upper_present"):
            if len(getattr(self, name)) != n:
                raise DimensionMismatchError(f"{name} has wrong length")
        if self.objective is not None and len(self.objective) != n:
            raise DimensionMismatchError("objective has wrong length")

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])

    def scaled_slacks(self, x: Sequence[Fraction]) -> tuple[list[int], list[int], int]:
        """All row slacks ``b - Ax`` in one integer pass: ``(slacks, x_nums, denom)``.

        Both vectors are numerators over ``denom``, the lcm of the denominators of x.
        """
        xnum, denom = scale_point(x)
        ax = [sum(map(mul, row, xnum)) for row in self.A]
        return [bv * denom - r for bv, r in zip(self.b, ax)], xnum, denom

    def slacks(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        slacks, _, denom = self.scaled_slacks(x)
        return tuple([Fraction(s, denom) for s in slacks])

    def feasibility_failure(self, x: Sequence[Fraction]) -> str | None:
        """Return a description of the first violated constraint, or None.

        Rows and coordinates are numbered from 1, as in the file formats.
        """
        if len(x) != self.n:
            raise DimensionMismatchError(f"point has {len(x)} coordinates, instance has {self.n}")
        return _first_failure(self, *self.scaled_slacks(x))


def scale_point(point: Sequence[Fraction]) -> tuple[list[int], int]:
    """A point as integer numerators over the lcm of its denominators."""
    denom = math.lcm(*[v.denominator for v in point])
    return [v.numerator * (denom // v.denominator) for v in point], denom


def _first_failure(instance: IlpInstance, slacks: list, xnum: list, denom: int) -> str | None:
    for j, s in enumerate(slacks, 1):
        if s < 0:
            return f"row {j} violated"
    for i, v in enumerate(xnum):
        if instance.lower_present[i] and v < 0:
            return f"lower bound at coordinate {i + 1} violated"
        if instance.upper_present[i] and v > denom:
            return f"upper bound at coordinate {i + 1} violated"
    return None


def _grid_check(values: tuple[Fraction, ...], q: int, what: str) -> None:
    # a reduced v is on the grid iff 0 <= v < 1 and its denominator divides q
    for v in values:
        if not (0 <= v.numerator < v.denominator and q % v.denominator == 0):
            grid = ", ".join(["0"] + [f"{k}/{q}" for k in range(1, q)])
            raise MultiplierError(f"{what} entry {v} not in {{{grid}}}")


@dataclass(frozen=True)
class Multipliers:
    """Row multipliers ``lam`` plus bound-row multipliers ``mu_down``/``mu_up``.

    Entries live on the grid {0, 1/q, ..., (q-1)/q} for ``modulus`` q.  At
    most one of ``mu_down[i]``, ``mu_up[i]`` may be nonzero; whether a bound
    row may be used at all depends on the instance and is checked when a cut
    is derived.
    """

    lam: tuple[Fraction, ...]
    mu_down: tuple[Fraction, ...]
    mu_up: tuple[Fraction, ...]
    modulus: int = 2

    def __post_init__(self):
        object.__setattr__(self, "lam", as_point(self.lam))
        object.__setattr__(self, "mu_down", as_point(self.mu_down))
        object.__setattr__(self, "mu_up", as_point(self.mu_up))
        if not isinstance(self.modulus, int) or self.modulus < 2:
            raise MultiplierError(f"modulus {self.modulus!r} out of range")
        if len(self.mu_down) != len(self.mu_up):
            raise DimensionMismatchError("mu_down and mu_up lengths differ")
        _grid_check(self.lam, self.modulus, "lam")
        _grid_check(self.mu_down, self.modulus, "mu_down")
        _grid_check(self.mu_up, self.modulus, "mu_up")
        for i, (d, u) in enumerate(zip(self.mu_down, self.mu_up)):
            if d and u:
                raise MultiplierError(f"mu_down and mu_up both nonzero at coordinate {i + 1}")

    @classmethod
    def from_support(
        cls,
        m: int,
        n: int,
        lam_rows: Iterable[int] = (),
        down_coords: Iterable[int] = (),
        up_coords: Iterable[int] = (),
        modulus: int = 2,
    ) -> "Multipliers":
        """Build 1/q multipliers from index sets (the common q = 2 shape)."""
        w = Fraction(1, modulus)
        lam = [Fraction(0)] * m
        down = [Fraction(0)] * n
        up = [Fraction(0)] * n
        for j in lam_rows:
            lam[j] = w
        for i in down_coords:
            down[i] = w
        for i in up_coords:
            up[i] = w
        return cls(tuple(lam), tuple(down), tuple(up), modulus)


@dataclass(frozen=True)
class Cut:
    """A derived inequality ``coeffs . x <= rhs`` with its multipliers."""

    coeffs: tuple[int, ...]
    rhs: int
    provenance: Multipliers

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple([int(c) for c in self.coeffs]))
        object.__setattr__(self, "rhs", int(self.rhs))


@dataclass(frozen=True)
class ParityProfile:
    """Positions of the odd entries of A, by column and by row.

    ``column_odd_rows[i]`` lists the rows with an odd entry in column i and
    ``row_odd_columns[j]`` the columns with an odd entry in row j, both in
    index order.  At most two per column admits the minimum-cut separator,
    at most two per row the shortest-path one.
    """

    column_odd_rows: tuple[tuple[int, ...], ...]
    row_odd_columns: tuple[tuple[int, ...], ...]

    @property
    def column_odd_counts(self) -> tuple[int, ...]:
        return tuple([len(rows) for rows in self.column_odd_rows])

    @property
    def row_odd_counts(self) -> tuple[int, ...]:
        return tuple([len(cols) for cols in self.row_odd_columns])

    @property
    def column_method_ok(self) -> bool:
        return max(self.column_odd_counts) <= 2

    @property
    def row_method_ok(self) -> bool:
        return max(self.row_odd_counts) <= 2


def parity_profile(instance: IlpInstance) -> ParityProfile:
    """The odd positions of A, in one pass over its entries."""
    rows = tuple([tuple([i for i, a in enumerate(row) if a % 2]) for row in instance.A])
    cols: list[list[int]] = [[] for _ in range(instance.n)]
    for j, odd in enumerate(rows):
        for i in odd:
            cols[i].append(j)
    return ParityProfile(tuple(map(tuple, cols)), rows)


@dataclass(frozen=True)
class SeparationContext:
    """Everything the primal separators need about the pair (xhat, xstar).

    ``slack_one_rows`` holds the rows with slack exactly 1 at xhat (the only
    rows that can serve as the single non-tight inequality of a cut tight at
    xhat) and ``tight_rows`` the rows with slack 0.  Rows with slack >= 2 can
    never participate in such a cut and appear in neither set.

    Every cost at xstar is an integer numerator over ``scale``, the lcm of
    the denominators of xstar, so the separators add and compare integers
    and accept a candidate while its total stays below ``scale``.
    ``slack_star`` holds the row slacks at xstar.  For each coordinate i,
    ``tight_bound_cost[i]`` is the doubled cost at xstar of the bound row
    tight at xhat: selecting it with multiplier 1/2 flips the parity of i
    without adding slack at xhat, at the distance of xstar from xhat in i.
    ``slack_bound_cost[i]`` is the doubled cost of the bound row with slack
    exactly 1 at xhat, which can carry the single unit of slack a tight
    nontrivial cut owns, at the distance of xstar from the far side of the
    box.  Either is None when that side of the box is not part of the
    instance, or when xhat is not at 0 or 1 in the coordinate.  ``parity``
    holds the odd positions of A, which both separators read.
    """

    instance: IlpInstance
    xhat: Point
    xstar: Point
    slack_hat: tuple[int, ...]
    slack_star: tuple[int, ...]
    scale: int
    slack_one_rows: frozenset[int]
    tight_rows: frozenset[int]
    tight_bound_cost: tuple[int | None, ...]
    slack_bound_cost: tuple[int | None, ...]
    parity: ParityProfile


def compute_context(instance: IlpInstance, xhat: Sequence, xstar: Sequence) -> SeparationContext:
    """Validate the point pair and classify rows by their slack at xhat."""
    xhat = as_point(xhat)
    xstar = as_point(xstar)
    if len(xhat) != instance.n or len(xstar) != instance.n:
        raise DimensionMismatchError(
            f"points have {len(xhat)}/{len(xstar)} coordinates, instance has {instance.n}"
        )
    if not is_integral(xhat):
        raise NonIntegralPointError(f"xhat {' '.join(map(str, xhat))} is not integral")
    hat = instance.scaled_slacks(xhat)
    bad = _first_failure(instance, *hat)
    if bad is not None:
        raise InfeasiblePointError("xhat", bad)
    star = instance.scaled_slacks(xstar)
    bad = _first_failure(instance, *star)
    if bad is not None:
        raise InfeasiblePointError("xstar", bad)
    slack_hat = tuple(hat[0])  # xhat is integral, so its denominator is 1
    slack_star, xnum, scale = star
    ones = frozenset(j for j, s in enumerate(slack_hat) if s == 1)
    tight = frozenset(j for j, s in enumerate(slack_hat) if s == 0)
    tight_cost, slack_cost = [], []
    for h, v, low_ok, up_ok in zip(xhat, xnum, instance.lower_present, instance.upper_present):
        low = v if low_ok else None  # slack of -x_i <= 0
        up = scale - v if up_ok else None  # slack of x_i <= 1
        tight_cost.append(low if h == 0 else up if h == 1 else None)
        slack_cost.append(up if h == 0 else low if h == 1 else None)
    return SeparationContext(
        instance, xhat, xstar, slack_hat, tuple(slack_star), scale,
        ones, tight, tuple(tight_cost), tuple(slack_cost), parity_profile(instance),
    )


def selection_multipliers(
    ctx: SeparationContext, rows: Iterable[int], repaired: Iterable[int], carrier: int | None = None
) -> Multipliers:
    """Multipliers 1/2 on ``rows`` and on one bound row per named coordinate.

    Each coordinate in ``repaired`` gets its bound row tight at xhat, which
    fixes its parity at no slack; ``carrier`` gets its bound row with slack
    1 at xhat.  A coordinate named twice, or without that bound row, is a
    bug (InternalConsistencyError).
    """
    down, up = [], []
    named = [(i, False) for i in repaired] + ([] if carrier is None else [(carrier, True)])
    seen = set()
    for i, slack_side in named:
        cost = (ctx.slack_bound_cost if slack_side else ctx.tight_bound_cost)[i]
        if i in seen or cost is None:
            raise InternalConsistencyError(f"no free bound row to select at coordinate {i}")
        seen.add(i)
        # at xhat = 0 the lower row is the tight one and the upper has slack 1
        tight_is_lower = ctx.xhat[i] == 0
        (down if tight_is_lower != slack_side else up).append(i)
    return Multipliers.from_support(ctx.instance.m, ctx.instance.n, rows, down, up)


def _check_bound_usage(instance: IlpInstance, mult: Multipliers) -> None:
    if len(mult.lam) != instance.m:
        raise DimensionMismatchError(f"lam has {len(mult.lam)} entries for {instance.m} rows")
    if len(mult.mu_down) != instance.n:
        raise DimensionMismatchError(f"mu vectors have {len(mult.mu_down)} entries for {instance.n} columns")
    for i in range(instance.n):
        if mult.mu_down[i] and not instance.lower_present[i]:
            raise MultiplierError(f"mu_down used at coordinate {i + 1} but the lower bound is absent")
        if mult.mu_up[i] and not instance.upper_present[i]:
            raise MultiplierError(f"mu_up used at coordinate {i + 1} but the upper bound is absent")


def _numerators(values: Sequence[Fraction], q: int) -> list[int]:
    """Grid entries k/q as their numerators k."""
    return [v.numerator * (q // v.denominator) for v in values]


def _rhs_num(instance: IlpInstance, lam: Sequence[int], up: Sequence[int]) -> int:
    return sum([p * bv for p, bv in zip(lam, instance.b) if p]) + sum(up)


def cut_numerators(instance: IlpInstance, lam, down, up, q: int) -> tuple[tuple[int, ...], int]:
    """Integer coefficients and floored rhs of the cut with multipliers ``lam/q, down/q, up/q``.

    The three vectors are integer numerators, and only the rows in the support
    of ``lam`` are read.  Raises NonIntegralCutError at the first coordinate
    where q does not divide ``lam.A_i - down[i] + up[i]``.
    """
    acc = [0] * instance.n
    for p, row in zip(lam, instance.A):
        if p:
            acc = [c + p * a for c, a in zip(acc, row)]
    coeffs = []
    for i, (c, d, u) in enumerate(zip(acc, down, up)):
        coeff, rest = divmod(c - d + u, q)
        if rest:
            raise NonIntegralCutError(
                f"coefficient {Fraction(c - d + u, q)} at coordinate {i + 1} is not integral"
            )
        coeffs.append(coeff)
    return tuple(coeffs), _rhs_num(instance, lam, up) // q


def unfloored_rhs(instance: IlpInstance, mult: Multipliers) -> Fraction:
    """Weighted right-hand side before rounding: lam.b + mu_up.1."""
    q = mult.modulus
    return Fraction(_rhs_num(instance, _numerators(mult.lam, q), _numerators(mult.mu_up, q)), q)


def derive_cut(instance: IlpInstance, mult: Multipliers) -> Cut:
    """Combine rows and bound rows, then round the right-hand side down.

    The i-th coefficient is ``lam.A_i - mu_down[i] + mu_up[i]`` and must come
    out integral, otherwise NonIntegralCutError is raised.
    """
    _check_bound_usage(instance, mult)
    q = mult.modulus
    nums = [_numerators(v, q) for v in (mult.lam, mult.mu_down, mult.mu_up)]
    return Cut(*cut_numerators(instance, *nums, q), mult)


def _slack_num(mult: Multipliers, slacks: Sequence[int], xnum: Sequence[int], denom: int) -> int:
    """Extended slack of mult times q * denom, from the integer slacks of a point."""
    q = mult.modulus
    return (
        sum([p * s for p, s in zip(_numerators(mult.lam, q), slacks) if p])
        + sum([d * v for d, v in zip(_numerators(mult.mu_down, q), xnum) if d])
        + sum([u * (denom - v) for u, v in zip(_numerators(mult.mu_up, q), xnum) if u])
    )


def extended_slack(instance: IlpInstance, mult: Multipliers, point: Sequence[Fraction]) -> Fraction:
    """Weighted slack of all selected rows (bound rows included) at a point."""
    slacks, xnum, denom = instance.scaled_slacks(point)
    return Fraction(_slack_num(mult, slacks, xnum, denom), mult.modulus * denom)


def _tight_nontrivial(ctx: SeparationContext, mult: Multipliers) -> bool:
    """Extended slack at xhat is exactly 1/2, read from ctx.slack_hat."""
    xhat = [v.numerator for v in ctx.xhat]
    return 2 * _slack_num(mult, ctx.slack_hat, xhat, 1) == mult.modulus


def is_tight_nontrivial(ctx: SeparationContext, mult: Multipliers) -> bool:
    """True iff the weighted slack at xhat is exactly 1/2.

    For modulus 2 this is equivalent to: the derived cut is satisfied with
    equality at xhat and the rounding step actually lost something (the
    unfloored right-hand side is not integral).
    """
    derive_cut(ctx.instance, mult)  # raises if the multipliers are unusable
    return _tight_nontrivial(ctx, mult)


def accept_cut(ctx: SeparationContext, mult: Multipliers, total: int) -> tuple[Cut, Fraction]:
    """The cut of a separator's accepted candidate and its violation, certified.

    ``total`` is the candidate's doubled extended slack at xstar, over
    ``ctx.scale``.  The cut must have doubled slack exactly 1 at xhat and
    violation ``(scale - total) / (2 * scale)`` at xstar; anything else is
    a bug (InternalConsistencyError).  The violation is checked in integers:
    over ``scale`` it is ``coeffs . xnum - rhs * scale``, with ``xnum`` the
    numerators of xstar.
    """
    cut = derive_cut(ctx.instance, mult)
    if not _tight_nontrivial(ctx, mult):
        raise InternalConsistencyError("accepted cut is not tight at xhat")
    xnum, scale = scale_point(ctx.xstar)
    lhs = sum(map(mul, cut.coeffs, xnum))
    if 2 * (lhs - cut.rhs * scale) != scale - total:
        raise InternalConsistencyError("candidate cost does not match the violation")
    return cut, Fraction(scale - total, 2 * scale)


def violation(cut: Cut, xstar: Sequence[Fraction]) -> Fraction:
    """coeffs . xstar - rhs; positive iff xstar violates the cut."""
    if len(xstar) != len(cut.coeffs):
        raise DimensionMismatchError("point dimension does not match the cut")
    lhs = sum((c * Fraction(v) for c, v in zip(cut.coeffs, xstar)), Fraction(0))
    return lhs - cut.rhs


def objective_of(
    instance: IlpInstance, objective: Sequence | None = None, nonnegative: bool = False
) -> tuple:
    """The given objective, else the one stored on the instance.

    ``nonnegative`` demands what the (1 + eps) sandwich of the closure
    approximation needs and raises MethodNotApplicableError on a negative
    entry.
    """
    if objective is None:
        objective = instance.objective
    if objective is None:
        raise ZeroHalfError("no objective given and none stored on the instance")
    if nonnegative and any(c < 0 for c in objective):
        raise MethodNotApplicableError("the approximation needs a nonnegative objective")
    return tuple(objective)


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of one separation attempt.

    calls counts invocations of the graph subroutine: one minimum cut per
    candidate for the column method, one shortest path per candidate with
    a path to find for the row method (a candidate without one skips the
    graph and does not count).
    """

    cut: Cut | None
    violation: Fraction | None
    calls: int
