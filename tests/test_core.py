import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from zerohalf.core import (
    DimensionMismatchError,
    IlpInstance,
    InfeasiblePointError,
    InternalConsistencyError,
    Multipliers,
    MultiplierError,
    NonIntegralCutError,
    NonIntegralPointError,
    accept_cut,
    as_point,
    compute_context,
    derive_cut,
    extended_slack,
    is_integral,
    is_tight_nontrivial,
    parity_profile,
    selection_multipliers,
    unfloored_rhs,
    violation,
)

HALF = Fraction(1, 2)


class TestComputeContext:
    def test_triangle_classification(self, triangle, triangle_points):
        xhat, xstar = triangle_points
        ctx = compute_context(triangle, xhat, xstar)
        assert ctx.slack_hat == (0, 0, 1)
        assert ctx.slack_one_rows == {2}
        assert ctx.tight_rows == {0, 1}
        assert ctx.slack_star == (Fraction(0),) * 3

    def test_rows_with_larger_slack_in_neither_set(self):
        inst = IlpInstance(((1, 0), (0, 1)), (3, 1), (True, True), (False, False))
        ctx = compute_context(inst, (0, 0), (0, 0))
        assert ctx.slack_one_rows == {1}
        assert ctx.tight_rows == frozenset()

    def test_fractional_xhat_rejected(self, triangle):
        with pytest.raises(NonIntegralPointError):
            compute_context(triangle, (HALF, 0, 0), (0, 0, 0))

    def test_infeasible_points_reported_by_role(self, triangle):
        with pytest.raises(InfeasiblePointError) as e:
            compute_context(triangle, (1, 1, 0), (0, 0, 0))
        assert e.value.role == "xhat"
        with pytest.raises(InfeasiblePointError) as e:
            compute_context(triangle, (1, 0, 0), (1, 1, 1))
        assert e.value.role == "xstar"

    def test_point_errors_read_as_the_files_do(self, triangle):
        # points as "p/q" tokens, rows and coordinates numbered from 1
        with pytest.raises(NonIntegralPointError, match=r"^xhat 1/2 0 0 is not integral$"):
            compute_context(triangle, (HALF, 0, 0), (0, 0, 0))
        with pytest.raises(InfeasiblePointError, match=r"^xhat infeasible: row 1 violated$"):
            compute_context(triangle, (1, 1, 0), (0, 0, 0))
        assert triangle.feasibility_failure((0, 0, -HALF)) == (
            "lower bound at coordinate 3 violated"
        )

    def test_dimension_mismatch(self, triangle):
        with pytest.raises(DimensionMismatchError):
            compute_context(triangle, (1, 0), (0, 0, 0))

    def test_bound_feasibility_respects_flags(self):
        # no lower bound on x0, so a negative xhat coordinate is fine
        inst = IlpInstance(((1, 0), (0, 1)), (2, 2), (False, True), (False, True))
        ctx = compute_context(inst, (-3, 1), (-3, 1))
        assert ctx.slack_hat == (5, 1)


class TestDeriveCut:
    def test_blossom(self, triangle):
        mult = Multipliers.from_support(3, 3, lam_rows=(0, 1, 2))
        cut = derive_cut(triangle, mult)
        assert cut.coeffs == (1, 1, 1)
        assert cut.rhs == 1  # floor(3/2)
        assert cut.provenance is mult

    def test_fractional_column_rejected(self, triangle):
        with pytest.raises(NonIntegralCutError):
            derive_cut(triangle, Multipliers.from_support(3, 3, lam_rows=(0,)))

    def test_bound_rows_repair_coefficients(self, triangle):
        mult = Multipliers.from_support(3, 3, lam_rows=(0,), up_coords=(0, 1))
        cut = derive_cut(triangle, mult)
        assert cut.coeffs == (1, 1, 0)
        assert cut.rhs == 1  # floor(1/2 + 1)
        assert unfloored_rhs(triangle, mult) == Fraction(3, 2)

    def test_rounding_down_lowers_coefficient(self, triangle):
        mult = Multipliers.from_support(3, 3, lam_rows=(0,), down_coords=(0, 1))
        cut = derive_cut(triangle, mult)
        assert cut.coeffs == (0, 0, 0)
        assert cut.rhs == 0

    def test_missing_bound_rejected(self):
        inst = IlpInstance(((1, 1),), (1,), (False, True), (True, False))
        with pytest.raises(MultiplierError):
            derive_cut(inst, Multipliers.from_support(1, 2, lam_rows=(0,), down_coords=(0,), up_coords=(1,)))

    def test_both_mu_sides_rejected_at_construction(self):
        with pytest.raises(MultiplierError):
            Multipliers((HALF,), (HALF,), (HALF,))

    def test_grid_violation_rejected(self):
        with pytest.raises(MultiplierError):
            Multipliers((Fraction(1, 3),), (Fraction(0),), (Fraction(0),), modulus=2)

    def test_grid_check_agrees_with_the_fraction_form(self):
        # the former check multiplied each entry by q in Fraction arithmetic
        rng = random.Random("core/grid-check")
        values = [Fraction(k, 12) for k in range(-13, 26)]  # every grid point of q | 12
        values += [Fraction(rng.randrange(-30, 31), rng.randrange(1, 25)) for _ in range(600)]
        seen = Counter()
        for q in (2, 3, 4, 6):
            grid = ", ".join(["0"] + [f"{k}/{q}" for k in range(1, q)])
            for v in values:
                on_grid = not (v < 0 or v >= 1 or (v * q).denominator != 1)
                seen[q, on_grid] += 1
                for field in range(3):
                    entries = [(Fraction(0),), (Fraction(0),), (Fraction(0),)]
                    entries[field] = (v,)
                    if on_grid:
                        Multipliers(*entries, modulus=q)
                        continue
                    name = ("lam", "mu_down", "mu_up")[field]
                    with pytest.raises(MultiplierError) as err:
                        Multipliers(*entries, modulus=q)
                    assert str(err.value) == f"{name} entry {v} not in {{{grid}}}"
        for q in (2, 3, 4, 6):
            assert seen[q, True] >= q and seen[q, False] >= 400

    @pytest.mark.parametrize("modulus", [2.0, "2", 1])
    def test_modulus_must_be_an_integer_of_at_least_two(self, modulus):
        with pytest.raises(MultiplierError, match="modulus"):
            Multipliers((HALF,), (0,), (0,), modulus)


class _Half(Fraction):
    """A Fraction subclass: entries of this type are still rewrapped."""


class TestNormalisation:
    """Exact Fractions are kept as they are; anything else becomes one."""

    MIXED = (_Half(1, 2), 0, "1/2", Fraction(0))

    def test_point_entries_become_fractions(self):
        point = as_point(self.MIXED)
        assert point == (HALF, 0, HALF, 0)
        assert all(type(v) is Fraction for v in point)
        exact = Fraction(3, 4)
        assert as_point([exact])[0] is exact

    def test_multiplier_entries_become_fractions(self):
        mult = Multipliers(self.MIXED, (0, "0", _Half(1, 2)), ("1/2", _Half(0), 0))
        for values in (mult.lam, mult.mu_down, mult.mu_up):
            assert all(type(v) is Fraction for v in values)
        assert mult == Multipliers((HALF, 0, HALF, 0), (0, 0, HALF), (HALF, 0, 0))

    def test_integrality_of_mixed_entries(self):
        assert is_integral((_Half(2, 1), 3, "4/2", Fraction(1)))
        assert not is_integral((0, "1/2"))
        assert not is_integral((_Half(1, 3),))


class TestAcceptCut:
    def test_blossom_is_certified_with_its_violation(self, triangle, triangle_points):
        ctx = compute_context(triangle, *triangle_points)
        mult = Multipliers.from_support(3, 3, lam_rows=(0, 1, 2))
        # doubled slack at xstar = (1/2, 1/2, 1/2): each row has slack 0
        cut, gap = accept_cut(ctx, mult, 0)
        assert cut == derive_cut(triangle, mult)
        assert gap == violation(cut, ctx.xstar) == HALF
        assert type(gap) is Fraction

    @pytest.mark.parametrize("total", [1, -1, 2, 7])
    def test_a_corrupted_total_is_caught(self, triangle, triangle_points, total):
        ctx = compute_context(triangle, *triangle_points)
        mult = Multipliers.from_support(3, 3, lam_rows=(0, 1, 2))
        with pytest.raises(InternalConsistencyError, match="does not match the violation"):
            accept_cut(ctx, mult, total)

    def test_a_cut_not_tight_at_xhat_is_caught(self, triangle):
        ctx = compute_context(triangle, (0, 0, 0), (HALF, HALF, HALF))
        with pytest.raises(InternalConsistencyError, match="not tight"):
            accept_cut(ctx, Multipliers.from_support(3, 3, lam_rows=(0, 1, 2)), 0)

    def test_violation_over_a_mixed_denominator(self):
        # xstar = (1/3, 1/6) has scale 6; the cut x0 + x1 <= 0 of row 0
        inst = IlpInstance(((2, 2), (1, -1)), (1, 5), (True, True), (True, True))
        ctx = compute_context(inst, (0, 0), (Fraction(1, 3), Fraction(1, 6)))
        mult = Multipliers.from_support(2, 2, lam_rows=(0,))
        cut = derive_cut(inst, mult)
        assert (cut.coeffs, cut.rhs) == ((1, 1), 0)
        want = violation(cut, ctx.xstar)
        total = ctx.scale - 2 * ctx.scale * want
        assert ctx.scale == 6
        assert accept_cut(ctx, mult, total)[1] == want == HALF
        with pytest.raises(InternalConsistencyError):
            accept_cut(ctx, mult, total + 1)


class TestTightNontrivial:
    def test_blossom_is_tight(self, triangle, triangle_points):
        ctx = compute_context(triangle, *triangle_points)
        assert is_tight_nontrivial(ctx, Multipliers.from_support(3, 3, lam_rows=(0, 1, 2)))

    def test_mixed_bound_multipliers(self, triangle, triangle_points):
        # lam on rows 0 and 2, round coordinate 0 up and coordinate 2 down:
        # weighted slack at (1,0,0) is 0 + 1/2*1 + 1/2*(1-1) + 1/2*0 = 1/2.
        ctx = compute_context(triangle, *triangle_points)
        mult = Multipliers.from_support(3, 3, lam_rows=(0, 2), up_coords=(0,), down_coords=(2,))
        assert extended_slack(triangle, mult, ctx.xhat) == HALF
        assert is_tight_nontrivial(ctx, mult)
        cut = derive_cut(triangle, mult)
        assert cut.coeffs == (1, 1, 0)
        assert violation(cut, ctx.xhat) == 0  # tight at xhat

    def test_slack_row_selection_not_tight(self, triangle, triangle_points):
        ctx = compute_context(triangle, *triangle_points)
        # rows 0 and 1 are both tight, their combination has weighted slack 0
        mult = Multipliers.from_support(3, 3, lam_rows=(0, 1), down_coords=(1, 2))
        assert extended_slack(triangle, mult, ctx.xhat) == 0
        assert not is_tight_nontrivial(ctx, mult)

    def test_equivalent_to_equality_plus_fractional_rhs(self, triangle, triangle_points):
        # exhaustive check of the modulus-2 equivalence on the triangle
        ctx = compute_context(triangle, *triangle_points)
        coords = list(itertools.product((0, 1, 2), repeat=3))
        for lam_bits in itertools.product((0, 1), repeat=3):
            for mu_choice in coords:
                down = tuple(i for i in range(3) if mu_choice[i] == 1)
                up = tuple(i for i in range(3) if mu_choice[i] == 2)
                mult = Multipliers.from_support(
                    3, 3, lam_rows=[j for j in range(3) if lam_bits[j]],
                    down_coords=down, up_coords=up,
                )
                try:
                    cut = derive_cut(triangle, mult)
                except NonIntegralCutError:
                    continue
                lhs_at_xhat = violation(cut, ctx.xhat)
                tight = lhs_at_xhat == 0
                nontrivial = unfloored_rhs(triangle, mult).denominator != 1
                assert is_tight_nontrivial(ctx, mult) == (tight and nontrivial)


class TestViolation:
    def test_blossom_violated_by_half_point(self, triangle, triangle_points):
        _, xstar = triangle_points
        cut = derive_cut(triangle, Multipliers.from_support(3, 3, lam_rows=(0, 1, 2)))
        assert violation(cut, xstar) == HALF

    def test_blossom_tight_at_third_point(self, triangle):
        cut = derive_cut(triangle, Multipliers.from_support(3, 3, lam_rows=(0, 1, 2)))
        assert violation(cut, as_point((Fraction(1, 3),) * 3)) == 0

    def test_matches_slack_form_for_nontrivial_cuts(self, triangle, triangle_points):
        ctx = compute_context(triangle, *triangle_points)
        mult = Multipliers.from_support(3, 3, lam_rows=(0, 1, 2))
        cut = derive_cut(triangle, mult)
        assert violation(cut, ctx.xstar) == HALF - extended_slack(triangle, mult, ctx.xstar)


class TestValidity:
    def test_every_cut_holds_at_integral_points(self):
        # any derived cut must be satisfied by every 0/1 point of the system
        inst = IlpInstance(
            ((2, 1, 0), (1, 1, 1), (0, 3, 1)),
            (2, 2, 3),
            (True, True, True),
            (True, True, True),
        )
        points = [p for p in itertools.product((0, 1), repeat=3)
                  if inst.feasibility_failure(as_point(p)) is None]
        assert points
        for lam_bits in itertools.product((0, 1), repeat=3):
            for down in itertools.product((0, 1), repeat=3):
                for up in itertools.product((0, 1), repeat=3):
                    if any(d and u for d, u in zip(down, up)):
                        continue
                    mult = Multipliers.from_support(
                        3, 3,
                        lam_rows=[j for j in range(3) if lam_bits[j]],
                        down_coords=[i for i in range(3) if down[i]],
                        up_coords=[i for i in range(3) if up[i]],
                    )
                    try:
                        cut = derive_cut(inst, mult)
                    except NonIntegralCutError:
                        continue
                    for p in points:
                        assert violation(cut, as_point(p)) <= 0


class TestSelectionMultipliers:
    """Bound rows by their slack at xhat = (1, 0, 0): the upper row of x0
    and the lower row of x1 are tight, the other two have slack 1."""

    def test_repaired_take_the_tight_row_and_the_carrier_the_slack_one(self, triangle):
        ctx = compute_context(triangle, (1, 0, 0), (HALF, HALF, HALF))
        mult = selection_multipliers(ctx, [2], [0], carrier=1)
        assert mult == Multipliers((0, 0, HALF), (0, 0, 0), (HALF, HALF, 0))
        mult = selection_multipliers(ctx, [0], [1], carrier=0)
        assert mult == Multipliers((HALF, 0, 0), (HALF, HALF, 0), (0, 0, 0))
        assert selection_multipliers(ctx, [0, 1], []) == Multipliers((HALF, HALF, 0), (0,) * 3, (0,) * 3)

    @pytest.mark.parametrize("repaired, carrier", [([1, 1], None), ([1], 1), ([2], None), ([], 2)])
    def test_coordinate_named_twice_or_without_that_row(self, repaired, carrier):
        # x2 has no bound rows at all
        inst = IlpInstance(((1, 1, 1),), (1,), (True, True, False), (True, True, False))
        ctx = compute_context(inst, (1, 0, 0), (HALF, HALF, 0))
        with pytest.raises(InternalConsistencyError):
            selection_multipliers(ctx, [0], repaired, carrier)


class TestParityProfile:
    def test_triangle_odd_positions(self, triangle):
        prof = parity_profile(triangle)
        assert prof.column_odd_rows == ((0, 1), (0, 2), (1, 2))
        assert prof.row_odd_columns == ((0, 1), (0, 2), (1, 2))

    def test_odd_positions_with_a_three_odd_column(self):
        inst = IlpInstance(((1, 2, 3), (-1, 0, 2), (3, 1, 0)), (1, 1, 1), (True,) * 3, (True,) * 3)
        prof = parity_profile(inst)
        assert prof.column_odd_rows == ((0, 1, 2), (2,), (0,))
        assert prof.row_odd_columns == ((0, 2), (0,), (0, 1))
        assert prof.column_odd_counts == (3, 1, 1) and prof.row_odd_counts == (2, 1, 2)
        assert not prof.column_method_ok and prof.row_method_ok

    def test_context_carries_the_profile(self, triangle, triangle_points):
        assert compute_context(triangle, *triangle_points).parity == parity_profile(triangle)

    def test_triangle_is_two_odd_everywhere(self, triangle):
        prof = parity_profile(triangle)
        assert prof.column_odd_counts == (2, 2, 2)
        assert prof.row_odd_counts == (2, 2, 2)
        assert prof.column_method_ok and prof.row_method_ok

    def test_dense_odd_matrix_fails_both(self):
        inst = IlpInstance(((1, 1), (1, 1), (1, 3)), (1, 1, 1), (True,) * 2, (True,) * 2)
        prof = parity_profile(inst)
        assert prof.column_odd_counts == (3, 3)
        assert not prof.column_method_ok
        assert prof.row_method_ok

    def test_negative_entries_count_by_parity(self):
        inst = IlpInstance(((-1, 2), (-3, -2)), (1, 1), (True,) * 2, (True,) * 2)
        prof = parity_profile(inst)
        assert prof.column_odd_counts == (2, 0)
        assert prof.row_odd_counts == (1, 1)
