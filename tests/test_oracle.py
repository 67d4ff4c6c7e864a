"""Tests for the brute-force reference layer."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from zerohalf.core import (
    BudgetExceededError,
    IlpInstance,
    Multipliers,
    ZeroHalfError,
    compute_context,
    derive_cut,
    violation,
)
from zerohalf.oracle import (
    brute_closure_optimize,
    brute_max_matching,
    brute_primal_separate,
    brute_standard_separate,
    enumerate_cut_rows,
)

from conftest import enumerate_valid_multipliers, triangle_instance

HALF = Fraction(1, 2)


def naive_valid_multipliers(inst, q):
    """Filter the full multiplier grid through the public validity checks."""
    grid = [Fraction(k, q) for k in range(q)]
    out = []
    for lam in itertools.product(grid, repeat=inst.m):
        for down in itertools.product(grid, repeat=inst.n):
            for up in itertools.product(grid, repeat=inst.n):
                try:
                    mult = Multipliers(lam, down, up, modulus=q)
                    derive_cut(inst, mult)
                except ZeroHalfError:
                    continue
                out.append((lam, down, up))
    return out


class TestEnumeration:
    def test_matches_naive_filter_on_triangle(self, triangle):
        got = {
            (m.lam, m.mu_down, m.mu_up)
            for m in enumerate_valid_multipliers(triangle)
        }
        assert got == set(naive_valid_multipliers(triangle, 2))

    def test_matches_naive_filter_mod_three_with_negatives(self):
        inst = IlpInstance(
            A=((2, -1), (1, 1)),
            b=(3, 2),
            lower_present=(True, False),
            upper_present=(True, True),
        )
        got = {
            (m.lam, m.mu_down, m.mu_up)
            for m in enumerate_valid_multipliers(inst, modulus=3)
        }
        assert got == set(naive_valid_multipliers(inst, 3))
        assert all(m.modulus == 3 for m in enumerate_valid_multipliers(inst, modulus=3))

    def test_support_bound_caps_lambda_weight(self, triangle):
        bounded = list(enumerate_valid_multipliers(triangle, support_bound=HALF))
        assert bounded
        for mult in bounded:
            assert sum(mult.lam) <= HALF
        # the blossom multiplier needs weight 3/2, so it must be absent
        assert all(mult.lam != (HALF, HALF, HALF) for mult in bounded)

    def test_budget_is_enforced(self, triangle):
        with pytest.raises(BudgetExceededError):
            list(enumerate_valid_multipliers(triangle, budget=5))


class TestStandardSeparation:
    def test_blossom_is_most_violated_on_triangle(self, triangle):
        xstar = (HALF, HALF, HALF)
        cut = brute_standard_separate(triangle, xstar)
        assert cut is not None
        assert cut.coeffs == (1, 1, 1)
        assert cut.rhs == 1
        assert violation(cut, xstar) == HALF
        assert cut.provenance.lam == (HALF, HALF, HALF)

    def test_no_cut_at_interior_point(self, triangle):
        assert brute_standard_separate(triangle, (Fraction(1, 3),) * 3) is None

    def test_no_cut_at_integral_point(self, triangle):
        assert brute_standard_separate(triangle, (1, 0, 0)) is None

    def test_returned_cut_is_valid_for_integral_points(self):
        inst = IlpInstance(
            A=((2, 1, 0), (1, 0, 3), (0, 1, 1)),
            b=(3, 3, 1),
            lower_present=(True, True, True),
            upper_present=(True, True, True),
        )
        cut = brute_standard_separate(
            inst, (Fraction(3, 4), Fraction(1, 4), Fraction(3, 4))
        )
        assert cut is not None
        for point in itertools.product((0, 1), repeat=3):
            if inst.feasibility_failure(point) is None:
                assert sum(c * v for c, v in zip(cut.coeffs, point)) <= cut.rhs


class TestPrimalSeparation:
    def test_blossom_survives_tightness_filter(self, triangle):
        ctx = compute_context(triangle, (1, 0, 0), (HALF, HALF, HALF))
        cut = brute_primal_separate(ctx)
        assert cut is not None
        assert (cut.coeffs, cut.rhs) == ((1, 1, 1), 1)

    def test_tightness_filter_can_reject_all(self, triangle):
        # at xstar = xhat nothing is violated at all
        ctx = compute_context(triangle, (1, 0, 0), (1, 0, 0))
        assert brute_primal_separate(ctx) is None

    def test_primal_cut_is_tight_at_xhat(self):
        inst = IlpInstance(
            A=((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)),
            b=(1, 1, 1, 1),
            lower_present=(True,) * 4,
            upper_present=(True,) * 4,
        )
        xhat = (1, 0, 1, 0)
        xstar = (HALF, HALF, HALF, HALF)
        ctx = compute_context(inst, xhat, xstar)
        cut = brute_primal_separate(ctx)
        if cut is not None:
            lhs_hat = sum(c * v for c, v in zip(cut.coeffs, xhat))
            assert lhs_hat == cut.rhs
            assert violation(cut, xstar) > 0


class TestCutRows:
    def test_coefficient_vectors_are_unique(self, triangle):
        cuts = enumerate_cut_rows(triangle)
        assert len({c.coeffs for c in cuts}) == len(cuts)

    def test_keeps_tightest_rhs_per_vector(self, triangle):
        cuts = {c.coeffs: c.rhs for c in enumerate_cut_rows(triangle)}
        for mult in enumerate_valid_multipliers(triangle):
            cut = derive_cut(triangle, mult)
            assert cuts[cut.coeffs] <= cut.rhs

    def test_blossom_row_present(self, triangle):
        cuts = {(c.coeffs, c.rhs) for c in enumerate_cut_rows(triangle)}
        assert ((1, 1, 1), 1) in cuts

    def test_rows_only_forbids_bound_repairs(self):
        # lam = 1/2 on the single row leaves coordinate 0 fractional, so it
        # is valid only with a bound-row rounding, which rows_only bans.
        inst = IlpInstance(
            A=((1, 2),),
            b=(1,),
            lower_present=(True, True),
            upper_present=(True, True),
        )
        plain = enumerate_cut_rows(inst, rows_only=True)
        assert [(c.coeffs, c.rhs) for c in plain] == []
        repaired = enumerate_cut_rows(inst)
        assert any(c.provenance.mu_down != (0, 0) or c.provenance.mu_up != (0, 0)
                   for c in repaired)


class TestClosureOptimum:
    def test_triangle_closure_is_integral(self):
        inst = triangle_instance(objective=(1, 1, 1))
        value, point = brute_closure_optimize(inst)
        assert value == 1
        assert sum(point) <= 1

    def test_explicit_objective_overrides_stored(self):
        inst = triangle_instance(objective=(1, 1, 1))
        value, _ = brute_closure_optimize(inst, objective=(0, 0, 1))
        assert value == 1

    def test_missing_objective_rejected(self, triangle):
        with pytest.raises(ZeroHalfError):
            brute_closure_optimize(triangle)


class TestModulus:
    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_modulus_below_two_is_rejected(self, q):
        inst = triangle_instance(objective=(1, 1, 1))
        msg = "modulus must be an integer of at least 2"
        with pytest.raises(ZeroHalfError, match=msg):
            brute_closure_optimize(inst, None, q)
        with pytest.raises(ZeroHalfError, match=msg):
            brute_standard_separate(inst, (HALF, HALF, HALF), q)
        with pytest.raises(ZeroHalfError, match=msg):
            enumerate_cut_rows(inst, q)

    def test_huge_modulus_exceeds_the_budget_up_front(self, triangle):
        # the grid has q^3 vectors; range(q) itself must never be built
        with pytest.raises(BudgetExceededError, match="more than 1048576"):
            enumerate_cut_rows(triangle, 10**12)
        with pytest.raises(BudgetExceededError):
            brute_standard_separate(triangle, (HALF, HALF, HALF), 10**12)


class TestBruteMatching:
    def test_unit_path_picks_outer_edges(self):
        graph = SimpleNamespace(edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)))
        weight, picked = brute_max_matching(graph)
        assert weight == 2
        assert picked == (0, 2)

    def test_weighted_tradeoff(self):
        # taking the heavy middle edge blocks both unit edges
        graph = SimpleNamespace(edges=((0, 1, 3), (2, 3, 3), (0, 2, 5)))
        weight, picked = brute_max_matching(graph)
        assert weight == 6
        assert picked == (0, 1)

    def test_empty_edge_list(self):
        weight, picked = brute_max_matching(SimpleNamespace(edges=()))
        assert (weight, picked) == (0, ())

    def test_explicit_weights_override(self):
        graph = SimpleNamespace(edges=((0, 1, 1), (1, 2, 1)))
        weight, picked = brute_max_matching(graph, weights=[0, 7])
        assert (weight, picked) == (7, (1,))

    def test_negative_weight_rejected(self):
        graph = SimpleNamespace(edges=((0, 1, -1),))
        with pytest.raises(ZeroHalfError):
            brute_max_matching(graph)

    def test_size_cap(self):
        edges = tuple((0, k + 1, 1) for k in range(25))
        with pytest.raises(BudgetExceededError):
            brute_max_matching(SimpleNamespace(edges=edges))
