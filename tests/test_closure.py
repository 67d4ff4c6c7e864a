"""Bounded-support closure approximation: presolve, cut family, optimum."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerohalf import closure
from zerohalf.closure import (
    ApproxParams,
    approx_optimize,
    enumerate_bounded_cuts,
    k_of_epsilon,
    monotone_presolve,
)
from zerohalf.core import (
    BudgetExceededError,
    IlpInstance,
    LpUnboundedError,
    MethodNotApplicableError,
    PresolveError,
    ZeroHalfError,
)
from zerohalf.oracle import brute_closure_optimize, enumerate_cut_rows
from zerohalf.simplex import LpStatus, lp_solve

from conftest import triangle_instance
from reference_enumerator import enumerate_bounded_cuts as reference_bounded_cuts
from reference_kernel import kernel_multipliers as reference_kernel_multipliers
from reference_simplex import box_rows

F = Fraction
H = Fraction(1, 2)


# ---------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "eps, k",
    [(1, 2), (F(1, 2), 3), (F(1, 10), 11), (F(1, 4), 5), (F(2, 3), 3), (3, 2)],
)
def test_weight_bound_from_epsilon(eps, k):
    assert k_of_epsilon(eps) == k


def test_epsilon_must_be_positive():
    with pytest.raises(ZeroHalfError):
        k_of_epsilon(0)
    with pytest.raises(ZeroHalfError):
        k_of_epsilon(F(-1, 3))


def test_params_derive_k_and_check_modulus():
    p = ApproxParams(epsilon=F(1, 2))
    assert p.k == 3 and p.modulus == 2
    assert ApproxParams(epsilon=1, modulus=3).k == 2
    with pytest.raises(ZeroHalfError):
        ApproxParams(epsilon=1, modulus=1)
    with pytest.raises(ZeroHalfError):
        ApproxParams(epsilon=1, modulus=F(5, 2))


# ------------------------------------------------------------------ presolve


def test_presolve_fixes_support_of_zero_rows():
    # x1 + x2 <= 0 forces x1 = x2 = 0; the second row then involves x3 only.
    inst = IlpInstance(
        A=((1, 1, 0), (0, 1, 1)),
        b=(0, 2),
        lower_present=(True, True, True),
        upper_present=(False, False, False),
    )
    reduced, report = monotone_presolve(inst)
    assert report.fixed_coords == (0, 1)
    assert report.dropped_rows == (0,)
    assert report.kept_coords == (2,)
    assert report.kept_rows == (1,)
    assert reduced.A == ((1,),) and reduced.b == (2,)
    assert report.lift((F(7, 3),)) == (F(0), F(0), F(7, 3))


def test_presolve_keeps_positive_instances_intact():
    inst = triangle_instance()
    reduced, report = monotone_presolve(inst)
    assert reduced == inst
    assert report.fixed_coords == () and report.dropped_rows == ()


def test_presolve_drops_empty_zero_rows_without_fixing():
    inst = IlpInstance(
        A=((0, 0), (1, 1)),
        b=(0, 1),
        lower_present=(True, True),
        upper_present=(True, True),
    )
    reduced, report = monotone_presolve(inst)
    assert report.dropped_rows == (0,) and report.fixed_coords == ()
    assert reduced.A == ((1, 1),)


def test_presolve_can_consume_everything():
    inst = IlpInstance(
        A=((1, 1),),
        b=(0,),
        lower_present=(True, True),
        upper_present=(False, False),
    )
    reduced, report = monotone_presolve(inst)
    assert reduced is None
    assert report.fixed_coords == (0, 1) and report.kept_rows == ()


def test_presolve_preconditions():
    neg_entry = IlpInstance(
        A=((1, -1),), b=(0,), lower_present=(True, True), upper_present=(True, True)
    )
    with pytest.raises(PresolveError):
        monotone_presolve(neg_entry)
    no_lower = IlpInstance(
        A=((1, 1),), b=(0,), lower_present=(True, False), upper_present=(True, True)
    )
    with pytest.raises(PresolveError):
        monotone_presolve(no_lower)
    neg_rhs = IlpInstance(
        A=((1, 1),), b=(-1,), lower_present=(True, True), upper_present=(True, True)
    )
    with pytest.raises(PresolveError):
        monotone_presolve(neg_rhs)


def test_presolve_restricts_objective():
    inst = IlpInstance(
        A=((1, 0, 0), (0, 1, 1)),
        b=(0, 3),
        lower_present=(True, True, True),
        upper_present=(False, False, False),
        objective=(5, 7, 9),
    )
    reduced, _ = monotone_presolve(inst)
    assert reduced.objective == (7, 9)


# ---------------------------------------------------------------- cut family


def test_triangle_family_contains_the_odd_cycle_cut():
    cuts = enumerate_bounded_cuts(triangle_instance(), ApproxParams(epsilon=1))
    table = {c.coeffs: c.rhs for c in cuts}
    assert table[(F(1), F(1), F(1))] == 1


def test_single_row_halving():
    inst = IlpInstance(
        A=((2,),), b=(3,), lower_present=(True,), upper_present=(True,)
    )
    cuts = enumerate_bounded_cuts(inst, ApproxParams(epsilon=1))
    assert [(c.coeffs, c.rhs) for c in cuts] == [((F(1),), 1)]


def test_rhs_at_most_zero_is_rejected():
    inst = IlpInstance(
        A=((1, 1), (1, 0)),
        b=(2, 0),
        lower_present=(True, True),
        upper_present=(True, True),
    )
    with pytest.raises(MethodNotApplicableError):
        enumerate_bounded_cuts(inst, ApproxParams(epsilon=1))


def test_all_even_system_gains_nothing():
    # Every coefficient and right-hand side even: each generated cut is half
    # of a row sum, implied by the base system, so the optimum is the LP's.
    inst = IlpInstance(
        A=((2, 4), (4, 2)),
        b=(6, 6),
        lower_present=(True, True),
        upper_present=(False, False),
        objective=(1, 1),
    )
    res = approx_optimize(inst, None, ApproxParams(epsilon=F(1, 2)))
    rows, rhs = box_rows(inst.lower_present, inst.upper_present)
    plain = lp_solve(
        [list(r) for r in inst.A] + rows, list(inst.b) + rhs, [1, 1]
    )
    assert plain.status is LpStatus.OPTIMAL
    assert res.alpha == plain.value == 2


def test_duplicate_coefficients_keep_smallest_rhs():
    # Rows 0 and 1 both halve to x1 <= 2 resp. x1 <= 1; keep rhs 1.
    inst = IlpInstance(
        A=((2, 0), (2, 0), (0, 1)),
        b=(5, 3, 1),
        lower_present=(True, True),
        upper_present=(True, True),
    )
    cuts = enumerate_bounded_cuts(inst, ApproxParams(epsilon=1))
    table = {c.coeffs: c.rhs for c in cuts}
    assert table[(F(1), F(0))] == 1


def test_family_size_obeys_the_support_bound():
    rng = random.Random(20260819)
    for _ in range(25):
        m = rng.randint(1, 5)
        n = rng.randint(1, 4)
        inst = IlpInstance(
            A=tuple(tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(m)),
            b=tuple(rng.randint(1, 4) for _ in range(m)),
            lower_present=(True,) * n,
            upper_present=(True,) * n,
        )
        for q in (2, 3):
            params = ApproxParams(epsilon=1, modulus=q)
            cuts = enumerate_bounded_cuts(inst, params)
            cap = (q * params.k) // (q - 1)
            bound = 0
            for s in range(1, min(m, cap) + 1):
                bound += _choose(m, s) * (q - 1) ** s
            assert len(cuts) <= bound


def _cut_rows(cuts):
    return [(c.coeffs, c.rhs, c.provenance) for c in cuts]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 5)])
def test_family_matches_reference_enumerator(q, eps):
    rng = random.Random(f"family/{q}/{eps}")
    params = ApproxParams(epsilon=eps, modulus=q)
    for _ in range(20):
        m = rng.randint(1, 6 if q == 2 else 5)
        n = rng.randint(1, 4)
        inst = IlpInstance(
            A=tuple(tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(m)),
            b=tuple(rng.randint(1, 4) for _ in range(m)),
            lower_present=tuple(rng.random() < 0.7 for _ in range(n)),
            upper_present=tuple(rng.random() < 0.7 for _ in range(n)),
        )
        assert _cut_rows(enumerate_bounded_cuts(inst, params)) == _cut_rows(
            reference_bounded_cuts(inst, params)
        )


def test_nonzero_multipliers_may_cancel_every_coefficient():
    # lam = (1/2, 1/2) cancels x entirely and still rounds b down to 0 <= 1;
    # only the zero multiplier vector is left out of the family.
    inst = IlpInstance(A=((1,), (-1,)), b=(1, 1), lower_present=(True,), upper_present=(True,))
    params = ApproxParams(epsilon=1)
    got = enumerate_bounded_cuts(inst, params)
    assert [(c.coeffs, c.rhs) for c in got] == [((0,), 1)]
    assert got[0].provenance.lam == (H, H)
    assert _cut_rows(got) == _cut_rows(reference_bounded_cuts(inst, params))


# ------------------------------------------------------- the Z/q kernel walk


@st.composite
def _family_instances(draw, max_rows):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, 4))
    row = st.tuples(*[st.integers(-2, 3)] * n)
    flags = st.tuples(*[st.booleans()] * n)
    return IlpInstance(
        A=draw(st.tuples(*[row] * m)),
        b=draw(st.tuples(*[st.integers(1, 4)] * m)),
        lower_present=draw(flags),
        upper_present=draw(flags),
    )


@pytest.mark.parametrize(
    "q, max_rows",
    [(2, 7), (3, 6), (5, 4), (4, 5), (6, 4), (8, 4), (9, 4), (12, 3)],
)
@pytest.mark.parametrize("eps", [F(1), F(1, 2), F(1, 5)])
def test_kernel_family_matches_both_grid_enumerators(q, max_rows, eps):
    params = ApproxParams(epsilon=eps, modulus=q)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(_family_instances(max_rows))
    def check(inst):
        got = _cut_rows(enumerate_bounded_cuts(inst, params))
        brute = enumerate_cut_rows(inst, q, F(params.k), rows_only=True)
        assert got == _cut_rows(brute)
        assert got == _cut_rows(reference_bounded_cuts(inst, params))

    check()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_kernel_walk_matches_the_field_reference(q):
    # for prime q the Howell basis spans the GF(q) kernel that the former
    # reduced-echelon odometer walked, so both list the same multipliers
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(_family_instances(6 if q < 5 else 4), st.sampled_from([1, 2, 3, 5]))
    def check(inst, k):
        assert closure._kernel_multipliers(inst, q, q * k, 1 << 20) == reference_kernel_multipliers(
            inst, q, q * k, 1 << 20
        )

    check()


def test_huge_modulus_needs_no_primality_search():
    # 2^61 - 1 is prime, but nothing asks: the triangle's A is invertible
    # mod any odd q, so the kernel is {0} and the walk builds no node at all
    q = (1 << 61) - 1
    assert enumerate_bounded_cuts(triangle_instance(), ApproxParams(epsilon=1, modulus=q), budget=0) == []
    # mod 2^64 the kernel is spanned by (1, 1, 1) * 2^63, pivot 2^63: the
    # walk builds its two children and finds the odd cycle cut
    q = 1 << 64
    got = enumerate_bounded_cuts(triangle_instance(), ApproxParams(epsilon=1, modulus=q), budget=2)
    assert [(c.coeffs, c.rhs) for c in got] == [((1, 1, 1), 1)]
    assert got[0].provenance.lam == (H, H, H)


def _boxed_instance(rng, m, n):
    # the shape of the benchmark's closure instances
    return IlpInstance(
        A=tuple(tuple(rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(m)),
        b=tuple(rng.randint(1, 5) for _ in range(m)),
        lower_present=(True,) * n,
        upper_present=(True,) * n,
        objective=tuple(rng.randint(0, 4) for _ in range(n)),
    )


@pytest.mark.parametrize("m, q, eps", [(16, 3, F(1)), (20, 2, F(1, 2))])
def test_many_rows_fit_the_default_budget(m, q, eps):
    # walking all q^m grid vectors (and counting the survivors) overruns
    # the default budget of 2^20; the kernel walk stays far below it
    inst = _boxed_instance(random.Random(f"boxed-{m}x8"), m, 8)
    params = ApproxParams(epsilon=eps, modulus=q)
    got = enumerate_bounded_cuts(inst, params)
    assert got
    assert _cut_rows(got) == _cut_rows(reference_bounded_cuts(inst, params))
    res = approx_optimize(inst, None, params)
    assert res.cut_count == len(got)


def test_composite_modulus_fits_the_default_budget():
    # q = 4 on a benchmark-shaped instance: the q^12 grid overran the
    # default budget; the kernel walk reads the family off the Z/4 kernel
    inst = _boxed_instance(random.Random("boxed-12x8"), 12, 8)
    params = ApproxParams(epsilon=F(1, 2), modulus=4)
    got = enumerate_bounded_cuts(inst, params)
    assert got
    for cut in got:
        assert sum(cut.provenance.lam) <= params.k
        assert all(sum(p * row[i] for p, row in zip(cut.provenance.lam, inst.A)).denominator == 1
                   for i in range(inst.n))
    res = approx_optimize(inst, None, params)
    assert res.cut_count == len(got)


def test_budget_counts_kernel_combinations():
    # six even rows: the kernel is all of GF(2)^6, one pivot per row.  The
    # walk builds one node per prefix of 0/1 pivot entries summing to at
    # most cap = 4: 2 + 4 + 8 + 16 + (32 - 1) + (64 - 7) = 118
    inst = IlpInstance(A=((2,),) * 6, b=(3,) * 6, lower_present=(True,), upper_present=(True,))
    params = ApproxParams(epsilon=1)
    assert len(enumerate_bounded_cuts(inst, params, budget=118)) == 4  # x <= 1, ..., 4x <= 6
    with pytest.raises(BudgetExceededError, match="more than 117 multiplier candidates"):
        enumerate_bounded_cuts(inst, params, budget=117)
    with pytest.raises(BudgetExceededError):
        enumerate_bounded_cuts(triangle_instance(), params, budget=1)


def test_large_prime_modulus_walks_in_bounded_memory():
    # lam = c * (1, -1) for every c < q: the walk meets each one in turn
    # and stops at the budget, without first listing all q choices
    q = 1_000_000_007
    inst = IlpInstance(A=((1,), (1,)), b=(1, 1), lower_present=(True,), upper_present=(True,))
    with pytest.raises(BudgetExceededError, match="more than 1000 multiplier"):
        enumerate_bounded_cuts(inst, ApproxParams(epsilon=1, modulus=q), budget=1000)


def _choose(m, s):
    out = 1
    for i in range(s):
        out = out * (m - i) // (i + 1)
    return out


# --------------------------------------------------------------- optimizing


def test_triangle_matches_exhaustive_closure():
    inst = triangle_instance(objective=(1, 1, 1))
    res = approx_optimize(inst, None, ApproxParams(epsilon=1))
    assert res.alpha == 1
    exact, _ = brute_closure_optimize(inst)
    assert exact == res.alpha


def test_zero_objective_gives_zero():
    res = approx_optimize(triangle_instance(), (0, 0, 0), ApproxParams(epsilon=1))
    assert res.alpha == 0


def test_missing_objective_is_an_error():
    with pytest.raises(ZeroHalfError):
        approx_optimize(triangle_instance(), None, ApproxParams(epsilon=1))


def test_negative_objective_is_rejected():
    with pytest.raises(MethodNotApplicableError, match="nonnegative objective"):
        approx_optimize(triangle_instance(), (1, -1, 0), ApproxParams(epsilon=1))
    with pytest.raises(MethodNotApplicableError, match="nonnegative objective"):
        approx_optimize(triangle_instance(objective=(0, 0, -2)), None, ApproxParams(epsilon=1))
    # the exhaustive closure has no sandwich to protect and takes any sign
    value, _ = brute_closure_optimize(triangle_instance(), objective=(1, -1, 0))
    assert value == 1


def test_unbounded_direction_is_reported():
    inst = IlpInstance(
        A=((1, 0),),
        b=(1,),
        lower_present=(True, False),
        upper_present=(True, False),
        objective=(0, 1),
    )
    with pytest.raises(LpUnboundedError):
        approx_optimize(inst, None, ApproxParams(epsilon=1))


# ------------------------------------------------------------- the sandwich


def _random_sandwich_instance(rng):
    m = rng.randint(1, 4)
    n = rng.randint(1, 3)
    A = tuple(
        tuple(rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(m)
    )
    b = tuple(rng.randint(1, 5) for _ in range(m))
    c = tuple(rng.randint(0, 4) for _ in range(n))
    return IlpInstance(
        A=A,
        b=b,
        lower_present=(True,) * n,
        upper_present=(True,) * n,
        objective=c,
    )


@pytest.mark.parametrize("q", [2, 3])
def test_sandwich_on_random_instances(q):
    rng = random.Random(20260820 + q)
    for _ in range(30):
        inst = _random_sandwich_instance(rng)
        eps = rng.choice((F(1), F(1, 2), F(1, 4)))
        params = ApproxParams(epsilon=eps, modulus=q)
        res = approx_optimize(inst, None, params)
        exact, _ = brute_closure_optimize(inst, modulus=q)
        assert exact <= res.alpha
        assert res.alpha <= (1 + eps) * exact
        # The shrunk optimizer must satisfy every closure cut, which is the
        # geometric content of the upper inequality.
        shrunk = tuple(v / (1 + eps) for v in res.argmax)
        for cut in enumerate_cut_rows(inst, modulus=q, rows_only=True):
            assert sum(a * v for a, v in zip(cut.coeffs, shrunk)) <= cut.rhs
