"""Random case generators: shape guarantees and determinism."""

import random

import pytest

from zerohalf.core import ZeroHalfError, is_integral
from zerohalf.generate import (
    PROFILES,
    _odd_pattern,
    gen_graph,
    gen_primal_case,
    gen_sandwich_case,
)


def test_col2_profile_controls_column_parity():
    rng = random.Random(11)
    for _ in range(25):
        case = gen_primal_case(rng, profile="col2")
        for col in zip(*case.instance.A):
            assert sum(v % 2 for v in col) <= 2


def test_row2_profile_controls_row_parity():
    rng = random.Random(12)
    for _ in range(25):
        case = gen_primal_case(rng, profile="row2")
        for row in case.instance.A:
            assert sum(v % 2 for v in row) <= 2


def test_points_are_feasible_and_shaped():
    rng = random.Random(13)
    for _ in range(25):
        case = gen_primal_case(rng, profile="mixed")
        inst = case.instance
        assert is_integral(case.xhat)
        assert inst.feasibility_failure(case.xhat) is None
        assert inst.feasibility_failure(case.xstar) is None
        assert not is_integral(case.xstar)
        assert all(abs(a) <= 3 for row in inst.A for a in row)


def test_explicit_sizes_respected():
    case = gen_primal_case(random.Random(14), rows=3, cols=5, profile="col2")
    assert case.instance.m == 3 and case.instance.n == 5


@pytest.mark.parametrize("profile", PROFILES)
def test_large_sizes_are_built_row_by_row(profile):
    # whole-instance rejection gave up at 48x32 for every profile
    case = gen_primal_case(random.Random(1), 48, 32, profile)
    inst = case.instance
    assert (inst.m, inst.n) == (48, 32)
    assert inst.feasibility_failure(case.xhat) is None
    assert inst.feasibility_failure(case.xstar) is None
    assert is_integral(case.xhat) and not is_integral(case.xstar)
    if profile != "mixed":
        lines = zip(*inst.A) if profile == "col2" else inst.A
        assert all(sum(v % 2 for v in line) <= 2 for line in lines)


@pytest.mark.parametrize("profile, rows, cols", [("col2", 1, 4), ("row2", 4, 1)])
def test_one_row_or_column_fits_the_profile(profile, rows, cols):
    # a draw of two odd entries in a line of length one takes the one entry
    rng = random.Random(15)
    for _ in range(30):
        case = gen_primal_case(rng, rows, cols, profile)
        inst = case.instance
        assert (inst.m, inst.n) == (rows, cols)
        assert inst.feasibility_failure(case.xhat) is None
        assert inst.feasibility_failure(case.xstar) is None


@pytest.mark.parametrize("profile", ["col2", "row2"])
def test_odd_pattern_draws_as_before_from_two_rows_and_columns(profile):
    """At every size of at least 2 the pattern makes the same rng calls as
    the unclipped ``rng.sample(range(size), rng.randrange(0, 3))``."""
    rng = random.Random(16)
    for _ in range(200):
        m, n = rng.randrange(2, 7), rng.randrange(2, 7)
        state = rng.getstate()
        got = _odd_pattern(rng, m, n, profile)
        after = rng.getstate()
        rng.setstate(state)
        if profile == "col2":
            want = [[False] * n for _ in range(m)]
            for i in range(n):
                for j in rng.sample(range(m), rng.randrange(0, 3)):
                    want[j][i] = True
        else:
            want = []
            for _ in range(m):
                cols = rng.sample(range(n), rng.randrange(0, 3))
                want.append([i in cols for i in range(n)])
        assert got == want and rng.getstate() == after


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("rows, cols, bad", [(-1, 3, "rows"), (0, 3, "rows"), (3, -1, "cols")])
@pytest.mark.parametrize("profile", ["col2", "row2"])
def test_nonpositive_sizes_rejected_before_drawing(seed, rows, cols, bad, profile):
    rng = random.Random(seed)
    state = rng.getstate()
    value = rows if bad == "rows" else cols
    with pytest.raises(ZeroHalfError, match=f"^{bad} must be at least 1, got {value}$"):
        gen_primal_case(rng, rows, cols, profile)
    assert rng.getstate() == state


def test_unknown_profile_rejected():
    with pytest.raises(ZeroHalfError):
        gen_primal_case(random.Random(0), profile="dense")


def test_same_seed_same_case():
    a = gen_primal_case(random.Random(99), profile="row2")
    b = gen_primal_case(random.Random(99), profile="row2")
    assert a == b


def test_sandwich_cases_fit_the_approximation_preconditions():
    rng = random.Random(15)
    for _ in range(40):
        inst = gen_sandwich_case(rng)
        assert 1 <= inst.m <= 7 and 1 <= inst.n <= 5
        assert all(v >= 1 for v in inst.b)
        assert all(c >= 0 for c in inst.objective)
        assert all(inst.lower_present) and all(inst.upper_present)


def test_graphs_stay_small_and_valid():
    rng = random.Random(16)
    for _ in range(40):
        g = gen_graph(rng)
        assert 2 <= g.node_count <= 7
        assert all(0 <= w <= 5 for _, _, w in g.edges)
