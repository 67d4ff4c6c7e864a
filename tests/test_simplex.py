import contextlib
import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zerohalf import matching, simplex
from zerohalf.closure import ApproxParams, approx_optimize
from zerohalf.core import Cut, InternalConsistencyError, LpInfeasibleError, Multipliers
from zerohalf.generate import gen_graph, gen_sandwich_case
from zerohalf.matching import WeightedGraph
from zerohalf.simplex import LpStatus, add_cut, lp_solve

from reference_simplex import box_rows as reference_box_rows
from reference_simplex import lp_solve as reference_lp_solve
from reference_simplex import two_phase_lp_solve

F = Fraction


class TestBasics:
    def test_single_variable_box(self):
        r = lp_solve([[1], [-1]], [1, 0], [1])
        assert r.status is LpStatus.OPTIMAL
        assert r.value == 1
        assert r.point == (F(1),)

    def test_unbounded_without_upper_row(self):
        r = lp_solve([[-1]], [0], [1])
        assert r.status is LpStatus.UNBOUNDED

    def test_infeasible(self):
        r = lp_solve([[1], [-1]], [-2, 1], [0])
        assert r.status is LpStatus.INFEASIBLE

    def test_minimization(self):
        # minimize x: maximize -x and negate the value
        r = lp_solve([[1], [-1]], [5, 3], [-1])
        assert -r.value == -3
        assert r.point == (F(-3),)

    def test_free_variables_go_negative(self):
        r = lp_solve([[1, 1], [-1, 0], [0, -1]], [0, 4, 4], [1, 1])
        assert r.value == 0

    def test_fractional_vertex(self):
        # max x+y st 2x+y<=2, x+2y<=2, x,y>=0 -> (2/3, 2/3)
        r = lp_solve([[2, 1], [1, 2], [-1, 0], [0, -1]], [2, 2, 0, 0], [1, 1])
        assert r.value == F(4, 3)
        assert r.point == (F(2, 3), F(2, 3))

    def test_nonneg_mode_matches_explicit_rows(self):
        rows = [[2, 1], [1, 2]]
        a = lp_solve(rows + [[-1, 0], [0, -1]], [2, 2, 0, 0], [1, 1])
        b = lp_solve(rows, [2, 2], [1, 1], lower_present=[True, True])
        assert a.value == b.value == F(4, 3)
        assert b.point == (F(2, 3), F(2, 3))

    def test_negative_rhs_needs_phase_one(self):
        # x >= 2 written as -x <= -2, maximize -x -> optimum at x = 2
        r = lp_solve([[-1], [1]], [-2, 10], [-1])
        assert r.status is LpStatus.OPTIMAL
        assert r.value == -2
        assert r.point == (F(2),)

    def test_equality_via_pair(self):
        r = lp_solve([[1, 1], [-1, -1], [-1, 0], [0, -1]], [3, -3, 0, 0], [2, 1])
        assert r.value == 6
        assert r.point == (F(3), F(0))

    def test_degenerate_rows_no_cycling(self):
        rows = [[1, 1], [1, 1], [1, 1], [-1, 0], [0, -1]]
        r = lp_solve(rows, [1, 1, 1, 0, 0], [1, 2])
        assert r.value == 2
        assert r.point == (F(0), F(1))

    def test_zero_objective(self):
        r = lp_solve([[1], [-1]], [1, 0], [0])
        assert r.status is LpStatus.OPTIMAL
        assert r.value == 0

    def test_redundant_negative_rhs_rows(self):
        # -x <= -1 twice plus x <= 1: feasible set is the single point x = 1
        r = lp_solve([[-1], [-1], [1]], [-1, -1, 1], [1])
        assert r.value == 1

    def test_rhs_longer_than_rows_is_rejected(self):
        with pytest.raises(ValueError, match="rhs has 3 entries for 1 rows"):
            lp_solve([[1]], [1, 5, 7], [1])

    def test_rhs_shorter_than_rows_is_rejected(self):
        with pytest.raises(ValueError, match="rhs has 1 entries for 2 rows"):
            lp_solve([[1], [-1]], [1], [1])

    @pytest.mark.parametrize("lower, upper", [([True], None), (None, [True, True, False])])
    def test_box_flags_of_wrong_length_are_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="box flags"):
            lp_solve([[1, 1]], [1], [1, 1], lower_present=lower, upper_present=upper)


class TestAgainstEnumeration:
    def test_random_bounded_lps_match_vertex_enumeration(self):
        rng = random.Random(20260817)
        for trial in range(60):
            n = rng.choice((2, 3))
            rows = [[0] * n for _ in range(n)]
            # box part guarantees boundedness
            box_rows = []
            box_rhs = []
            for i in range(n):
                up = [0] * n
                up[i] = 1
                lo = [0] * n
                lo[i] = -1
                box_rows += [up, lo]
                box_rhs += [rng.randint(1, 3), rng.randint(0, 2)]
            extra_rows = []
            extra_rhs = []
            for _ in range(rng.randint(0, 3)):
                extra_rows.append([rng.randint(-2, 3) for _ in range(n)])
                extra_rhs.append(rng.randint(0, 4))
            rows = box_rows + extra_rows
            rhs = box_rhs + extra_rhs
            c = [rng.randint(-3, 3) for _ in range(n)]
            got = lp_solve(rows, rhs, c)
            assert got.status is LpStatus.OPTIMAL, f"trial {trial}"
            best = self._enumerate_optimum(rows, rhs, c)
            assert got.value == best, f"trial {trial}: {got.value} vs {best}"

    @staticmethod
    def _enumerate_optimum(rows, rhs, c):
        """Check every basis intersection: exact, independent of the solver."""
        n = len(c)
        m = len(rows)
        best = None
        for combo in itertools.combinations(range(m), n):
            mat = [[F(rows[j][i]) for i in range(n)] for j in combo]
            vec = [F(rhs[j]) for j in combo]
            x = _gauss_solve(mat, vec)
            if x is None:
                continue
            if all(sum(F(rows[j][i]) * x[i] for i in range(n)) <= F(rhs[j]) for j in range(m)):
                val = sum(F(c[i]) * x[i] for i in range(n))
                if best is None or val > best:
                    best = val
        return best


def _gauss_solve(mat, vec):
    n = len(vec)
    a = [row[:] + [v] for row, v in zip(mat, vec)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        a[col] = [v / a[col][col] for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def _random_lp(rng: random.Random):
    """Rows, rhs, objective and flags of a small LP with mixed denominators.

    Negative right-hand sides send rows through phase 1; scaled copies of
    rows, and equations written as row pairs, make degenerate bases (and,
    in the two-phase oracle, artificials left in the basis at level zero).
    Missing box rows leave room for unbounded optima, and conflicting rows
    for infeasible ones.
    """
    n = rng.randint(1, 4)

    def entry():
        if rng.random() < 0.3:
            return F(rng.randint(-6, 6), rng.choice((2, 3, 4, 6)))
        return rng.randint(-3, 3)

    rows, rhs = [], []
    for _ in range(rng.randint(0, 5)):
        rows.append([entry() for _ in range(n)])
        rhs.append(entry() + rng.randint(-1, 3))
    if rows and rng.random() < 0.4:
        j = rng.randrange(len(rows))
        factor = rng.choice((1, F(1, 2), F(2, 3), 3))
        rows.append([factor * v for v in rows[j]])
        rhs.append(factor * rhs[j])
    if rows and rng.random() < 0.3:
        j = rng.randrange(len(rows))
        rows.append([-v for v in rows[j]])
        rhs.append(-rhs[j])
    if rng.random() < 0.7:
        for i in range(n):
            up = [0] * n
            up[i] = 1
            lo = [0] * n
            lo[i] = -1
            rows += [up, lo]
            rhs += [rng.randint(1, 3), rng.choice((0, 1, F(1, 2)))]
    order = list(range(len(rows)))
    rng.shuffle(order)
    rows = [tuple(rows[j]) for j in order]
    rhs = [rhs[j] for j in order]
    c = [entry() for _ in range(n)]
    return rows, rhs, c, rng.random() < 0.5, rng.random() < 0.4


def solve(rows, rhs, c, maximize, **kwargs):
    """lp_solve maximizes; a minimization passes -c and negates the value."""
    if maximize:
        return lp_solve(rows, rhs, c, **kwargs)
    r = lp_solve(rows, rhs, [-v for v in c], **kwargs)
    return r if r.value is None else dataclasses.replace(r, value=-r.value)


def _boxed(rows, rhs, lower, upper):
    """The package solver's box written as explicit rows, for the reference."""
    brows, brhs = reference_box_rows(lower, upper)
    return [*rows, *brows], [*rhs, *brhs]


class TestAgainstReference:
    """The integer tableau follows the Fraction tableau pivot for pivot."""

    def test_random_lps_give_identical_results(self):
        rng = random.Random(20261017)
        seen = set()
        for trial in range(400):
            rows, rhs, c, maximize, nonneg = _random_lp(rng)
            got = solve(rows, rhs, c, maximize, lower_present=[nonneg] * len(c))
            ref = reference_lp_solve(rows, rhs, c, maximize=maximize, nonneg=nonneg)
            context = f"trial {trial}: {rows} {rhs} {c} max={maximize} nonneg={nonneg}"
            assert (got.status, got.value, got.point) == (ref.status, ref.value, ref.point), context
            old = two_phase_lp_solve(rows, rhs, c, maximize=maximize, nonneg=nonneg)
            assert (got.status, got.value) == (old.status, old.value), context
            seen.add((got.status, nonneg, any(v < 0 for v in rhs)))
        statuses = {s for s, _, _ in seen}
        assert statuses == set(LpStatus)
        assert {(True, True), (True, False), (False, True), (False, False)} <= {
            (nonneg, neg) for _, nonneg, neg in seen
        }

    @pytest.mark.parametrize("rows, rhs, upper, c, maximize", [
        ([[F(3, 7), F(-2, 7), F(-2, 7), F(-1, 7)], [-1, -2, F(-1, 3), F(4, 3)],
          [F(6, 7), F(-3, 7), F(-2, 7), F(-2, 7)]],
         [F(-3, 7), F(-2, 3), F(1, 7)], [2, 3, 1, 3], [0, 3, 2, 0], True),
        ([[0, 1, -1, -4], [-2, 3, -1, F(-3, 2)], [F(-6, 5), F(2, 5), F(-1, 5), F(6, 5)],
          [F(-1, 3), F(-1, 3), F(-4, 3), F(2, 3)]],
         [-4, F(-1, 2), 0, F(-5, 3)], [2, 3, 2, 2], [0, 0, 0, 3], False),
    ])
    def test_tied_optima_after_phase_one_match_the_reference(self, rows, rhs, upper, c,
                                                             maximize):
        # Tied optima with mixed row scales behind phase 1: a pivot path that
        # strays from the Fraction tableau ends at another vertex.  The
        # artificial two-phase method may end at another vertex too, so it
        # is compared on the value only.
        rows = rows + [[int(i == k) for i in range(4)] for k in range(4)]
        got = solve(rows, rhs + upper, c, maximize, lower_present=[True] * 4)
        ref = reference_lp_solve(rows, rhs + upper, c, maximize=maximize, nonneg=True)
        old = two_phase_lp_solve(rows, rhs + upper, c, maximize=maximize, nonneg=True)
        assert got.status is LpStatus.OPTIMAL
        assert (got.value, got.point) == (ref.value, ref.point)
        assert got.value == old.value

    def test_solve_matching_lp_sequence_on_a_triangle_chain(self, monkeypatch):
        # one cold solve, then one warm re-optimisation per cut: each optimum
        # has the value of the reference solver on the rows stacked so far
        k = 5
        graph = _triangle_chain(k)
        inst = matching.incidence_instance(graph)
        rows, rhs = list(inst.A), list(inst.b)
        optima = []

        def cold(*args):
            res = simplex.solve_relaxation(*args)
            optima.append((res, list(rows), list(rhs)))
            return res

        def warm(res, cut):
            rows.append(cut.coeffs)
            rhs.append(cut.rhs)
            res = add_cut(res, cut)
            optima.append((res, list(rows), list(rhs)))
            return res

        monkeypatch.setattr(matching, "solve_relaxation", cold)
        monkeypatch.setattr(matching, "add_cut", warm)
        res = matching.solve_matching(graph)
        assert res.weight == 3 * k // 2
        assert res.counters.lp_solves == len(optima) == 1 + res.counters.cuts_added > 1
        lower, upper = inst.lower_present, inst.upper_present
        for got, stacked, b in optima:
            ref = reference_lp_solve(*_boxed(stacked, b, lower, upper), inst.objective)
            assert (got.status, got.value) == (ref.status, ref.value)
            _assert_feasible(got.point, stacked, b, lower, upper)


def _triangle_chain(k):
    """k unit-weight triangles, consecutive ones joined by one edge."""
    edges = []
    for t in range(k):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
        if t + 1 < k:
            edges.append((c, c + 1, 1))
    return WeightedGraph(3 * k, tuple(edges))


def _assert_feasible(point, rows, rhs, lower, upper):
    for row, b in zip(rows, rhs):
        assert sum(F(a) * x for a, x in zip(row, point)) <= b
    for x, low, up in zip(point, lower, upper):
        assert not (low and x < 0) and not (up and x > 1)


@st.composite
def _lps_with_negative_rhs(draw):
    """A boxed LP with mixed denominators and at least one negative rhs."""
    n = draw(st.integers(1, 3))
    entry = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 1, 1, 2, 3, 4)))
    m = draw(st.integers(1, 4))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    assume(any(v < 0 for v in rhs))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    lower = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    upper = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return rows, rhs, c, lower, upper


class TestPhaseOne:
    """Dual simplex pivots on the clipped cost find the first feasible basis."""

    def test_negative_rhs_lps_agree_with_the_two_phase_oracle(self, monkeypatch):
        certified = []
        original = simplex._certify

        def spy(*args):
            original(*args)
            certified.append(None)

        monkeypatch.setattr(simplex, "_certify", spy)
        seen = set()

        @settings(derandomize=True, database=None, max_examples=300, deadline=None)
        @given(_lps_with_negative_rhs())
        def check(lp):
            rows, rhs, c, lower, upper = lp
            certified.clear()
            got = lp_solve(rows, rhs, c, lower_present=lower, upper_present=upper)
            old = two_phase_lp_solve(*_boxed(rows, rhs, lower, upper), c)
            assert (got.status, got.value) == (old.status, old.value)
            assert len(certified) == (got.status is LpStatus.OPTIMAL)
            if got.status is LpStatus.OPTIMAL:
                _assert_feasible(got.point, rows, rhs, lower, upper)
            seen.add(got.status)
            seen.add(("free", not all(lower)))
            seen.add(("upper", any(upper)))
            seen.add(("fraction", any(v.denominator > 1 for row in rows for v in row)))

        check()
        assert set(LpStatus) | {("free", True), ("upper", True), ("fraction", True)} <= seen

    def test_phase_one_prices_the_cost_clipped_at_zero(self):
        # max 2y over y <= 3, 2x/3 + 3y >= 2, 0 <= x <= 2: every point with
        # y = 3 is optimal.  On the clipped cost (0, 0) the first dual pivot
        # takes the smallest column, x, and the solve ends at (2, 3); on the
        # cost itself y would enter and the solve end at (0, 3).
        rows, rhs, c = [[0, 1], [F(-2, 3), -3], [1, 0]], [3, -2, 2], [0, 2]
        got = lp_solve(rows, rhs, c, lower_present=[True, True])
        ref = reference_lp_solve(rows, rhs, c, nonneg=True)
        assert (got.value, got.point) == (ref.value, ref.point) == (6, (2, 3))

    def test_cold_solves_of_matching_and_approx_skip_phase_one(self, monkeypatch):
        # Their LPs have no negative right-hand side, so lp_solve never enters
        # the dual simplex; only add_cut's warm solves do.
        cold, inside, entered, warm = [], [], [], []
        solve_cold, run_dual = simplex.lp_solve, simplex._run_dual_simplex

        def spy_solve(rows, rhs, objective, **box):
            cold.append(all(v >= 0 for v in rhs))
            inside.append(None)
            try:
                return solve_cold(rows, rhs, objective, **box)
            finally:
                inside.pop()

        def spy_dual(*args):
            (entered if inside else warm).append(None)
            return run_dual(*args)

        monkeypatch.setattr(simplex, "lp_solve", spy_solve)
        monkeypatch.setattr(simplex, "_run_dual_simplex", spy_dual)
        rng = random.Random(20261021)
        for k in (2, 3, 4):
            matching.solve_matching(_triangle_chain(k))
        for _ in range(20):
            matching.solve_matching(gen_graph(rng, max_nodes=8))
        assert cold and warm
        for _ in range(20):
            inst = gen_sandwich_case(rng)
            for q in (2, 3):
                approx_optimize(inst, None, ApproxParams(F(1, 2), q))
        assert len(cold) > 40 and all(cold)
        assert not entered


class TestNativeBox:
    """Bounds handled in the ratio test agree with the box written as rows."""

    def test_random_boxed_lps_agree_with_explicit_box_rows(self):
        rng = random.Random(20261018)
        seen = set()
        for trial in range(400):
            rows, rhs, c, maximize, _ = _random_lp(rng)
            lower = [rng.random() < 0.6 for _ in c]
            upper = [rng.random() < 0.6 for _ in c]
            got = solve(rows, rhs, c, maximize, lower_present=lower, upper_present=upper)
            ref = reference_lp_solve(*_boxed(rows, rhs, lower, upper), c, maximize=maximize)
            context = f"trial {trial}: {rows} {rhs} {c} max={maximize} {lower} {upper}"
            assert (got.status, got.value) == (ref.status, ref.value), context
            if got.status is LpStatus.OPTIMAL:
                _assert_feasible(got.point, rows, rhs, lower, upper)
                if any(up and x == 1 for up, x in zip(upper, got.point)):
                    seen.add("at an upper bound")
            seen.add(got.status)
            seen.add(("phase 1", any(v < 0 for v in rhs)))
            seen.add(("mixed box", len(set(zip(lower, upper))) > 1))
        assert set(LpStatus) | {"at an upper bound", ("phase 1", True),
                                ("mixed box", True)} <= seen

    def test_beale_cycling_example_with_every_coordinate_boxed(self):
        # Beale 1955: cycles under the largest-coefficient rule; its row
        # x6 <= 1 is part of the box here
        rows = [[F(1, 4), -60, F(-1, 25), 9], [F(1, 2), -90, F(-1, 50), 3]]
        c = [F(3, 4), -150, F(1, 50), -6]
        box = [True] * 4
        got = lp_solve(rows, [0, 0], c, lower_present=box, upper_present=box)
        ref = reference_lp_solve(*_boxed(rows, [0, 0], box, box), c)
        assert got.status is LpStatus.OPTIMAL
        assert got.value == ref.value == F(1, 20)
        assert got.point == (F(1, 25), 0, 1, 0)

    def test_basic_variable_leaves_at_its_upper_bound_with_step_zero(self, monkeypatch):
        # x1 enters and meets the row x1 - x2 <= 1 exactly at its bound of 1
        # (a tie, so no flip); x2 then enters with coefficient -1 in that
        # row, and x1 leaves at its upper bound: its complemented row has
        # right-hand side D - D = 0, a step of 0
        pivots = []  # (leaving column, entering column, pivot row rhs)
        original = simplex._pivot

        def record(tab, basis, den, row, col, obj=None):
            pivots.append((basis[row], col, tab[row][-1]))
            return original(tab, basis, den, row, col, obj)

        monkeypatch.setattr(simplex, "_pivot", record)
        box = [True, True]
        got = lp_solve([[1, -1]], [1], [1, 1], lower_present=box, upper_present=box)
        assert pivots[:2] == [(2, 0, 1), (0, 1, 0)]
        assert (got.value, got.point) == (2, (1, 1))

    def test_upper_bound_on_a_free_coordinate_caps_its_positive_part(self):
        free, capped = [False], [True]
        got = lp_solve([], [], [1], lower_present=free, upper_present=capped)
        assert (got.value, got.point) == (1, (1,))
        got = lp_solve([[-1]], [2], [-1], lower_present=free, upper_present=capped)
        assert (got.value, got.point) == (2, (-2,))
        got = lp_solve([], [], [-1], lower_present=free, upper_present=capped)
        assert got.status is LpStatus.UNBOUNDED


def _cut(coeffs, rhs):
    """A bare inequality as a Cut; ``add_cut`` reads only coeffs and rhs."""
    n = len(coeffs)
    return Cut(tuple(coeffs), rhs, Multipliers((), (0,) * n, (0,) * n))


def _check_warm_against_cold(rows, rhs, c, lower, upper, cuts):
    """Add ``cuts`` one at a time to the optimum of the LP; compare each step.

    The warm result must match ``lp_solve`` on the stacked rows in status
    and value, with a feasible point that attains the value; the points may
    differ on tied optima.  Returns the statuses seen.
    """
    res = lp_solve(rows, rhs, c, lower_present=lower, upper_present=upper)
    assert res.status is LpStatus.OPTIMAL
    rows, rhs = list(rows), list(rhs)
    seen = []
    for cut in cuts:
        rows.append(cut.coeffs)
        rhs.append(cut.rhs)
        cold = lp_solve(rows, rhs, c, lower_present=lower, upper_present=upper)
        seen.append(cold.status)
        if cold.status is LpStatus.INFEASIBLE:
            with pytest.raises(LpInfeasibleError, match="the relaxation is empty"):
                add_cut(res, cut)
            break
        res = add_cut(res, cut)
        assert (res.status, res.value) == (cold.status, cold.value)
        _assert_feasible(res.point, rows, rhs, lower, upper)
        assert sum(F(v) * x for v, x in zip(c, res.point)) == res.value
    return seen


class TestWarmStart:
    """``add_cut`` re-optimises from the old basis to the cold optimum."""

    def test_random_boxed_lps_with_added_rows_agree_with_cold_solves(self):
        rng = random.Random(20261019)
        statuses, cuts_checked = set(), 0
        for trial in range(400):
            rows, rhs, c, _, _ = _random_lp(rng)
            lower = [rng.random() < 0.7 for _ in c]
            upper = [rng.random() < 0.7 for _ in c]
            base = lp_solve(rows, rhs, c, lower_present=lower, upper_present=upper)
            if base.status is not LpStatus.OPTIMAL:
                continue
            cuts = [_cut([rng.randint(-3, 3) for _ in c], rng.randint(-2, 3))
                    for _ in range(rng.randint(1, 3))]
            seen = _check_warm_against_cold(rows, rhs, c, lower, upper, cuts)
            statuses.update(seen)
            cuts_checked += len(seen)
        assert statuses == {LpStatus.OPTIMAL, LpStatus.INFEASIBLE}
        assert cuts_checked > 300

    def test_a_row_that_empties_the_lp_raises(self):
        box = [True, True]
        res = lp_solve([[1, 1]], [3], [1, 1], lower_present=box, upper_present=box)
        with pytest.raises(LpInfeasibleError, match="the relaxation is empty"):
            add_cut(res, _cut([-1, -1], -3))
        # the old optimum is untouched and still takes other rows
        assert add_cut(res, _cut([1, 1], 1)).value == 1
        assert (res.value, res.point) == (2, (1, 1))

    @pytest.mark.parametrize("coeffs, rhs", [
        ((0, 0, 2, 0), 1), ((25, 0, 1, 0), 1), ((1, 0, 0, 0), 0), ((1, -1, 1, -1), 0),
    ])
    def test_beale_cycling_example_with_a_cut(self, coeffs, rhs):
        # degenerate: both rows are tight at 0 with zero right-hand sides
        rows = [[F(1, 4), -60, F(-1, 25), 9], [F(1, 2), -90, F(-1, 50), 3]]
        c = [F(3, 4), -150, F(1, 50), -6]
        box = [True] * 4
        seen = _check_warm_against_cold(rows, [0, 0], c, box, box, [_cut(coeffs, rhs)])
        assert seen == [LpStatus.OPTIMAL]

    def test_pivots_count_every_pivot_and_bound_flip(self, monkeypatch):
        steps = []
        pivot, flip = simplex._pivot, simplex._flip

        def count(original):
            def counted(*args):
                steps.append(1)
                return original(*args)
            return counted

        monkeypatch.setattr(simplex, "_pivot", count(pivot))
        monkeypatch.setattr(simplex, "_flip", count(flip))
        rng = random.Random(20261020)
        warm = []
        for _ in range(100):
            rows, rhs, c, _, _ = _random_lp(rng)
            lower = [rng.random() < 0.7 for _ in c]
            upper = [rng.random() < 0.7 for _ in c]
            steps.clear()
            res = lp_solve(rows, rhs, c, lower_present=lower, upper_present=upper)
            assert res.pivots == len(steps)
            if res.status is LpStatus.OPTIMAL:
                steps.clear()
                cut = _cut([rng.randint(-3, 3) for _ in c], rng.randint(0, 3))
                with contextlib.suppress(LpInfeasibleError):
                    warm.append(add_cut(res, cut).pivots == len(steps))
        assert warm and all(warm)

    def test_only_an_optimal_result_with_its_tableau_is_accepted(self):
        unbounded = lp_solve([[-1]], [0], [1])
        with pytest.raises(ValueError, match="optimal result"):
            add_cut(unbounded, _cut([1], 1))
        res = lp_solve([[1]], [1], [1])
        with pytest.raises(ValueError, match="1 coordinates"):
            add_cut(res, _cut([1, 1], 1))


@st.composite
def _lps_with_cuts(draw):
    n = draw(st.integers(1, 3))
    small = st.integers(-3, 3)
    m = draw(st.integers(0, 3))
    rows = [draw(st.lists(small, min_size=n, max_size=n)) for _ in range(m)]
    rhs = [draw(st.integers(-1, 3)) for _ in range(m)]
    c = draw(st.lists(small, min_size=n, max_size=n))
    lower = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    upper = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cuts = [_cut(draw(st.lists(small, min_size=n, max_size=n)), draw(st.integers(-2, 3)))
            for _ in range(draw(st.integers(1, 3)))]
    return rows, rhs, c, lower, upper, cuts


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_lps_with_cuts())
def test_warm_reoptimisation_agrees_with_cold_solves(lp):
    rows, rhs, c, lower, upper, cuts = lp
    base = lp_solve(rows, rhs, c, lower_present=lower, upper_present=upper)
    assume(base.status is LpStatus.OPTIMAL)
    _check_warm_against_cold(rows, rhs, c, lower, upper, cuts)


class TestCertificate:
    """A tampered certificate raises, checked on real solves."""

    @staticmethod
    def _solve_with(monkeypatch, tamper, c=(1, 0)):
        original = simplex._certify

        def tampered(a, cprime, lower, upper, duals, bound_duals, value, den, xnum):
            bound_duals, xnum = list(bound_duals), list(xnum)
            tamper(bound_duals, xnum, den)
            original(a, cprime, lower, upper, duals, bound_duals, value, den, xnum)

        monkeypatch.setattr(simplex, "_certify", tampered)
        box = [True, True]
        # max c.x over x1 + x2 <= 3 in the unit box: x1 = 1 at its bound
        return lp_solve([[1, 1]], [3], list(c), lower_present=box, upper_present=box)

    def test_untampered_certificate_passes(self, monkeypatch):
        res = self._solve_with(monkeypatch, lambda w, x, den: None)
        assert (res.value, res.point) == (1, (1, 0))

    @pytest.mark.parametrize("tamper, message", [
        (lambda w, x, den: w.__setitem__(0, w[0] + den), "duality gap"),
        (lambda w, x, den: w.__setitem__(0, 0), "dual constraint violated"),
        (lambda w, x, den: w.__setitem__(0, -w[0]), "bound dual negative"),
        (lambda w, x, den: w.__setitem__(1, den), "duality gap"),
    ])
    def test_tampered_bound_dual_raises(self, monkeypatch, tamper, message):
        with pytest.raises(InternalConsistencyError, match=message):
            self._solve_with(monkeypatch, tamper)

    def test_point_above_its_bound_raises(self, monkeypatch):
        # with a zero objective on x2, raising it to 2 keeps the value and
        # the row x1 + x2 <= 3; only the box can object
        with pytest.raises(InternalConsistencyError, match="leaves the box"):
            self._solve_with(monkeypatch, lambda w, x, den: x.__setitem__(1, 2 * den))

    def test_bound_dual_on_a_missing_bound_raises(self):
        with pytest.raises(InternalConsistencyError, match="missing bound"):
            simplex._certify([[1, 3]], [1], [True], [False], [1], [1], 4, 1, [1])

    @staticmethod
    def _warm_with(monkeypatch, tamper):
        """Tamper with the certificate of the warm optimum only.

        max 2 x1 + x2 in the unit box, first under the slack row
        x1 + x2 <= 3 (x = (1, 1)), then with the cut x1 + x2 <= 1 added:
        x = (1, 0) with multiplier 1 on the cut and bound dual 1 on x1.
        """
        original = simplex._certify
        calls = []

        def tampered(a, cprime, lower, upper, duals, bound_duals, value, den, xnum):
            calls.append(None)
            duals, bound_duals = list(duals), list(bound_duals)
            if len(calls) > 1:
                tamper(duals, bound_duals, den)
            original(a, cprime, lower, upper, duals, bound_duals, value, den, xnum)

        monkeypatch.setattr(simplex, "_certify", tampered)
        box = [True, True]
        res = lp_solve([[1, 1]], [3], [2, 1], lower_present=box, upper_present=box)
        return add_cut(res, _cut([1, 1], 1))

    def test_untampered_warm_certificate_passes(self, monkeypatch):
        res = self._warm_with(monkeypatch, lambda y, w, den: None)
        assert (res.value, res.point) == (2, (1, 0))

    @pytest.mark.parametrize("tamper, message", [
        (lambda y, w, den: y.__setitem__(1, 0), "dual constraint violated"),
        (lambda y, w, den: y.__setitem__(1, -y[1]), "negative dual multiplier"),
        (lambda y, w, den: y.__setitem__(0, den), "duality gap"),
        (lambda y, w, den: w.__setitem__(0, w[0] + den), "duality gap"),
        (lambda y, w, den: w.__setitem__(0, 0), "dual constraint violated"),
        (lambda y, w, den: w.__setitem__(0, -w[0]), "bound dual negative"),
    ])
    def test_tampered_warm_dual_raises(self, monkeypatch, tamper, message):
        with pytest.raises(InternalConsistencyError, match=message):
            self._warm_with(monkeypatch, tamper)
