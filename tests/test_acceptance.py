"""Acceptance suite: nine end-to-end properties, one report line each.

Every test queues an ``ACCEPTANCE <k> <name>: PASS`` or ``FAIL`` verdict;
conftest echoes the lines in the terminal summary, outside output capture,
so they always appear in the run report.  The criteria are property-based:
separator decisions against exhaustive enumeration, counter bounds, the
tightness characterization, the approximation sandwich, matching
optimality, and determinism.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from zerohalf.closure import ApproxParams, approx_optimize, enumerate_bounded_cuts
from zerohalf.core import (
    compute_context,
    derive_cut,
    extended_slack,
    is_tight_nontrivial,
    unfloored_rhs,
    violation,
)
from zerohalf.colsep import primal_separate_col
from zerohalf.generate import gen_graph, gen_primal_case, gen_sandwich_case
from zerohalf.matching import WeightedGraph, solve_matching
from zerohalf.oracle import (
    brute_closure_optimize,
    brute_max_matching,
    brute_primal_separate,
    enumerate_cut_rows,
)
from zerohalf.rowsep import primal_separate_row
from zerohalf.cli import run_command

import conftest
from conftest import enumerate_valid_multipliers, triangle_instance


def _report(num: int, name: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    conftest.ACCEPTANCE_LINES.append(f"ACCEPTANCE {num} {name}: {verdict}")


@contextmanager
def criterion(num: int, name: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        _report(num, name, ok)


# (calls, bound) pairs collected by criteria 1 and 2, asserted by 3.
_COL_CALLS: list[tuple[int, int]] = []
_ROW_CALLS: list[tuple[int, int]] = []


def _run_equivalence(profile: str, separate, calls_log, bound_of, seed: int):
    rng = random.Random(seed)
    found = 0
    for _ in range(500):
        case = gen_primal_case(rng, profile=profile)
        ctx = compute_context(case.instance, case.xhat, case.xstar)
        res = separate(ctx)
        reference = brute_primal_separate(ctx)
        assert (res.cut is None) == (reference is None)
        calls_log.append((res.calls, bound_of(case.instance)))
        if res.cut is not None:
            found += 1
            assert is_tight_nontrivial(ctx, res.cut.provenance)
            assert res.violation > 0
            assert violation(res.cut, ctx.xstar) == res.violation
    # the generator must exercise both outcomes for the run to mean much
    assert 0 < found < 500


def test_criterion_1_oracle_equivalence_col():
    with criterion(1, "oracle-equivalence-col"):
        _run_equivalence(
            "col2",
            primal_separate_col,
            _COL_CALLS,
            lambda inst: inst.m + 2 * inst.n,
            seed=20260823,
        )


def test_criterion_2_oracle_equivalence_row():
    with criterion(2, "oracle-equivalence-row"):
        _run_equivalence(
            "row2",
            primal_separate_row,
            _ROW_CALLS,
            lambda inst: inst.m + inst.n,
            seed=20260824,
        )


def test_criterion_3_call_count_bounds():
    with criterion(3, "call-count-bounds"):
        assert len(_COL_CALLS) >= 500 and len(_ROW_CALLS) >= 500
        assert all(calls <= bound for calls, bound in _COL_CALLS)
        assert all(calls <= bound for calls, bound in _ROW_CALLS)


def test_criterion_4_tightness_characterization():
    with criterion(4, "tightness-characterization"):
        rng = random.Random(20260825)
        checked = 0
        for _ in range(200):
            case = gen_primal_case(
                rng, rows=rng.randint(2, 5), cols=rng.randint(2, 4)
            )
            inst = case.instance
            ctx = compute_context(inst, case.xhat, case.xstar)
            for mult in enumerate_valid_multipliers(inst):
                by_slack_test = is_tight_nontrivial(ctx, mult)
                by_definition = extended_slack(inst, mult, ctx.xhat) == Fraction(1, 2)
                cut = derive_cut(inst, mult)
                tight = violation(cut, ctx.xhat) == 0
                fractional_rhs = unfloored_rhs(inst, mult).denominator != 1
                assert by_slack_test == by_definition == (tight and fractional_rhs)
                checked += 1
        assert checked > 200


def test_criterion_5_blossom_smoke():
    with criterion(5, "blossom-smoke"):
        start = time.monotonic()
        inst = triangle_instance()
        ctx = compute_context(inst, (1, 0, 0), (Fraction(1, 2),) * 3)
        for res in (primal_separate_col(ctx), primal_separate_row(ctx)):
            assert res.cut is not None
            assert (res.cut.coeffs, res.cut.rhs) == ((1, 1, 1), 1)
            assert res.violation == Fraction(1, 2)
        reference = brute_primal_separate(ctx)
        assert (reference.coeffs, reference.rhs) == ((1, 1, 1), 1)
        assert violation(reference, ctx.xstar) == Fraction(1, 2)
        assert time.monotonic() - start < 1.0


def test_criterion_6_ptas_sandwich():
    with criterion(6, "ptas-sandwich"):
        rng = random.Random(20260826)
        epsilons = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
        for _ in range(200):
            inst = gen_sandwich_case(rng)
            for q in (2, 3):
                exact, _ = brute_closure_optimize(inst, modulus=q)
                closure_cuts = enumerate_cut_rows(inst, modulus=q, rows_only=True)
                for eps in epsilons:
                    res = approx_optimize(inst, None, ApproxParams(eps, q))
                    assert exact <= res.alpha <= (1 + eps) * exact
                    shrunk = tuple(v / (1 + eps) for v in res.argmax)
                    for cut in closure_cuts:
                        val = sum(c * s for c, s in zip(cut.coeffs, shrunk))
                        assert val <= cut.rhs


def test_criterion_7_cut_count_bound():
    with criterion(7, "cut-count-bound"):
        rng = random.Random(20260827)
        for _ in range(100):
            inst = gen_sandwich_case(rng)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
                params = ApproxParams(eps, 2)
                cuts = enumerate_bounded_cuts(inst, params)
                bound = sum(
                    comb(inst.m, s) for s in range(0, 2 * params.k + 1)
                )
                assert len(cuts) <= bound


def _check_matching(graph: WeightedGraph) -> None:
    res = solve_matching(graph)
    best, _ = brute_max_matching(graph)
    assert res.weight == best
    per_sep_bound = graph.node_count + 2 * len(graph.edges)
    assert all(c <= per_sep_bound for c in res.counters.mincut_calls)
    # the reported matching itself must achieve the weight
    achieved = sum(graph.edges[e][2] for e in res.matching)
    assert achieved == best


def test_criterion_8_matching_correctness():
    with criterion(8, "matching-correctness"):
        rng = random.Random(20260828)
        for _ in range(200):
            _check_matching(gen_graph(rng, max_nodes=7))
        # every labeled graph on up to five nodes, unit weights
        small = 0
        for k in range(1, 6):
            pairs = list(itertools.combinations(range(k), 2))
            for mask in range(1 << len(pairs)):
                edges = tuple(
                    (u, v, 1) for idx, (u, v) in enumerate(pairs)
                    if mask >> idx & 1
                )
                _check_matching(WeightedGraph(k, edges))
                small += 1
        assert small == 1099


def test_criterion_9_determinism(tmp_path, capsys, monkeypatch):
    with criterion(9, "determinism"):
        monkeypatch.chdir(tmp_path)

        def full_report(tag: str) -> str:
            chunks = []
            for argv in (
                ["gen", "--seed", "41", "--profile", "col2", "--out", tag],
                ["separate", "--instance", f"{tag}.inst",
                 "--xhat", f"{tag}.xhat", "--xstar", f"{tag}.xstar"],
                ["oracle-opt", "--instance", "k3.inst"],
                ["approx", "--instance", "k3.inst", "--epsilon", "1/2"],
                ["match", "--graph", "k3.graph", "--stats"],
            ):
                assert run_command(argv) == 0
                chunks.append(capsys.readouterr().out)
            return "".join(chunks)

        (tmp_path / "k3.graph").write_text(
            "NODES 3\nEDGES 3\n1 2 1\n1 3 2\n2 3 1\n"
        )
        (tmp_path / "k3.inst").write_text(
            "ROWS 3\nCOLS 3\nA\n1 1 0\n1 0 1\n0 1 1\nB\n1 1 1\n"
            "LOWER\n1 1 1\nUPPER\n1 1 1\nOBJ\n1 1 1\nEND\n"
        )
        first = full_report("a")
        second = full_report("b")
        assert first.replace("a.", "b.") == second
        for suffix in (".inst", ".xhat", ".xstar"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (
                tmp_path / f"b{suffix}"
            ).read_bytes()
        # library-level generators repeat exactly under the same seed
        one = [gen_primal_case(random.Random(9), profile="mixed") for _ in (0,)]
        two = [gen_primal_case(random.Random(9), profile="mixed") for _ in (0,)]
        assert one == two
