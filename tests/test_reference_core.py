"""Differential tests: the integer cut kernels against the former Fraction code.

``reference_core`` holds the Fraction versions of cut derivation, slacks,
feasibility and the separation context.  On seeded multipliers and seeded
point pairs the package must return the same objects, or raise the same
exception type with the same message.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from zerohalf.core import (
    IlpInstance,
    InfeasiblePointError,
    MultiplierError,
    Multipliers,
    NonIntegralCutError,
    ZeroHalfError,
    compute_context,
    derive_cut,
    extended_slack,
    unfloored_rhs,
)
from zerohalf.generate import PROFILES, gen_primal_case

import reference_core as ref


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ZeroHalfError as exc:
        return (type(exc), str(exc))


def _random_instance(rng: random.Random) -> IlpInstance:
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    return IlpInstance(
        A=tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)),
        b=tuple(rng.randint(-2, 5) for _ in range(m)),
        lower_present=tuple(rng.random() < 0.6 for _ in range(n)),
        upper_present=tuple(rng.random() < 0.6 for _ in range(n)),
    )


def _random_multipliers(rng: random.Random, inst: IlpInstance, q: int) -> Multipliers:
    """Grid multipliers; mostly the bound row that repairs a coordinate's
    residue, present or not, sometimes an arbitrary one."""
    lam = [rng.randrange(q) for _ in range(inst.m)]
    down, up = [0] * inst.n, [0] * inst.n
    for i in range(inst.n):
        r = sum(p * row[i] for p, row in zip(lam, inst.A)) % q
        if r and rng.random() < 0.8:
            if rng.random() < 0.5:
                down[i] = r
            else:
                up[i] = q - r
        elif rng.random() < 0.3:
            rng.choice((down, up))[i] = rng.randrange(1, q)
    return Multipliers(
        tuple(Fraction(p, q) for p in lam),
        tuple(Fraction(d, q) for d in down),
        tuple(Fraction(u, q) for u in up),
        modulus=q,
    )


def _random_point(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-3, 7), rng.choice((1, 2, 3, 4, 6))) for _ in range(n))


@pytest.mark.parametrize("q", [2, 3])
def test_cut_kernels_match_the_fraction_code(q):
    rng = random.Random(f"reference-core/{q}")
    kinds = set()
    for _ in range(400):
        inst = _random_instance(rng)
        mult = _random_multipliers(rng, inst, q)
        got = _outcome(derive_cut, inst, mult)
        assert got == _outcome(ref.derive_cut, inst, mult)
        kinds.add(got[0])
        assert unfloored_rhs(inst, mult) == ref.unfloored_rhs(inst, mult)
        point = _random_point(rng, inst.n)
        assert extended_slack(inst, mult, point) == ref.extended_slack(inst, mult, point)
        assert inst.slacks(point) == ref.slacks(inst, point)
        assert inst.feasibility_failure(point) == ref.feasibility_failure(inst, point)
    # the seeds reach every outcome: a cut, a fractional coefficient and a
    # bound row used where the instance has none
    assert kinds == {"ok", NonIntegralCutError, MultiplierError}


def test_wrong_multiplier_lengths_match_the_fraction_code():
    inst = _random_instance(random.Random("reference-core/lengths"))
    short = Multipliers((0,) * (inst.m + 1), (0,) * inst.n, (0,) * inst.n)
    assert _outcome(derive_cut, inst, short) == _outcome(ref.derive_cut, inst, short)
    narrow = Multipliers((0,) * inst.m, (0,) * (inst.n + 1), (0,) * (inst.n + 1))
    assert _outcome(derive_cut, inst, narrow) == _outcome(ref.derive_cut, inst, narrow)


def _nudge(rng: random.Random, point, steps):
    return tuple(v + rng.choice(steps) if rng.random() < 0.3 else v for v in point)


@pytest.mark.parametrize("profile", PROFILES)
def test_separation_context_matches_the_fraction_code(profile):
    rng = random.Random(f"reference-context/{profile}")
    roles = set()
    for _ in range(40):
        case = gen_primal_case(rng, rng.randint(2, 8), rng.randint(2, 6), profile)
        pairs = [
            (case.xhat, case.xstar),
            (_nudge(rng, case.xhat, (-1, 1)), case.xstar),
            (case.xhat, _nudge(rng, case.xstar, (Fraction(-1, 2), Fraction(1, 3)))),
        ]
        for xhat, xstar in pairs:
            try:
                got = compute_context(case.instance, xhat, xstar)
            except InfeasiblePointError as exc:
                with pytest.raises(InfeasiblePointError) as want:
                    ref.compute_context(case.instance, xhat, xstar)
                assert (exc.role, str(exc)) == (want.value.role, str(want.value))
                roles.add(exc.role)
                continue
            assert got == ref.compute_context(case.instance, xhat, xstar)
            assert all(type(s) is int for s in got.slack_hat)
            assert all(type(s) is int for s in got.slack_star)
            costs = got.tight_bound_cost + got.slack_bound_cost
            assert type(got.scale) is int
            assert all(c is None or type(c) is int for c in costs)
            roles.add("feasible")
    assert roles == {"feasible", "xhat", "xstar"}
