"""Output checks that do not trust the program.

Each check parses one command's standard output and verifies it with
integer arithmetic against the input the benchmark generated, plus the one
optimal value recorded per base case in ``expected.json``.  Lines whose
content depends on how ties are broken (which cut, which matching, which
optimal point) are never compared byte for byte; they are re-derived and
verified instead.  Every check returns None when the output is right and a
short reason when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

from corpus import Instance, Op


class Bad(Exception):
    pass


def _lines(stdout: str, keys: tuple[str, ...]) -> dict[str, list[str]]:
    lines = stdout.splitlines()
    got = tuple(line.split(" ", 1)[0] for line in lines)
    if got != keys:
        raise Bad(f"expected lines {' '.join(keys)}, got {' '.join(got)}")
    return {line.split(" ", 1)[0]: line.split()[1:] for line in lines}


def _one(fields: dict[str, list[str]], key: str) -> str:
    if len(fields[key]) != 1:
        raise Bad(f"{key} takes one value")
    return fields[key][0]


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise Bad(f"not an integer: {token!r}") from None


def _frac(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise Bad(f"not a rational: {token!r}") from None


def _halves(tokens: list[str], size: int, what: str) -> list[int]:
    """Multipliers in {0, 1/2}, returned doubled."""
    if len(tokens) != size:
        raise Bad(f"{what} has {len(tokens)} entries, expected {size}")
    out = []
    for t in tokens:
        if t not in ("0", "1/2"):
            raise Bad(f"{what} entry {t} is not 0 or 1/2")
        out.append(0 if t == "0" else 1)
    return out


def _scaled(point: list[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator."""
    d = math.lcm(*(v.denominator for v in point)) if point else 1
    return [int(v * d) for v in point], d


def _value(expected: str | None, line: str) -> None:
    if expected is None:
        raise Bad("no value recorded for this case")
    if line != expected:
        raise Bad(f"{line!r} differs from the recorded {expected!r}")


def check_separate(op: Op, out: str, expected: str | None) -> None:
    case = op.case
    inst: Instance = case.instance
    if out == "NONE\n":
        _value(expected, "NONE")
        return
    f = _lines(out, ("CUT", "LAMBDA", "MU_DOWN", "MU_UP", "VIOLATION", "CALLS"))
    viol_token = _one(f, "VIOLATION")
    _value(expected, "VIOLATION " + viol_token)
    lam = _halves(f["LAMBDA"], inst.m, "LAMBDA")
    down = _halves(f["MU_DOWN"], inst.n, "MU_DOWN")
    up = _halves(f["MU_UP"], inst.n, "MU_UP")
    for i in range(inst.n):
        if down[i] and up[i]:
            raise Bad(f"both bound rows used at coordinate {i + 1}")
        if (down[i] and not inst.lower[i]) or (up[i] and not inst.upper[i]):
            raise Bad(f"absent bound row used at coordinate {i + 1}")
    # doubled weighted row sum: every coefficient must be even
    coeffs = []
    for i in range(inst.n):
        s = sum(inst.A[j][i] for j in range(inst.m) if lam[j]) - down[i] + up[i]
        if s % 2:
            raise Bad(f"coefficient {i + 1} is not integral")
        coeffs.append(s // 2)
    rhs2 = sum(inst.b[j] for j in range(inst.m) if lam[j]) + sum(up)
    if rhs2 % 2 == 0:
        raise Bad("cut is trivial: nothing is lost by rounding")
    rhs = rhs2 // 2
    if f["CUT"] != [str(c) for c in coeffs] + ["<=", str(rhs)]:
        raise Bad("CUT does not follow from the printed multipliers")
    if sum(c * x for c, x in zip(coeffs, case.xhat)) != rhs:
        raise Bad("cut is not tight at xhat")
    nums, d = _scaled(list(case.xstar))
    viol = _frac(viol_token)
    gap = sum(c * x for c, x in zip(coeffs, nums)) - rhs * d  # violation * d
    if viol <= 0 or gap * viol.denominator != viol.numerator * d:
        raise Bad("VIOLATION is not the cut's violation at xstar")
    calls = _int(_one(f, "CALLS"))
    bound = inst.m + (2 * inst.n if op.kind == "separate-col" else inst.n)
    if not 0 <= calls <= bound:
        raise Bad(f"CALLS {calls} outside 0..{bound}")


def check_match(op: Op, out: str, expected: str | None) -> None:
    g = op.case
    f = _lines(out, ("MATCHING", "WEIGHT", "MINCUT_CALLS_PER_SEP", "TOTAL_MINCUTS"))
    weight = _one(f, "WEIGHT")
    _value(expected, "WEIGHT " + weight)
    picked = [_int(t) for t in f["MATCHING"]]
    if len(set(picked)) != len(picked) or any(not 1 <= e <= len(g.edges) for e in picked):
        raise Bad("MATCHING lists an edge twice or out of range")
    covered: set[int] = set()
    for e in picked:
        u, v, _ = g.edges[e - 1]
        if u in covered or v in covered:
            raise Bad(f"edge {e} shares a node with another matched edge")
        covered.update((u, v))
    if sum(g.edges[e - 1][2] for e in picked) != _int(weight):
        raise Bad("MATCHING does not sum to WEIGHT")
    per_sep = _int(_one(f, "MINCUT_CALLS_PER_SEP"))
    if not 0 <= per_sep <= g.nodes + 2 * len(g.edges):
        raise Bad("MINCUT_CALLS_PER_SEP exceeds |V| + 2|E|")
    if _int(_one(f, "TOTAL_MINCUTS")) < per_sep:
        raise Bad("TOTAL_MINCUTS is below MINCUT_CALLS_PER_SEP")


def _check_optimum(inst: Instance, value: Fraction, tokens: list[str]) -> None:
    """ARGMAX satisfies Ax <= b and the box, and attains value."""
    if len(tokens) != inst.n:
        raise Bad(f"ARGMAX has {len(tokens)} entries, expected {inst.n}")
    nums, d = _scaled([_frac(t) for t in tokens])
    for j, row in enumerate(inst.A):
        if sum(a * x for a, x in zip(row, nums)) > inst.b[j] * d:
            raise Bad(f"ARGMAX violates row {j + 1}")
    if any(x < 0 or x > d for x in nums):
        raise Bad("ARGMAX leaves the box")
    total = sum(c * x for c, x in zip(inst.objective, nums))
    if total * value.denominator != value.numerator * d:
        raise Bad("ARGMAX does not attain the printed value")


def check_approx(op: Op, out: str, expected: str | None) -> None:
    f = _lines(out, ("K", "CUTS", "ALPHA", "ARGMAX"))
    alpha = _one(f, "ALPHA")
    _value(expected, "ALPHA " + alpha)
    eps = op.epsilon
    k = 1 + -(-eps.denominator // eps.numerator)  # ceil(1 + 1/eps)
    if f["K"] != [str(k)]:
        raise Bad(f"K should be {k}")
    if _int(_one(f, "CUTS")) < 0:
        raise Bad("negative CUTS")
    _check_optimum(op.case, _frac(alpha), f["ARGMAX"])


def check_oracle(op: Op, out: str, expected: str | None) -> None:
    f = _lines(out, ("VALUE", "ARGMAX"))
    value = _one(f, "VALUE")
    _value(expected, "VALUE " + value)
    _check_optimum(op.case, _frac(value), f["ARGMAX"])


CHECKS = {
    "separate-col": check_separate,
    "separate-row": check_separate,
    "match": check_match,
    "approx": check_approx,
    "oracle-opt": check_oracle,
}


def value_line(out: str) -> str:
    """The line ``expected.json`` records for an output."""
    for line in out.splitlines():
        if line.split(" ", 1)[0] in ("NONE", "VIOLATION", "WEIGHT", "ALPHA", "VALUE"):
            return line
    raise Bad("output has no value line")


def check(op: Op, code: int | None, out: str, expected: dict[str, str]) -> str | None:
    """None if the operation succeeded and its output is right, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        CHECKS[op.kind](op, out, expected.get(op.key))
    except Bad as exc:
        return str(exc)
    return None
