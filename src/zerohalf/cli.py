"""Command-line front end.

Exit codes: 0 on success, 1 for usage or file-format problems, 2 when an
input violates a mathematical precondition (infeasible point, method not
applicable, nonpositive right-hand sides or a negative objective entry for
approx, and so on).  Reports go to standard output and are deterministic
for fixed inputs and seeds; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import random
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .closure import ApproxParams, approx_optimize, monotone_presolve
from .colsep import primal_separate_col
from .core import (
    HALF,
    IlpInstance,
    MethodNotApplicableError,
    Multipliers,
    Point,
    SeparationResult,
    ZeroHalfError,
    as_point,
    compute_context,
    derive_cut,
    extended_slack,
    is_integral,
    objective_of,
    unfloored_rhs,
    violation,
)
from .generate import PROFILES, gen_primal_case
from .matching import WeightedGraph, solve_matching
from .oracle import brute_closure_optimize, brute_primal_separate
from .rowsep import primal_separate_row
from .simplex import solve_relaxation


class FileFormatError(ZeroHalfError):
    """Malformed input file; rendered with line and column."""


class _UsageError(Exception):
    pass


def fmt_frac(value: Fraction) -> str:
    # str() of an int or a Fraction is already "p" or "p/q"
    return str(value if type(value) in (int, Fraction) else Fraction(value))


def _fmt_vec(values) -> str:
    return " ".join(map(fmt_frac, values))


# ------------------------------------------------------------- file formats


class _Tokens:
    """Whitespace-separated tokens; # starts a comment.

    Tokens are plain strings.  For each line that has any, ``firsts`` holds
    the index of its first token and ``linenos`` the line's index, so the
    line and column of a token are worked out only for an error message.
    """

    def __init__(self, text: str, source: str):
        self.source = source
        self.lines = text.splitlines()
        self.tokens: list[str] = []
        self.firsts: list[int] = []
        self.linenos: list[int] = []
        for lineno, line in enumerate(self.lines):
            words = line.split("#", 1)[0].split()
            if words:
                self.firsts.append(len(self.tokens))
                self.linenos.append(lineno)
                self.tokens += words
        self.pos = 0

    def _fail(self, message: str, at: int | None) -> FileFormatError:
        """An error at token ``at``, or at the end of the file when it is None."""
        if at is None:
            return FileFormatError(f"{self.source}: {message} at end of file")
        k = bisect.bisect_right(self.firsts, at) - 1
        line = self.lines[self.linenos[k]].split("#", 1)[0]
        col = 0
        for tok in self.tokens[self.firsts[k]:at + 1]:
            col = line.index(tok, col) + len(tok)
        tok = self.tokens[at]
        where = f"line {self.linenos[k] + 1} column {col - len(tok) + 1}"
        return FileFormatError(f"{self.source}: {where}: {message}, found {tok!r}")

    def take(self, what: str) -> str:
        if self.pos >= len(self.tokens):
            raise self._fail(f"expected {what}", None)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def keyword(self, word: str) -> None:
        if self.take(word) != word:
            raise self._fail(f"expected {word}", self.pos - 1)

    def integer(self, what: str, minimum: int | None = None) -> int:
        tok = self.take(what)
        try:
            value = int(tok)
        except ValueError:
            raise self._fail(f"expected {what} (an integer)", self.pos - 1) from None
        if minimum is not None and value < minimum:
            raise self._fail(f"expected {what} of at least {minimum}", self.pos - 1)
        return value

    def integer_run(
        self, count: int, what: Callable[[int], str]
    ) -> tuple[list[int], FileFormatError | None]:
        """The next ``count`` tokens read with ``int()``, up to the first that fails.

        Returns the integers read and the error that stopped the run, or
        None when all ``count`` were read.  The run is converted in one
        pass; only a short or bad run is read again token by token, with
        ``what(k)`` naming entry k, so the error is the one ``integer``
        gives.
        """
        run = self.tokens[self.pos:self.pos + count]
        if len(run) == count:
            try:
                values = list(map(int, run))
            except ValueError:
                pass
            else:
                self.pos += count
                return values, None
        values = []
        try:
            for k in range(count):
                values.append(self.integer(what(k)))
        except FileFormatError as exc:
            return values, exc
        return values, None

    def integers(self, count: int, what: Callable[[int], str]) -> list[int]:
        values, error = self.integer_run(count, what)
        if error is not None:
            raise error
        return values

    def fraction(self, what: str) -> Fraction:
        tok = self.take(what)
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            raise self._fail(f"expected {what} (integer or p/q)", self.pos - 1) from None

    def fractions(self, count: int, what: Callable[[int], str]) -> list[Fraction]:
        """The next ``count`` tokens read with ``Fraction()``.

        A short or bad run is read again token by token, as ``integers`` does.
        """
        run = self.tokens[self.pos:self.pos + count]
        if len(run) == count:
            try:
                values = list(map(Fraction, run))
            except (ValueError, ZeroDivisionError):
                pass
            else:
                self.pos += count
                return values
        return [self.fraction(what(k)) for k in range(count)]

    def flag(self, what: str) -> bool:
        tok = self.take(what)
        if tok not in ("0", "1"):
            raise self._fail(f"expected {what} (0 or 1)", self.pos - 1)
        return tok == "1"

    def finish(self) -> None:
        if self.pos < len(self.tokens):
            raise self._fail("expected end of file", self.pos)


def parse_instance(text: str, source: str = "instance") -> IlpInstance:
    t = _Tokens(text, source)
    t.keyword("ROWS")
    m = t.integer("row count", minimum=1)
    t.keyword("COLS")
    n = t.integer("column count", minimum=1)
    t.keyword("A")
    flat = t.integers(m * n, lambda k: f"A[{k // n + 1}][{k % n + 1}]")
    A = tuple([tuple(flat[j * n:(j + 1) * n]) for j in range(m)])
    t.keyword("B")
    b = tuple(t.integers(m, lambda j: f"B[{j + 1}]"))
    t.keyword("LOWER")
    lower = tuple([t.flag(f"LOWER[{i + 1}]") for i in range(n)])
    t.keyword("UPPER")
    upper = tuple([t.flag(f"UPPER[{i + 1}]") for i in range(n)])
    objective = None
    word = t.take("OBJ or END")
    if word == "OBJ":
        objective = tuple(t.integers(n, lambda i: f"OBJ[{i + 1}]"))
        word = t.take("END")
    if word != "END":
        raise t._fail("expected END", t.pos - 1)
    t.finish()
    return IlpInstance(A, b, lower, upper, objective)


def parse_point(text: str, n: int, source: str = "point") -> Point:
    t = _Tokens(text, source)
    pt = tuple(t.fractions(n, lambda i: f"coordinate {i + 1}"))
    t.finish()
    return pt


def _edge_entry(k: int) -> str:
    return f"edge {k // 3 + 1} {'weight' if k % 3 == 2 else 'endpoint'}"


def parse_graph(text: str, source: str = "graph") -> WeightedGraph:
    t = _Tokens(text, source)
    t.keyword("NODES")
    k = t.integer("node count", minimum=0)
    t.keyword("EDGES")
    m = t.integer("edge count", minimum=0)
    # the edges before a bad token are checked before its error is raised
    flat, bad = t.integer_run(3 * m, _edge_entry)
    edges = []
    first: dict[frozenset[int], int] = {}  # endpoints -> number of the first such edge
    triples = iter(flat)
    for e, (u, v, w) in enumerate(zip(triples, triples, triples), 1):
        if not (1 <= u <= k and 1 <= v <= k):
            raise FileFormatError(f"{source}: edge {e}: endpoints are 1..{k}, got {u} {v}")
        if u == v:
            raise FileFormatError(f"{source}: edge {e}: loop at node {u}")
        key = frozenset((u, v))
        if key in first:
            raise FileFormatError(
                f"{source}: edge {e}: {u} {v} repeats edge {first[key]}"
            )
        first[key] = e
        edges.append((u - 1, v - 1, w))
    if bad is not None:
        raise bad
    t.finish()
    return WeightedGraph(k, tuple(edges))


def format_instance(instance: IlpInstance) -> str:
    lines = [f"ROWS {instance.m}", f"COLS {instance.n}", "A"]
    lines += [" ".join(str(a) for a in row) for row in instance.A]
    lines.append("B")
    lines.append(" ".join(str(v) for v in instance.b))
    lines.append("LOWER")
    lines.append(" ".join("1" if f else "0" for f in instance.lower_present))
    lines.append("UPPER")
    lines.append(" ".join("1" if f else "0" for f in instance.upper_present))
    if instance.objective is not None:
        lines.append("OBJ")
        lines.append(" ".join(str(c) for c in instance.objective))
    lines.append("END")
    return "\n".join(lines) + "\n"


def format_point(point) -> str:
    return _fmt_vec(as_point(point)) + "\n"


def format_graph(graph: WeightedGraph) -> str:
    lines = [f"NODES {graph.node_count}", f"EDGES {len(graph.edges)}"]
    lines += [f"{u + 1} {v + 1} {w}" for u, v, w in graph.edges]
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


# -------------------------------------------------------------- subcommands


def _cmd_separate(ns) -> int:
    inst = parse_instance(_read(ns.instance), ns.instance)
    xhat = parse_point(_read(ns.xhat), inst.n, ns.xhat)
    xstar = parse_point(_read(ns.xstar), inst.n, ns.xstar)
    if ns.modulus != 2:
        raise MethodNotApplicableError(
            f"separate works on the halves grid only, not modulus {ns.modulus}"
        )
    ctx = compute_context(inst, xhat, xstar)
    if ns.method == "col":
        result = primal_separate_col(ctx)
    elif ns.method == "row":
        result = primal_separate_row(ctx)
    elif ns.method == "oracle":
        result = _oracle_separation(ctx)
    else:
        profile = ctx.parity
        if profile.column_method_ok:
            result = primal_separate_col(ctx)
        elif profile.row_method_ok:
            result = primal_separate_row(ctx)
        else:
            try:
                result = _oracle_separation(ctx)
            except ZeroHalfError as exc:
                print(f"error: {exc}", file=sys.stderr)
                print(
                    "PARITY_COLUMN_ODD " + " ".join(map(str, profile.column_odd_counts)),
                    file=sys.stderr,
                )
                print(
                    "PARITY_ROW_ODD " + " ".join(map(str, profile.row_odd_counts)),
                    file=sys.stderr,
                )
                return 2
    if result.cut is None:
        print("NONE")
        return 0
    cut = result.cut
    print(f"CUT {_fmt_vec(cut.coeffs)} <= {fmt_frac(cut.rhs)}")
    print(f"LAMBDA {_fmt_vec(cut.provenance.lam)}")
    print(f"MU_DOWN {_fmt_vec(cut.provenance.mu_down)}")
    print(f"MU_UP {_fmt_vec(cut.provenance.mu_up)}")
    print(f"VIOLATION {fmt_frac(result.violation)}")
    print(f"CALLS {result.calls}")
    return 0


def _fraction_arg(flag: str, text: str, entry: int | None = None) -> Fraction:
    """A P/Q value from the command line; a bad one is a usage error naming where it is."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        where = flag if entry is None else f"{flag} entry {entry}"
        raise _UsageError(f"{where}: expected an integer or p/q, found {text!r}") from None


def _oracle_separation(ctx) -> SeparationResult:
    cut = brute_primal_separate(ctx)
    if cut is None:
        return SeparationResult(None, None, 0)
    return SeparationResult(cut, violation(cut, ctx.xstar), 0)


def _cmd_approx(ns) -> int:
    inst = parse_instance(_read(ns.instance), ns.instance)
    params = ApproxParams(epsilon=_fraction_arg("--epsilon", ns.epsilon), modulus=ns.modulus)
    objective = objective_of(inst, nonnegative=True)
    reduced, report = monotone_presolve(inst) if ns.presolve_monotone else (inst, None)
    if reduced is None:
        # presolve removed every row: only the box of the kept coordinates is left
        keep = report.kept_coords
        res = solve_relaxation(
            (),
            (),
            [inst.lower_present[i] for i in keep],
            [inst.upper_present[i] for i in keep],
            (),
            [objective[i] for i in keep],
        )
        alpha, argmax, cut_count = res.value, res.point, 0
    else:
        res = approx_optimize(reduced, None, params)
        alpha, argmax, cut_count = res.alpha, res.argmax, res.cut_count
    if report is not None:
        argmax = report.lift(argmax)
    print(f"K {params.k}")
    print(f"CUTS {cut_count}")
    print(f"ALPHA {fmt_frac(alpha)}")
    print(f"ARGMAX {_fmt_vec(argmax)}")
    return 0


def _cmd_match(ns) -> int:
    graph = parse_graph(_read(ns.graph), ns.graph)
    res = solve_matching(graph)
    print(("MATCHING " + " ".join(str(e + 1) for e in res.matching)).rstrip())
    print(f"WEIGHT {res.weight}")
    if ns.stats:
        print(f"MINCUT_CALLS_PER_SEP {res.counters.max_calls_per_separation}")
        print(f"TOTAL_MINCUTS {res.counters.total_mincut_calls}")
    return 0


def _cmd_oracle_opt(ns) -> int:
    inst = parse_instance(_read(ns.instance), ns.instance)
    value, point = brute_closure_optimize(inst, None, ns.modulus)
    print(f"VALUE {fmt_frac(value)}")
    print(f"ARGMAX {_fmt_vec(point)}")
    return 0


def _cmd_check(ns) -> int:
    inst = parse_instance(_read(ns.instance), ns.instance)
    xhat = parse_point(_read(ns.xhat), inst.n, ns.xhat)
    for flag, values, count, per in (
        ("--lambda", ns.lam, inst.m, "row"),
        ("--mu-down", ns.mu_down, inst.n, "column"),
        ("--mu-up", ns.mu_up, inst.n, "column"),
    ):
        if values is not None and len(values) != count:
            raise _UsageError(f"{flag} has {len(values)} entries, expected {count} (one per {per})")
    if not is_integral(xhat):
        raise ZeroHalfError(f"xhat {_fmt_vec(xhat)} is not integral")
    bad = inst.feasibility_failure(xhat)
    if bad is not None:
        raise ZeroHalfError(f"xhat is infeasible: {bad}")

    def entries(flag, values):
        return tuple([_fraction_arg(flag, v, k) for k, v in enumerate(values, 1)])

    lam = entries("--lambda", ns.lam)
    down = entries("--mu-down", ns.mu_down) if ns.mu_down else (Fraction(0),) * inst.n
    up = entries("--mu-up", ns.mu_up) if ns.mu_up else (Fraction(0),) * inst.n
    try:
        mult = Multipliers(lam, down, up)
        cut = derive_cut(inst, mult)
    except ZeroHalfError as exc:
        print("VALID no")
        print(f"REASON {exc}")
        return 0
    before = unfloored_rhs(inst, mult)
    verdict = extended_slack(inst, mult, xhat) == HALF
    print("VALID yes")
    print(f"CUT {_fmt_vec(cut.coeffs)} <= {fmt_frac(cut.rhs)}")
    print(f"TIGHT {'yes' if violation(cut, xhat) == 0 else 'no'}")
    print(f"UNFLOORED_RHS {fmt_frac(before)}")
    print(f"NONTRIVIAL {'yes' if before.denominator != 1 else 'no'}")
    print(f"VERDICT {'tight-nontrivial' if verdict else 'not-tight-nontrivial'}")
    return 0


def _cmd_gen(ns) -> int:
    rng = random.Random(ns.seed)
    case = gen_primal_case(rng, ns.rows, ns.cols, ns.profile)
    files = (
        (f"{ns.out}.inst", format_instance(case.instance)),
        (f"{ns.out}.xhat", format_point(case.xhat)),
        (f"{ns.out}.xstar", format_point(case.xstar)),
    )
    for path, payload in files:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"WROTE {path}")
    return 0


# -------------------------------------------------------------------- wiring


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="zerohalf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="primal separation at an integral point")
    p.add_argument("--instance", required=True)
    p.add_argument("--xhat", required=True)
    p.add_argument("--xstar", required=True)
    p.add_argument("--method", choices=("col", "row", "auto", "oracle"), default="auto")
    p.add_argument("--modulus", type=int, default=2)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("approx", help="bounded-support closure optimum")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", required=True, metavar="P/Q")
    p.add_argument("--modulus", type=int, default=2)
    p.add_argument("--presolve-monotone", action="store_true")
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("match", help="maximum-weight matching by primal cuts")
    p.add_argument("--graph", required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("oracle-opt", help="exact closure optimum by enumeration")
    p.add_argument("--instance", required=True)
    p.add_argument("--modulus", type=int, default=2)
    p.set_defaults(func=_cmd_oracle_opt)

    p = sub.add_parser("check", help="classify one multiplier vector at xhat")
    p.add_argument("--instance", required=True)
    p.add_argument("--xhat", required=True)
    p.add_argument("--lambda", dest="lam", required=True, nargs="+", metavar="P/Q")
    p.add_argument("--mu-down", nargs="+", metavar="P/Q")
    p.add_argument("--mu-up", nargs="+", metavar="P/Q")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="write a random instance with xhat and xstar")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.add_argument("--profile", choices=PROFILES, default="mixed")
    p.add_argument("--out", default="case", metavar="PREFIX")
    p.set_defaults(func=_cmd_gen)
    return parser


@functools.cache
def _shared_parser() -> _Parser:
    """One parser per process: building it is costly and leaves reference cycles."""
    return build_parser()


def run_command(argv: Sequence[str] | None = None) -> int:
    try:
        ns = _shared_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a file that is not UTF-8
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ZeroHalfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
