"""Seeded inputs for the three workloads, written in the CLI's file formats.

Every workload has a fixed base corpus: its cases come from the generators
below, each drawn from its own fixed string seed (``case_id``).  The
``--seed`` of a run turns the base corpus into relabeled variants before
the files are written: separation cases get their rows and columns
permuted, closure instances their rows, and graphs have edge endpoints
swapped.  None of this changes an optimal value, so one value recorded per
base case (``expected.json``) checks every seed.  Nothing that orders the
columns of an LP, or the rows of the matching LP, is permuted: the simplex
follows that order, and one graph's solve time can change fivefold with it,
so the seed rather than the code would set the spread.

Nothing here imports the package under test; the files are formatted by
hand after the formats documented in the README.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

_ODD = (1, 1, 3, -1)
_EVEN = (0, 0, 0, 2, -2)
_SLACK = (0, 0, 1, 1, 2)


@dataclass(frozen=True)
class Instance:
    """``A x <= b`` with per-column bound flags and an optional objective."""

    A: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]
    lower: tuple[bool, ...]
    upper: tuple[bool, ...]
    objective: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def n(self) -> int:
        return len(self.A[0])


@dataclass(frozen=True)
class SepCase:
    instance: Instance
    xhat: tuple[int, ...]
    xstar: tuple[Fraction, ...]


@dataclass(frozen=True)
class Graph:
    nodes: int
    edges: tuple[tuple[int, int, int], ...]  # 0-based endpoints, weight


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a CLI command on one case's files.

    ``key`` names the base case and command; it indexes ``expected.json``
    and is the same in every relabeled variant.
    """

    key: str
    kind: str  # separate-col, separate-row, match, approx, oracle-opt
    argv: tuple[str, ...]
    case: object
    epsilon: Fraction | None = None  # approx only


# ---------------------------------------------------------------- generators


def separation_case(rng: random.Random, m: int, n: int, profile: str) -> SepCase:
    """A col2 or row2 case built row by row.

    The points and the parity pattern are fixed first; each row is then
    redrawn on its own until both points satisfy it.  Rejecting whole
    instances instead (as ``generate.gen_primal_case`` does) gets slow at
    24x16 and gives up at 48x32.
    """
    xhat = tuple(rng.randrange(2) for _ in range(n))
    while True:
        steps = [rng.choice((0, 0, 1, 1, 2)) for _ in range(n)]
        if any(steps):
            break
    # xstar in quarters, stepped from xhat into the box
    num4 = tuple(4 * h + (s if h == 0 else -s) for h, s in zip(xhat, steps))
    odd = [[False] * n for _ in range(m)]
    if profile == "col2":
        for i in range(n):
            for j in rng.sample(range(m), rng.randrange(0, 3)):
                odd[j][i] = True
    elif profile == "row2":
        for j in range(m):
            for i in rng.sample(range(n), rng.randrange(0, 3)):
                odd[j][i] = True
    else:
        raise ValueError(f"unknown profile {profile!r}")
    A, b = [], []
    for j in range(m):
        for _ in range(1000):
            row = tuple(rng.choice(_ODD if odd[j][i] else _EVEN) for i in range(n))
            rhs = sum(a * x for a, x in zip(row, xhat)) + rng.choice(_SLACK)
            if sum(a * x for a, x in zip(row, num4)) <= 4 * rhs:
                break
        else:
            raise RuntimeError(f"row {j} never admitted both points")
        A.append(row)
        b.append(rhs)
    inst = Instance(
        tuple(A),
        tuple(b),
        tuple(rng.random() < 0.85 for _ in range(n)),
        tuple(rng.random() < 0.85 for _ in range(n)),
    )
    return SepCase(inst, xhat, tuple(Fraction(v, 4) for v in num4))


def triangle_chain(rng: random.Random, k: int) -> Graph:
    """k unit-weight triangles, consecutive ones joined by one edge.

    The edge list is shuffled: the simplex picks entering columns in edge
    order, and the natural order happens to be an unusually slow one.
    """
    edges = []
    for t in range(k):
        a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
        edges += [(a, b, 1), (b, c, 1), (a, c, 1)]
        if t + 1 < k:
            edges.append((c, c + 1, 1))
    rng.shuffle(edges)
    return Graph(3 * k, tuple(edges))


def random_graph(rng: random.Random, lo: int, hi: int, p: float, wmax: int) -> Graph:
    """Edges with probability p and weights 1..wmax, in random order."""
    nodes = rng.randint(lo, hi)
    edges = [
        (u, v, rng.randint(1, wmax))
        for u in range(nodes)
        for v in range(u + 1, nodes)
        if rng.random() < p
    ]
    rng.shuffle(edges)
    return Graph(nodes, tuple(edges))


def closure_instance(rng: random.Random, m: int, n: int) -> Instance:
    """Boxed, b >= 1, nonnegative objective: the sandwich preconditions."""
    return Instance(
        tuple(tuple(rng.choice((-1, 0, 0, 1, 1, 2, 3)) for _ in range(n)) for _ in range(m)),
        tuple(rng.randint(1, 5) for _ in range(m)),
        (True,) * n,
        (True,) * n,
        tuple(rng.randint(0, 4) for _ in range(n)),
    )


# ----------------------------------------------------------------- relabeling


def _perm(rng: random.Random, size: int) -> list[int]:
    p = list(range(size))
    rng.shuffle(p)
    return p


def relabel_instance(inst: Instance, rows: list[int], cols: list[int]) -> Instance:
    """Row j of the result is row rows[j]; column i is column cols[i]."""
    return Instance(
        tuple(tuple(inst.A[r][c] for c in cols) for r in rows),
        tuple(inst.b[r] for r in rows),
        tuple(inst.lower[c] for c in cols),
        tuple(inst.upper[c] for c in cols),
        None if inst.objective is None else tuple(inst.objective[c] for c in cols),
    )


def relabel_sep(rng: random.Random, case: SepCase) -> SepCase:
    rows = _perm(rng, case.instance.m)
    cols = _perm(rng, case.instance.n)
    return SepCase(
        relabel_instance(case.instance, rows, cols),
        tuple(case.xhat[c] for c in cols),
        tuple(case.xstar[c] for c in cols),
    )


def relabel_graph(rng: random.Random, g: Graph) -> Graph:
    """Swap the endpoints of a random half of the edges.

    Nodes and edges keep their order: node order is the row order of the
    matching LP and edge order its column order, and either one changes the
    simplex's pivot path, and with it the number of LP rounds a graph needs
    (a k = 4 chain took 5 or 6 rounds depending on the node labels).
    """
    return Graph(g.nodes, tuple(
        (v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edges
    ))


# ------------------------------------------------------------------- formats


def _frac(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def format_instance(inst: Instance) -> str:
    lines = [f"ROWS {inst.m}", f"COLS {inst.n}", "A"]
    lines += [" ".join(map(str, row)) for row in inst.A]
    lines += ["B", " ".join(map(str, inst.b))]
    lines += ["LOWER", " ".join("1" if f else "0" for f in inst.lower)]
    lines += ["UPPER", " ".join("1" if f else "0" for f in inst.upper)]
    if inst.objective is not None:
        lines += ["OBJ", " ".join(map(str, inst.objective))]
    lines.append("END")
    return "\n".join(lines) + "\n"


def format_point(point) -> str:
    return " ".join(_frac(Fraction(v)) for v in point) + "\n"


def format_graph(g: Graph) -> str:
    lines = [f"NODES {g.nodes}", f"EDGES {len(g.edges)}"]
    lines += [f"{u + 1} {v + 1} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


# ------------------------------------------------------------- base corpora

# (profile, rows, cols, method, cases), interleaved case by case.  Two
# thirds of the cases are small, so the median latency falls inside the
# 24x16 cluster rather than in the gap between the two sizes, where it
# would swing with every relabeling.
SEPARATE_FAMILIES = (
    ("col2", 24, 16, "col", 16),
    ("col2", 48, 32, "col", 8),
    ("row2", 24, 16, "row", 16),
    ("row2", 48, 32, "row", 8),
)

# Three graph families in about equal thirds, interleaved.  The odd count
# keeps the median latency on one graph rather than between two.
CHAIN_KS = (4, 5, 6, 7)
SPARSE_GRAPHS = 4
WEIGHTED_GRAPHS = 5

CLOSURE_ROWS = (10, 11, 12) * 2
CLOSURE_COLS = 8
CLOSURE_COMMANDS = (
    ("approx", Fraction(1, 2), 2),
    ("approx", Fraction(1, 5), 2),
    ("approx", Fraction(1, 2), 3),
    ("oracle-opt", None, 2),
)


def base_separate() -> list[tuple[str, str, SepCase]]:
    out = []
    for i in range(max(f[4] for f in SEPARATE_FAMILIES)):
        for profile, m, n, method, cases in SEPARATE_FAMILIES:
            if i >= cases:
                continue
            case_id = f"{profile}-{m}x{n}-{i}"
            out.append((case_id, method, separation_case(random.Random(case_id), m, n, profile)))
    return out


def base_match() -> list[tuple[str, Graph]]:
    out = []
    for i in range(max(WEIGHTED_GRAPHS, SPARSE_GRAPHS, len(CHAIN_KS))):
        if i < WEIGHTED_GRAPHS:
            case_id = f"weighted-{i}"
            out.append((case_id, random_graph(random.Random(case_id), 14, 17, 0.2, 100)))
        if i < SPARSE_GRAPHS:
            case_id = f"sparse-{i}"
            out.append((case_id, random_graph(random.Random(case_id), 8, 11, 0.45, 1)))
        if i < len(CHAIN_KS):
            case_id = f"chain-{CHAIN_KS[i]}"
            out.append((case_id, triangle_chain(random.Random(case_id), CHAIN_KS[i])))
    return out


def base_closure() -> list[tuple[str, Instance]]:
    out = []
    for i, m in enumerate(CLOSURE_ROWS):
        case_id = f"boxed-{m}x{CLOSURE_COLS}-{i}"
        out.append((case_id, closure_instance(random.Random(case_id), m, CLOSURE_COLS)))
    return out


# ------------------------------------------------------------- materialize


def _separate_ops(base, rng, workdir: str, tag: str) -> list[Op]:
    ops = []
    for case_id, method, case in base:
        if rng is not None:
            case = relabel_sep(rng, case)
        stem = os.path.join(workdir, case_id + tag)
        argv = (
            "separate",
            "--instance", _write(stem + ".inst", format_instance(case.instance)),
            "--xhat", _write(stem + ".xhat", format_point(case.xhat)),
            "--xstar", _write(stem + ".xstar", format_point(case.xstar)),
            "--method", method,
        )
        ops.append(Op(case_id, f"separate-{method}", argv, case))
    return ops


def _match_ops(base, rng, workdir: str, tag: str) -> list[Op]:
    ops = []
    for case_id, g in base:
        if rng is not None:
            g = relabel_graph(rng, g)
        path = _write(os.path.join(workdir, case_id + tag + ".graph"), format_graph(g))
        ops.append(Op(case_id, "match", ("match", "--graph", path, "--stats"), g))
    return ops


def _closure_ops(base, rng, workdir: str, tag: str) -> list[Op]:
    ops = []
    for case_id, inst in base:
        if rng is not None:
            # rows only: the LP columns keep their order, as for graphs
            inst = relabel_instance(inst, _perm(rng, inst.m), list(range(inst.n)))
        path = _write(os.path.join(workdir, case_id + tag + ".inst"), format_instance(inst))
        for kind, eps, q in CLOSURE_COMMANDS:
            if kind == "oracle-opt":
                key, argv = f"{case_id} oracle-opt", ("oracle-opt", "--instance", path)
            else:
                key = f"{case_id} approx {_frac(eps)} q{q}"
                argv = ("approx", "--instance", path, "--epsilon", _frac(eps))
                if q != 2:
                    argv += ("--modulus", str(q))
            ops.append(Op(key, kind, argv, inst, eps))
    return ops


_BUILDERS = {
    "separate": (base_separate, _separate_ops),
    "match": (base_match, _match_ops),
    "closure": (base_closure, _closure_ops),
}
WORKLOADS = tuple(_BUILDERS)


def build_ops(workload: str, seed: int | None, variants: int, workdir: str) -> list[Op]:
    """Write the workload's files under workdir and return its operations.

    The result holds ``variants`` relabelings of the base corpus, variant by
    variant; variant v is drawn from the seed and v alone.  A seed of None
    writes the base cases once, unrelabeled, for recording expected values.
    """
    make_base, make_ops = _BUILDERS[workload]
    base = make_base()
    if seed is None:
        return make_ops(base, None, workdir, "")
    ops: list[Op] = []
    for v in range(variants):
        ops += make_ops(base, random.Random(f"{seed}/{v}"), workdir, f".v{v}")
    return ops
