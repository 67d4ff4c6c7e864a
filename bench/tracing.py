"""Per-layer tracing from outside the program.

The package's modules import each other's functions by name (``from
.simplex import lp_solve``), so wrapping a function means rebinding every
module attribute that holds it, not only the defining one.  Only the public
names in ``TRACED`` are wrapped; private helpers can be rewritten freely
without breaking the benchmark.

Each call becomes a span (name, start, end, parent span, operation) kept in
memory.  Counts are taken only from public results and arguments
(``SeparationResult.calls``, ``MatchingCounters``, the LP shape handed to
``lp_solve``), never from timing, so they repeat exactly for the same
inputs.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

TRACED = (
    ("cli", "run_command"),
    ("simplex", "lp_solve"),
    ("graphs", "min_cut"),
    ("graphs", "shortest_path"),
    ("colsep", "primal_separate_col"),
    ("colsep", "build_cut_graph"),
    ("rowsep", "primal_separate_row"),
    ("rowsep", "build_parity_graph"),
    ("core", "compute_context"),
    ("core", "derive_cut"),
    ("core", "is_tight_nontrivial"),
    ("matching", "solve_matching"),
    ("closure", "enumerate_bounded_cuts"),
    ("oracle", "enumerate_cut_rows"),
    ("oracle", "brute_closure_optimize"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _lp(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    counts["simplex.lp_cells"] += len(rows) * len(_arg(args, kwargs, 2, "objective"))


def _separation(layer: str, bound_cols: int):
    def observe(counts, args, kwargs, result):
        inst = _arg(args, kwargs, 0, "ctx").instance
        counts[f"{layer}.separations"] += 1
        counts[f"{layer}.found"] += result.cut is not None
        counts["graphs.separation_calls"] += result.calls
        counts["graphs.separation_bound"] += inst.m + bound_cols * inst.n

    return observe


def _cut_graph(counts, args, kwargs, result):
    counts["colsep.collapsed"] += bool(result.collapsed)


def _matching(counts, args, kwargs, result):
    c = result.counters
    counts["matching.lp_solves"] += c.lp_solves
    counts["matching.cuts_added"] += c.cuts_added
    counts["matching.augmentations"] += c.augmentations
    counts["matching.mincut_calls"] += c.total_mincut_calls


OBSERVERS = {
    "simplex.lp_solve": _lp,
    "colsep.primal_separate_col": _separation("colsep", 2),
    "rowsep.primal_separate_row": _separation("rowsep", 1),
    "colsep.build_cut_graph": _cut_graph,
    "matching.solve_matching": _matching,
}


class Tracer:
    """Wraps the traced functions while active; call ``begin_op`` per operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._origin = perf_counter()

    def begin_op(self) -> Counter:
        """Start a new operation; returns the counter its counts go into."""
        self.op_counts.append(Counter())
        return self.op_counts[-1]

    def _wrap(self, index: int, fn):
        name = NAMES[index]
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack
        op_counts = self.op_counts

        def traced(*args, **kwargs):
            counts = op_counts[-1]
            counts[name + ".calls"] += 1
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, len(op_counts) - 1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".errors"] += 1
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "zerohalf"]
        for index, (mod, fn) in enumerate(TRACED):
            original = getattr(sys.modules[f"zerohalf.{mod}"], fn)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def layer_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per traced name, summed over all spans.

        Self time is a span's duration minus the durations of its direct
        children; the children of one span never overlap, since the program
        is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = dict.fromkeys(NAMES, 0.0)
        own = dict.fromkeys(NAMES, 0.0)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[NAMES[name]] += end - start
            own[NAMES[name]] += end - start - child[i]
        return total, own

    def write(self, path: str, op_keys: list[str]) -> None:
        """Spans as JSON; times in seconds from the tracer's creation."""
        t0 = self._origin
        payload = {
            "names": list(NAMES),
            "ops": op_keys,
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [n, round(s - t0, 7), round(e - t0, 7), p, o] for n, s, e, p, o in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
