#!/usr/bin/env python3
"""Closed-loop benchmark of the zerohalf command line.

    python3 bench/run.py --workload separate|match|closure --seed N \\
        --seconds S --trace 0|1

One client in one process sends one CLI command at a time, each an
in-process ``zerohalf.cli.run_command`` call on files written at set-up, so
parsing and formatting are timed with the solve.  Every output is checked
(``checks.py``).  Human-readable report lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed set of operations traced, untraced and traced
again, reports the per-layer metrics of one traced pass, fails if the two
traced passes disagree on any count, and writes the spans to
``.bench_work/trace-<workload>-<seed>.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKROOT = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

# Relabeled copies of the base corpus written for one run, and the number
# of them a traced run covers.  An untraced run cycles through its copies
# and stops at the first copy boundary after --seconds, so every run times
# each base case equally often.
VARIANTS = {"separate": 4, "match": 4, "closure": 5}
TRACE_VARIANTS = {"separate": 2, "match": 1, "closure": 1}
# Latencies are taken over a fixed number of variants (about --seconds
# worth), so every run has the same sample count and the tail sits at the
# same percentile; a run lasts at least this long, then at least --seconds.
LATENCY_VARIANTS = {"separate": 12, "match": 3, "closure": 4}
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail latency has this many samples beyond it

DESCRIPTION = {
    "separate": "48 cases per variant: col2 (separate --method col) and row2"
    " (--method row), each 16 at 24x16 and 8 at 48x32",
    "match": "13 graphs per variant for match --stats: triangle chains k=4..7,"
    " 4 unit-weight random graphs on 8-11 nodes, 5 weighted random graphs"
    " on 14-17 nodes",
    "closure": "6 boxed instances per variant (m = 10, 11, 12; n = 8; b >= 1),"
    " each through approx --epsilon 1/2, 1/5, 1/2 --modulus 3 and oracle-opt",
}


def run_op(cli, op: corpus.Op) -> tuple[int | None, str, float, str]:
    """One operation: exit code (None if it raised), stdout, seconds, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.run_command(list(op.argv))
        except Exception:  # an escaped exception is a failed operation
            code = None
            traceback.print_exc()
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds, err.getvalue()


class Checker:
    """Checks outputs, once per distinct (operation, exit code, output)."""

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.failed = 0
        self.reasons: list[str] = []
        self._seen: dict[tuple, str | None] = {}

    def __call__(self, op: corpus.Op, code, out: str, err: str) -> bool:
        key = (op.argv, code, out)
        if key not in self._seen:
            self._seen[key] = checks.check(op, code, out, self.expected)
        reason = self._seen[key]
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 3:
                self.reasons.append(f"{op.key}: {reason}; {err.strip()[-300:]}")
        return reason is None


def set_up(cli, workload: str, seed: int, variants: int, check, workdir: str):
    """Generate and write the inputs, then warm up: one op of each kind.

    Returns the operations and the seconds the set-up took.
    """
    start = perf_counter()
    ops = corpus.build_ops(workload, seed, variants, workdir)
    if workload == "separate":
        from zerohalf.core import IlpInstance, parity_profile

        for op in ops:
            inst = op.case.instance
            profile = parity_profile(IlpInstance(inst.A, inst.b, inst.lower, inst.upper))
            ok = profile.column_method_ok if op.kind == "separate-col" else profile.row_method_ok
            if not ok:
                raise RuntimeError(f"{op.key}: generated case misses its parity profile")
    warm = {}
    for op in ops:
        warm.setdefault(op.kind, op)
    for op in warm.values():
        code, out, _, err = run_op(cli, op)
        check(op, code, out, err)
    return ops, perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(cli, workload: str, seed: int, seconds: float, expected, workroot: str,
            import_s: float) -> dict:
    setups = []
    warmup_check = Checker(expected)
    for r in range(SETUP_REPEATS):
        # each repeat starts from the state a fresh process would be in
        ops = None
        gc.collect()
        workdir = os.path.join(workroot, f"setup{r}")
        os.mkdir(workdir)
        ops, took = set_up(cli, workload, seed, VARIANTS[workload], warmup_check, workdir)
        setups.append(took)
    check = Checker(expected)
    per_variant = len(ops) // VARIANTS[workload]
    timed = LATENCY_VARIANTS[workload] * per_variant
    latencies = []
    start = perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        code, out, took, err = run_op(cli, op)
        latencies.append(took)
        check(op, code, out, err)
        i += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds and i >= timed and i % per_variant == 0:
            break
    n = len(latencies)
    p50_s = statistics.median(latencies[:timed])
    tail_s, tail_pct = tail(latencies[:timed])
    setup_s = import_s + statistics.median(setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {workload}, seed {seed}: {DESCRIPTION[workload]};"
          f" {VARIANTS[workload]} relabeled variants, {len(ops)} operations per cycle")
    print(f"closed loop, one client: {n} operations in {elapsed:.2f} s,"
          f" failed {check.failed} (failed_ratio {check.failed / n:.4f})")
    print(f"latency over the first {timed} operations: p50 {1000 * p50_s:.3f} ms;"
          f" tail p{tail_pct:.2f} ({TAIL_BEYOND} of {timed} samples beyond)"
          f" {1000 * tail_s:.3f} ms")
    print(f"setup {setup_s:.4f} s = import {import_s:.4f} s + median of"
          f" {SETUP_REPEATS} set-ups {[round(s, 4) for s in setups]}")
    for reason in check.reasons + warmup_check.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    return {
        "correct": check.failed == 0 and warmup_check.failed == 0,
        "attempted": n,
        "failed": check.failed,
        "metrics": {
            "ops_per_s": {"value": n / elapsed, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * p50_s, "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def _pass(cli, ops, check, tracer=None) -> float:
    """Every operation once; returns the seconds spent inside the program."""
    busy = 0.0
    for op in ops:
        counts = tracer.begin_op() if tracer is not None else None
        code, out, took, err = run_op(cli, op)
        busy += took
        ok = check(op, code, out, err)
        if counts is not None and op.kind == "approx" and ok:
            counts["closure.cuts"] += int(out.split("\nCUTS ", 1)[1].split("\n", 1)[0])
    return busy


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def measure_traced(cli, workload: str, seed: int, expected, workroot: str) -> dict | None:
    warmup_check = Checker(expected)
    ops, _ = set_up(cli, workload, seed, TRACE_VARIANTS[workload], warmup_check, workroot)
    check = Checker(expected)
    # traced, untraced, traced: the overhead estimate does not depend on
    # which pass ran first
    tracer = tracing.Tracer()
    with tracer:
        traced = _pass(cli, ops, check, tracer)
    plain = _pass(cli, ops, check)
    with tracer:
        traced += _pass(cli, ops, check, tracer)
    first, second = tracer.op_counts[: len(ops)], tracer.op_counts[len(ops):]
    for op, a, b in zip(ops, first, second):
        if a != b:
            diff = sorted(k for k in set(a) | set(b) if a[k] != b[k])
            print(f"error: counts differ between two traced passes of {op.key}"
                  f" ({op.argv[0]}): {diff}", file=sys.stderr)
            return None
    for reason in check.reasons + warmup_check.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    counts = sum(first, Counter())
    total, own = tracer.layer_times()
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = (counts[f"{name}.calls"], "count")
        metrics[f"{name}.s"] = (total[name] / 2, "s")
        metrics[f"{name}.self_s"] = (own[name] / 2, "s")
        metrics[f"{name}.errors"] = (counts[f"{name}.errors"], "count")
    metrics["simplex.lp_cells"] = (counts["simplex.lp_cells"], "count")
    metrics["graphs.calls_per_bound"] = (
        _ratio(counts["graphs.separation_calls"], counts["graphs.separation_bound"]), "ratio")
    metrics["colsep.collapsed_ratio"] = (
        _ratio(counts["colsep.collapsed"], counts["colsep.build_cut_graph.calls"]), "ratio")
    for layer in ("colsep", "rowsep"):
        metrics[f"{layer}.found_ratio"] = (
            _ratio(counts[f"{layer}.found"], counts[f"{layer}.separations"]), "ratio")
    for name in ("lp_solves", "cuts_added", "augmentations", "mincut_calls"):
        metrics[f"matching.{name}"] = (counts[f"matching.{name}"], "count")
    metrics["closure.cuts"] = (counts["closure.cuts"], "count")
    # share of the untraced throughput lost to tracing
    metrics["trace.overhead_ratio"] = (1 - 2 * plain / traced, "ratio")

    path = os.path.join(WORKROOT, f"trace-{workload}-{seed}.json")
    tracer.write(path, [op.key for op in ops] * 2)
    print(f"workload {workload}, seed {seed}: {DESCRIPTION[workload]};"
          f" traced set of {TRACE_VARIANTS[workload]} variant(s), {len(ops)} operations,"
          f" traced, untraced and traced passes; spans in {os.path.relpath(path, ROOT)}")
    print(f"untraced pass {plain:.3f} s, traced passes {traced / 2:.3f} s each;"
          f" per-layer figures are per traced pass")
    for line in routing(workload, metrics):
        print(line)
    return {
        "correct": check.failed == 0 and warmup_check.failed == 0,
        "attempted": 3 * len(ops),
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def routing(workload: str, metrics: dict) -> list[str]:
    """The predictions the benchmark was designed around, checked."""
    value = {k: v for k, (v, _) in metrics.items()}
    lines = []
    if workload == "separate":
        lines.append(("simplex.lp_solve.calls == 0", value["simplex.lp_solve.calls"] == 0))
    if workload == "closure":
        calls = value["graphs.min_cut.calls"] + value["graphs.shortest_path.calls"]
        lines.append(("graphs min_cut + shortest_path calls == 0", calls == 0))
    if workload == "match":
        top = max(tracing.NAMES, key=lambda n: value[f"{n}.self_s"])
        lines.append((f"largest self time is simplex.lp_solve (found {top})",
                      top == "simplex.lp_solve"))
    return [f"routing {text}: {'as predicted' if ok else 'NOT as predicted'}"
            for text, ok in lines]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zerohalf", "cli.py")):
        print(f"error: no package sources at {SRC}/zerohalf", file=sys.stderr)
        return 2
    start = perf_counter()
    sys.path.insert(0, SRC)
    import zerohalf.cli as cli

    import_s = perf_counter() - start
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        expected = json.load(handle)[args.workload]
    os.makedirs(WORKROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=WORKROOT) as workroot:
        if args.trace:
            result = measure_traced(cli, args.workload, args.seed, expected, workroot)
        else:
            result = measure(cli, args.workload, args.seed, args.seconds, expected,
                             workroot, import_s)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
