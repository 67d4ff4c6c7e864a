"""The benchmark's tracer wraps public names of the package; keep them there."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_a_callable_of_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod, name in tracing.TRACED:
        module = importlib.import_module(f"zerohalf.{mod}")
        assert callable(getattr(module, name, None)), f"zerohalf.{mod}.{name}"


K3_INSTANCE = """\
ROWS 3
COLS 3
A
1 1 0
1 0 1
0 1 1
B
1 1 1
LOWER
1 1 1
UPPER
1 1 1
OBJ
1 1 1
END
"""

OBSERVED_COUNTS = (
    "colsep.collapsed",
    "colsep.found",
    "rowsep.found",
    "graphs.separation_calls",
    "matching.lp_solves",
    "matching.mincut_calls",
    "simplex.lp_cells",
)


def test_tracer_observers_read_what_the_cli_passes(tmp_path, capsys):
    """One traced run per observed layer: the observers read arguments and
    results by name, so a renamed field or parameter fails here."""
    import zerohalf.cli as cli

    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    files = {"k3.inst": K3_INSTANCE, "k3.xhat": "1 0 0\n", "k3.xstar": "1/2 1/2 1/2\n",
             "k3.graph": "NODES 3\nEDGES 3\n1 2 1\n1 3 1\n2 3 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    inst, xhat, xstar, graph = [str(tmp_path / name) for name in files]
    separate = ["separate", "--instance", inst, "--xhat", xhat, "--xstar", xstar, "--method"]
    commands = [
        separate + ["col"],
        separate + ["row"],
        ["match", "--graph", graph, "--stats"],
        ["approx", "--instance", inst, "--epsilon", "1/2"],
        ["oracle-opt", "--instance", inst],
    ]
    with tracing.Tracer() as tracer:
        for argv in commands:
            tracer.begin_op()
            assert cli.run_command(argv) == 0, argv
    capsys.readouterr()
    seen = {}
    for counts in tracer.op_counts:
        for key, value in counts.items():
            seen[key] = seen.get(key, 0) + value
    for key in OBSERVED_COUNTS:
        assert key in seen, key
    untraced = {"core.is_tight_nontrivial"}  # no command reaches it
    for name in tracing.NAMES:
        assert (seen.get(f"{name}.calls", 0) > 0) == (name not in untraced), name
