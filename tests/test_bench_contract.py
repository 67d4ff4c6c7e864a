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
