"""The benchmark's span tracer (bench/tracing.py) wraps package functions
by rebinding their names; every name it rebinds must still resolve, or
the traced benchmark runs fail."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = tracing._wrap_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _span, _observer in targets
               if not hasattr(owner, attr)]
    assert targets and not missing, missing
