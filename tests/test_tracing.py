"""bench/tracing.py patches linconn functions by name (its TARGETS); deleting
or renaming one of them must fail here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

import linconn.cli  # noqa: F401  (the tracer patches the modules already imported)
import linconn.expr

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("linconn_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_removes_cleanly():
    tracing = _load_tracing()
    evaluate = linconn.expr.evaluate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {attr for _, attr, _ in tracer._patches}
        assert {attr for _, _, attr, _ in tracing.TARGETS} <= patched
        assert linconn.expr.evaluate is not evaluate
    finally:
        tracer.remove()
    assert linconn.expr.evaluate is evaluate
