"""The benchmark's span tracer patches package names where callers look
them up, so every name it lists must exist in its module; otherwise a
traced benchmark run (``benchmarks/run.py --trace 1``) fails."""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.TARGETS
               if not hasattr(module, attr)]
    assert not missing
