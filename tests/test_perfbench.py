"""The benchmark's modules load against this checkout's package.

perfbench/ reaches into the package by name, private helpers included
(`continuation._fit_bandwidth`), and its tracer swaps module attributes;
a refactor that drops or moves one of those names breaks the benchmark
without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import hypchoreo
import hypchoreo.cli  # noqa: F401  (the tracer wraps cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    """Import perfbench/<name>.py under its own name, as perfbench/run.py does."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_workloads_import_and_tracer_installs(monkeypatch):
    load("workloads", monkeypatch)
    tracing = load("tracing", monkeypatch)
    solve = hypchoreo.optimizer.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert hypchoreo.optimizer.solve is not solve
    finally:
        tracer.remove()
    assert hypchoreo.optimizer.solve is solve
