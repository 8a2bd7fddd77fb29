"""The benchmark's modules load against this checkout's package.

perfbench/ reaches into the package by name, private helpers included
(`continuation._fit_bandwidth`), and its tracer swaps module attributes;
a refactor that drops or moves one of those names breaks the benchmark
without failing any other test.  Its `search` workload also pins the
actions that `hypchoreo search` writes, one of them from a Newton run
that stops short of convergence (its action still holds to 3e-16 under a
one-ulp change of its start); a change that moves them fails here before
it fails the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import hypchoreo
from hypchoreo.solutions import load_solution
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


def test_search_writes_the_benchmark_actions(monkeypatch, tmp_path):
    workloads = load("workloads", monkeypatch)
    assert hypchoreo.cli.main(workloads.SEARCH_ARGS + ["--out-dir", str(tmp_path)]) == 0
    actions = sorted(load_solution(path).action for path in tmp_path.glob("search_*.json"))
    expected = workloads.SEARCH_ACTIONS
    assert len(actions) == len(expected)
    for got, want in zip(actions, expected):
        assert abs(got - want) <= workloads.SEARCH_TOLERANCE * abs(want), (got, want)
