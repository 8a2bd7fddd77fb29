"""Smoke check of the benchmark itself: one short op per workload, then the gate.

    python3 perfbench/smoke.py

For each workload it runs one short op untraced and traced, through
run.py's own code, and asserts that every metric BENCHMARK.json declares
is printed with its unit and appears in the result line.  Then it gives
the reproduce and search checks a deliberately wrong expected action and
asserts that they report a wrong output.  Exit code 0 means all of it held.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run  # sets the BLAS thread count before numpy is imported

SHORT_OPS = {"reproduce": "figure_eight", "sweep": "fig8", "search": "search"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_report(workload: str, trace: int, spec: dict) -> list[str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.execute(workload, seed=1, seconds=0.0, trace=trace, only=SHORT_OPS[workload])
    lines = buffer.getvalue().splitlines()
    result = json.loads(lines[-1])
    declared = spec["per_layer" if trace else "end_to_end"]
    where = f"{workload} --trace {trace}"
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        problems.append(f"{where}: correct is false")
    if list(result["metrics"]) != [m["name"] for m in declared]:
        problems.append(f"{where}: metrics {list(result['metrics'])} differ from BENCHMARK.json")
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        printed = [line.split() for line in lines if line.startswith(f"metric {name} ")]
        if not printed or printed[0][3] != unit:
            problems.append(f"{where}: {name} not printed with unit {unit}")
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append(f"{where}: {name} has no value with unit {unit} in the result line")
    return problems


def check_gate(workloads) -> list[str]:
    """The checks must call a deliberately wrong expected action wrong."""
    hc = workloads.hc
    seed, orbit = hc.load_bundled("figure_eight_seed"), hc.load_bundled("figure_eight")
    problems = []
    right = workloads.reproduce_op("figure_eight", 52, seed, orbit.action)
    wrong = workloads.reproduce_op("figure_eight", 52, seed, orbit.action * (1.0 + 1e-8))
    if right.errors:
        problems.append(f"reproduce gate trips on the right action: {right.errors}")
    if not any("action" in error for error in wrong.errors):
        problems.append("reproduce gate does not trip on a wrong expected action")
    shifted = tuple(a + 1e-3 for a in workloads.SEARCH_ACTIONS)
    wrong = workloads.search_op(run.OUT, shifted, [])
    if not any("search actions" in error for error in wrong.errors):
        problems.append("search gate does not trip on a wrong expected action set")
    return problems


def main() -> int:
    workloads = run.import_program()
    spec = run.load_spec()
    run.OUT.mkdir(exist_ok=True)
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_report(workload, trace, spec)
            print(f"smoke: {workload} --trace {trace} done", flush=True)
    problems += check_gate(workloads)
    for problem in problems:
        print(f"smoke FAIL: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
