"""hypchoreo benchmark: one workload, closed loop, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 28 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  With --trace 0 the run measures whole cycles of the workload
(see workloads.py) for about --seconds and reports the end-to-end
metrics, timed on the reference clock (see ReferenceClock); with
--trace 1 it alternates an untraced and a traced cycle and reports the
per-layer metrics.  Every op's output is checked.
Human-readable lines (environment, metrics with units, per-op verdicts)
come first; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  Spans and a full result file go to
perfbench/out/.  README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads: the CPUs this process may use, at most 2.  Must be set
# before numpy is imported.  The thread count changes the last bits of
# eigh, and with them whether five_body_c ends in SolveFailure, so it is
# recorded with every result.
BLAS_THREADS = str(min(2, len(os.sched_getaffinity(0))))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
# Nominal duration of one ReferenceClock.read(): what one reference second
# is worth.  On the 2-CPU x86_64 VM the benchmark was defined on, a read
# takes 25 to 45 ms, so a reference second is near a wall second there.
REFERENCE_S = 0.03
# Clock reads after an op, as a share of the op's wall time.
READ_SHARE = 0.03


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import hypchoreo from this checkout's src/, never from an installed copy."""
    if not (SRC / "hypchoreo" / "__init__.py").is_file():
        sys.exit(f"run.py: no hypchoreo sources under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hypchoreo

    if not Path(hypchoreo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"run.py: imported hypchoreo from {hypchoreo.__file__}, not from {SRC}")
    import workloads

    return workloads


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ld = np.finfo(np.longdouble)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "longdouble_precision": int(ld.precision),
        "longdouble_eps": float(ld.eps),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import, load and warm up, then exit."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


class ReferenceClock:
    """Fixed work that is timed between the measured ops.

    The work mixes what the ops spend their time on: a LAPACK eigh on the
    BLAS threads, small inverse FFTs, and a pure-Python loop.  It calls
    numpy only, with its own arrays, so a change to hypchoreo leaves it
    alone.  On a shared host the speed of the machine drifts by a quarter
    from one minute to the next, and ops and this work slow down
    together.  Scaling a run's op times by REFERENCE_S over the run's
    median read gives them in reference seconds, with most of that drift
    taken out.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 200))
        self.matrix = a + a.T
        self.signal = rng.standard_normal((5, 256)) + 1j * rng.standard_normal((5, 256))
        # Bound now, so that a traced run's wrappers never see these calls.
        self.eigh, self.ifft = np.linalg.eigh, np.fft.ifft
        for _ in range(5):
            self.read()

    def read(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self.eigh(self.matrix)
        for _ in range(300):
            self.ifft(self.signal, axis=1)
        x = 0.0
        for j in range(60000):
            x += j * 0.5
        return time.perf_counter() - start


def run_op(op, op_id: int, tracer=None) -> dict:
    if tracer is not None:
        tracer.op = op_id
    start = time.perf_counter()
    outcome = op.run()
    return {"label": op.label, "seconds": time.perf_counter() - start, "outcome": outcome}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples beyond it.

    Below 20 samples that percentile would not lie above the median, and
    the maximum (percentile 100) is reported instead, with the sample count.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def median(times: list[float]) -> float:
    """Harrell-Davis estimate of the median: every order statistic, Beta-weighted.

    A cycle mixes ops of very different cost (on `sweep`, two ops three
    times apart), and there the sample median is the mean of the two
    order statistics either side of the gap.  This estimate of the same
    median draws on every sample and varies less from run to run.
    """
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(times, prob=[0.5])[0])


def end_to_end(records: list[dict], setups: list[float], reads: list[float]) -> tuple[dict, dict, list[str]]:
    """Op timings and throughput in reference seconds; their wall-clock twins as lines."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before median() imports scipy.stats
    times = [r["ref_seconds"] for r in records]
    walls = [r["seconds"] for r in records]
    orbits = sum(r["outcome"].orbits for r in records)
    failed = sum(1 for r in records if r["outcome"].failure)
    tail_value, tail_pct = tail(times)
    values = {
        "setup_s": statistics.median(setups),
        "op_s_p50": median(times),
        "op_s_tail": tail_value,
        "orbits_per_min": 60.0 * orbits / sum(times),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "op_s_tail": f"p{tail_pct:.1f}, n={len(times)}",
        "orbits_per_min": f"{orbits} verified orbits in {sum(times):.2f} ref_s of ops",
    }
    lines = [
        f"fail_frac {failed / len(records):.6g} ratio ({failed}/{len(records)} ops failed)",
        f"wall op_s_p50 {median(walls):.6g} s",
        f"wall op_s_tail {tail(walls)[0]:.6g} s",
        f"wall orbits_per_min {60.0 * orbits / sum(walls):.6g} 1/min",
        f"reference clock: {len(reads)} reads, median {statistics.median(reads) * 1e3:.2f} ms, "
        f"quartiles {' '.join(f'{q * 1e3:.2f}' for q in statistics.quantiles(reads, n=4))} ms, "
        f"REFERENCE_S {REFERENCE_S * 1e3:g} ms",
    ]
    return values, notes, lines


def verdict_lines(records: list[dict]) -> list[str]:
    lines = []
    for label in dict.fromkeys(r["label"] for r in records):
        mine = [r["outcome"] for r in records if r["label"] == label]
        wrong = [e for o in mine for e in o.errors]
        failures = sorted({o.failure for o in mine if o.failure})
        status = "WRONG" if wrong else ("FAILED" if failures else "ok")
        line = f"check {label}: {status}: {len(mine)} ops, {sum(1 for o in mine if o.failure)} failed, {len(wrong)} wrong"
        lines.append(line + "".join(f"\n  failure: {f}" for f in failures) + "".join(f"\n  wrong: {e}" for e in wrong[:5]))
    return lines


def measure(ops, seconds: float, clock: ReferenceClock) -> tuple[list[dict], float, list[float]]:
    """Whole cycles for about `seconds`, reading `clock` between ops.

    A further cycle starts unless it would end more than half a cycle
    after `seconds`; there is at least one.  After each op the clock is
    read until the reads add up to READ_SHARE of the op's wall time, at
    least once.  Each record gains `ref_seconds`: its wall time times
    REFERENCE_S over the median read of the whole run.
    """
    records: list[dict] = []
    reads = [clock.read()]
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in ops:
            record = run_op(op, len(records))
            records.append(record)
            spent = 0.0
            while spent < READ_SHARE * record["seconds"] or spent == 0.0:
                reads.append(clock.read())
                spent += reads[-1]
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2.0 >= seconds:
            break
    factor = REFERENCE_S / statistics.median(reads)
    for record in records:
        record["ref_seconds"] = record["seconds"] * factor
    return records, now - start, reads


def measure_traced(ops, seconds: float, tracer) -> tuple[list[dict], dict, list[str]]:
    """Pairs of an untraced and a traced cycle while the next pair fits in `seconds`.

    Per-layer values are per cycle: counts from the first traced cycle
    (every traced cycle must repeat them exactly), times as medians.
    """
    records: list[dict] = []
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for op in ops:
            records.append(run_op(op, len(records)))
        plain.append(time.perf_counter() - pair_start)
        first = len(tracer.spans)
        tracer.install()
        try:
            cycle_start = time.perf_counter()
            for op in ops:
                records.append(run_op(op, len(records), tracer))
            traced.append(time.perf_counter() - cycle_start)
        finally:
            tracer.remove()
        layers.append(tracer.layer_metrics(first))
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > seconds:
            break
    notes = [f"traced cycles: {len(traced)}"]
    values = {}
    for key in layers[0]:
        series = [layer[key] for layer in layers]
        if key.endswith(".s") or key.endswith(".self_s"):
            values[key] = statistics.median(series)
        else:
            values[key] = series[0]
            if any(v != series[0] for v in series):
                notes.append(f"WARNING {key} differs between traced cycles: {series}")
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return records, values, notes


def execute(workload: str, seed: int, seconds: float, trace: int, only: str | None = None) -> dict:
    """Measure one workload, print the report, and return the result line's object.

    `only` keeps the one op of the cycle with that label (the smoke check).
    """
    workloads = import_program()
    spec = load_spec()
    env = environment()
    print("env " + json.dumps(env), flush=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    notes: dict[str, str] = {}
    reads: list[float] = []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            ops = workloads.build(workload, seed, OUT)
        finally:
            tracer.remove()
        setup_load = sum(s.seconds for s in tracer.spans if s.name == "solutions.load")
        ops = [op for op in ops if only in (None, op.label)]
        records, values, lines = measure_traced(ops, seconds, tracer)
        values["solutions.load.s"] += setup_load
        values["verify.residual_max"] = max(r["outcome"].residual_max for r in records)
        for family in workloads.FAMILIES:
            key = f"continuation.diff_over_table.{family}"
            values[key] = next((r["outcome"].readouts[key] for r in records if key in r["outcome"].readouts), 0.0)
        spans_file = OUT / f"spans-{tag}.jsonl"
        tracer.write(spans_file)
        lines.append(f"spans: {spans_file} ({len(tracer.spans)} spans)")
        declared = spec["per_layer"]
    else:
        setups = setup_seconds(workload, seed)
        ops = [op for op in workloads.build(workload, seed, OUT) if only in (None, op.label)]
        records, wall, reads = measure(ops, seconds, ReferenceClock())
        values, notes, lines = end_to_end(records, setups, reads)
        lines.append(f"ops: {len(records)} in {len(records) // len(ops)} cycles of {len(ops)}, {wall:.2f} s")
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}{note}")
    for line in lines + verdict_lines(records):
        print(line)
    result = {
        "correct": not any(r["outcome"].errors for r in records),
        "attempted": len(records),
        "failed": sum(1 for r in records if r["outcome"].failure),
        "metrics": metrics,
    }
    ops_log = [[r["label"], r["seconds"]] for r in records]
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({**result, "env": env, "notes": lines, "ops": ops_log, "clock_reads": reads}, indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workloads.build(args.workload, args.seed, OUT)
    else:
        execute(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
