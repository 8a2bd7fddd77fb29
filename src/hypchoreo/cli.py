"""Command-line front end.

Subcommands: solve (two-phase minimization), verify (decay / gradient /
residual triple), sweep (curvature continuation against the flat limit),
export (orbit samples or coefficient magnitudes as CSV), and search
(multi-seed random exploration).

search draws every seed in this process, then runs the trials' Phase 1
in a pool of spawned worker processes, one per usable CPU (so `taskset`
limits them; one CPU spawns none and runs every trial here), while this
process waits, and Phase 2 here, in trial order.  So a tracer that
wraps this process's functions sees no Phase-1 trial unless one CPU is
usable.  A trial's iterates are those of an in-process run bit for bit,
so the output does not depend on where each trial ran.  The workers
are kept for the next search in the same process (each holds about
33 MB resident between searches on x86_64 Linux, so 2 x 33 MB on two
CPUs), so only the first search waits for them to start; a one-shot
search runs no trial during that wait.  They are replaced when the
number of usable CPUs changes or a worker dies, and joined at
interpreter exit.  Each worker imports the calling script, so a script
that runs search through main must call it under
`if __name__ == "__main__":`.  sweep corrects the whole doubled disk
orbit sigma q by Newton alone at --K2 into the flat orbit.  The optimizer
judges every Newton run; search alone still writes one that stopped
short without failing, and names it on stderr.

Exit codes: 0 success; 2 bad arguments, non-convergence or failed
verification; 3 infeasible seed or random draw; 4 unreadable, malformed,
or unwritable files, or an exported orbit that leaves the disk.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import sys
import threading
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import geometry
from .action import Configuration
from .continuation import ContinuationResult, continue_in_R, convergence_rate, solve_planar
from .optimizer import (
    Choreography,
    InfeasibleSeedError,
    Phase2Options,
    PhaseResult,
    SolveFailure,
    _solve_from_phase1,
    _Unconverged,
    phase1_bfgs,
    random_seed,
    solve,
)
from .solutions import MalformedSolutionError, load_bundled, load_solution, save_solution
from .trigpath import TrigPath, _fit_bandwidth, nodes, pack_vars
from .verify import SolveReport, VerificationThresholds, verify_all

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INFEASIBLE_SEED = 3
EXIT_FILE_ERROR = 4

_REPORT_ROWS = (
    ("Action", lambda r: f"{r.action:.16g}"),
    ("Number of coefficients", lambda r: str(r.coefficient_count)),
    ("Computer time (s)", lambda r: f"{r.wall_time_seconds:.2f}"),
    ("Number of iterations", lambda r: str(r.iterations)),
    ("Relative 2-norm of the gradient", lambda r: f"{r.gradient_rel_norm:.2e}"),
    ("Smallest coefficient", lambda r: f"{r.smallest_coefficient:.2e}"),
    ("Relative 2-norm of the residual", lambda r: f"{r.residual_rel_norm:.2e}"),
)


def _radius(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"R must be positive, got {value}")
    if not math.isfinite((1.0 / value) * (1.0 / value)):
        raise argparse.ArgumentTypeError(f"R = {value} is too small: its curvature 1/R^2 overflows")
    return value


def _finite(text: str) -> float:
    """argparse type for a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _radius_list(text: str) -> list[float]:
    """argparse type for --R-list: distinct finite radii, each a valid --R, largest first."""
    radii = sorted({_radius(tok) for tok in text.split(",") if tok.strip()}, reverse=True)
    if not radii or math.isinf(radii[0]):
        raise argparse.ArgumentTypeError(f"need comma-separated finite radii, got {text!r}")
    return radii


def _at_least(minimum: int):
    """argparse type for an integer no smaller than minimum."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _seed_token(text: str) -> str:
    """argparse type for --seed: a file name, or an integer that is not negative."""
    try:
        value = int(text)
    except ValueError:
        return text
    if value < 0:
        raise argparse.ArgumentTypeError(f"an integer seed must be at least 0, got {value}")
    return text


def _format_report(report: SolveReport) -> str:
    records = [(label, rec) for label, rec in (("Phase 1", report.phase1), ("Phase 2", report.phase2)) if rec is not None]
    width = max(len(label) for label, _ in _REPORT_ROWS) + 2
    lines = [" " * width + "".join(f"{label:>18}" for label, _ in records)]
    for label, fmt in _REPORT_ROWS:
        lines.append(f"{label:<{width}}" + "".join(f"{fmt(rec):>18}" for _, rec in records))
    return "\n".join(lines)


def _load_file(token: str) -> Choreography:
    if token.startswith("bundled:"):
        return load_bundled(token[len("bundled:"):])
    return load_solution(token)


def _resolve_seed(token: str, config: Configuration, modes: int) -> TrigPath:
    try:
        rng_seed = int(token)
    except ValueError:
        return _fit_bandwidth(_load_file(token).path, config.K)
    return random_seed(config, modes=min(modes, config.K), rng_seed=rng_seed)


def _write_text(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _f(value) -> str:
    return repr(float(value))


def cmd_solve(args) -> int:
    config = Configuration(n=args.n, R=args.R, K=args.K, omega=args.omega)
    seed = _resolve_seed(args.seed, config, args.modes)
    try:
        choreo = solve(config, seed, Phase2Options(K2=args.K2))
    except SolveFailure as exc:
        print(_format_report(exc.choreography.report))
        print(f"FAILED: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    print(_format_report(choreo.report))
    if args.out is not None:
        save_solution(args.out, choreo)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    choreo = _load_file(args.file)
    thresholds = VerificationThresholds(
        decay=args.decay_threshold,
        gradient=args.gradient_threshold,
        residual=args.residual_threshold,
    )
    result = verify_all(choreo, thresholds)

    def line(name, value, bound):
        shown = "unavailable" if value is None else f"{value:.3e}"
        status = "ok" if value is not None and value <= bound else "FAIL"
        return f"{name:<22} {shown:>14}   (threshold {bound:.1e})  {status}"

    print(line("coefficient decay", result.decay, thresholds.decay))
    print(line("gradient rel norm", result.gradient, thresholds.gradient))
    print(line("motion residual", result.residual, thresholds.residual))
    for failure in result.failures:
        print(f"note: {failure}")
    print("PASS" if result.passed else "FAIL")
    return EXIT_OK if result.passed else EXIT_NO_CONVERGENCE


def _sweep_rows(label: str, result: ContinuationResult) -> str:
    try:
        slope = _f(convergence_rate(result.members))
    except ValueError:
        slope = ""
    lines = ["family,R,diff,slope"]
    for member in result.members:
        lines.append(f"{label},{_f(member.R)},{_f(member.diff_to_planar)},{slope}")
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    family = _load_file(args.family)
    options2 = Phase2Options(K2=args.K2 if args.K2 is not None else family.config.K)

    try:
        planar_start = family
        if not family.config.is_planar:
            doubled = TrigPath(family.path.coeffs * family.config.sigma)
            planar_start = solve_planar(replace(family.config, R=math.inf), doubled, options2)
        result = continue_in_R(replace(family.config, R=args.R_list[0]), args.R_list, planar_start, options2)
    except SolveFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    _write_text(args.out, _sweep_rows(Path(args.family).stem, result))
    if not result.complete:
        print(f"sweep stopped at R = {result.failed_at}: {result.reason}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_export(args) -> int:
    choreo = _load_file(args.file)
    path, config = choreo.path, choreo.config
    if args.format == "coeffs":
        lines = ["k,abs_c"]
        for k, c in zip(path.wavenumbers, path.coeffs):
            lines.append(f"{k},{_f(abs(c))}")
        _write_text(args.out, "\n".join(lines) + "\n")
        return EXIT_OK

    t = nodes(args.samples)
    bodies = [path.eval(t + 2.0 * np.pi * j / config.n) for j in range(config.n)]
    header = ["t"]
    for j in range(config.n):
        header += [f"re_z{j}", f"im_z{j}"]
    lift = None
    if not config.is_planar:
        header += ["x1", "x2", "x3"]
        lift = geometry.lift_coords(bodies[0], config.R)
    lines = [",".join(header)]
    for m in range(args.samples):
        row = [_f(t[m])]
        for z in bodies:
            row += [_f(z[m].real), _f(z[m].imag)]
        if lift is not None:
            row += [_f(lift[m, 0]), _f(lift[m, 1]), _f(lift[m, 2])]
        lines.append(",".join(row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _distinct(items: list[tuple]) -> list[tuple]:
    """The (value, trial, ...) items in order of value, then trial, each
    kept when its value lies more than 1e-6 relative from every value
    kept before it."""
    kept = []
    for item in sorted(items, key=lambda item: (item[0], item[1])):
        value = item[0]
        if all(abs(value - other[0]) > 1e-6 * max(abs(value), abs(other[0])) for other in kept):
            kept.append(item)
    return kept


# The Phase-1 worker pool that search keeps for the life of the process,
# and its number of workers.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _kept_pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool, first replaced by one of `workers` spawned workers
    (fork is unsafe once BLAS threads run) when it has another size or
    there is none.  search asks for one worker per usable CPU and waits
    while they run; each holds about 33 MB resident between searches on
    x86_64 Linux."""
    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            if _pool is not None:
                _pool.shutdown()
            _pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
            _pool_workers = workers
        return _pool


def _shutdown_pool() -> None:
    """Shut the kept pool down; the next search spawns a new one."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None


def _phase1_trials(starts: list[np.ndarray], config: Configuration) -> list[PhaseResult]:
    """Phase 1 from each start, in the order of starts; each result
    carries its own wall time (PhaseResult.seconds).

    Each run calls this module's phase1_bfgs.  With one usable CPU, or
    one start, every run is made here.  Otherwise every run is submitted
    to the kept pool of one worker per usable CPU, and this process
    waits: a tracer of this process sees no run, and the first call in
    a process runs nothing while the workers start.  The pool is kept
    for later calls, so only that call waits for them.  It is replaced
    when the number of usable CPUs changes, or after a worker died: a
    call whose runs saw the death raises BrokenProcessPool, and a call
    that finds the pool already broken (a worker died while idle)
    submits once more on a new pool.  It is joined at interpreter exit.
    The first run that raises, or an interrupt, cancels the runs not yet
    handed to a worker.  An interrupt leaves at once; after a failed run
    the call waits for every run a worker already holds, then raises the
    exception of the lowest-numbered failed run.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # missing on macOS and Windows
    workers = len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers < 2 or len(starts) < 2:
        return [phase1_bfgs(x0, config) for x0 in starts]

    def submit_all():
        pool = _kept_pool(workers)
        return [pool.submit(phase1_bfgs, x0, config) for x0 in starts]

    try:
        futures = submit_all()
    except BrokenProcessPool:
        _shutdown_pool()
        futures = submit_all()
    try:
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        for future in futures:
            future.cancel()
    # After a failed run, the runs already handed to a worker cannot be
    # cancelled; wait for them, so that none runs on into the next call.
    wait(futures)
    try:
        # Runs are handed out in order, so every cancelled run comes
        # after the first that failed.
        return [future.result() for future in futures]
    except BrokenProcessPool:
        _shutdown_pool()
        raise


def cmd_search(args) -> int:
    config = Configuration(n=args.n, R=args.R, K=args.K, omega=args.omega)
    options2 = Phase2Options(K2=args.K2)

    def drop(trial, reason):
        print(f"trial {trial:3d}  dropped: {reason}", file=sys.stderr)

    starts, infeasible = {}, {}
    for trial in range(args.trials):
        try:
            seed = random_seed(config, modes=min(args.modes, config.K), rng_seed=args.rng + trial)
        except InfeasibleSeedError as exc:
            infeasible[trial] = exc
            continue
        starts[trial] = pack_vars(seed)
    runs = dict(zip(starts, _phase1_trials(list(starts.values()), config)))

    candidates = []
    for trial in range(args.trials):
        if trial in infeasible:
            drop(trial, f"infeasible seed: {infeasible[trial]}")
            continue
        result = runs[trial]
        if result.converged:
            candidates.append((result.value, trial, result))
        else:
            drop(trial, f"phase 1 {result.message}")

    solved = []
    for _, trial, result in _distinct(candidates):
        try:
            choreo, verdict = _solve_from_phase1(config, result, options2), None
        except _Unconverged as exc:
            # perfbench's SEARCH_ACTIONS still pins such a trial (ROADMAP item 1).
            choreo, verdict = exc.choreography, str(exc)
        except SolveFailure as exc:
            drop(trial, str(exc))
            continue
        solved.append((choreo.action, trial, choreo, verdict))

    kept = _distinct(solved)
    if not kept:
        print("no converged solutions found", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for index, (action, trial, choreo, verdict) in enumerate(kept):
        target = out_dir / f"search_{index:03d}.json"
        save_solution(target, choreo)
        if verdict is not None:
            print(f"trial {trial:3d}  kept unconverged: {verdict}", file=sys.stderr)
        print(f"trial {trial:3d}  action {action:.16g}  -> {target}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypchoreo",
        description="Choreographic n-body orbits on the hyperbolic disk (R = inf for the flat problem).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--n", type=_at_least(2), required=True, help="number of bodies")
        p.add_argument("--R", type=_radius, required=True, help="curvature radius, or inf")
        p.add_argument("--omega", type=_finite, default=0.0, help="rotating-frame angular velocity")
        p.add_argument("--K", type=_at_least(1), required=True, help="bandwidth (2K+1 coefficients)")
        p.add_argument("--K2", type=_at_least(1), default=None, help="padded bandwidth for Newton (default 2K)")

    p_solve = sub.add_parser("solve", help="two-phase minimization from a seed")
    add_config_flags(p_solve)
    p_solve.add_argument("--seed", type=_seed_token, required=True, help="integer (random seed) or solution/seed file; bundled:<name> for shipped seeds")
    p_solve.add_argument("--modes", type=_at_least(1), default=5, help="bandwidth of integer-seeded random paths")
    p_solve.add_argument("--out", default=None, help="write the solution file here")
    p_solve.set_defaults(handler=cmd_solve)

    p_verify = sub.add_parser("verify", help="check decay, gradient norm, and motion residual")
    p_verify.add_argument("file", help="solution file (or bundled:<name>)")
    bounds = VerificationThresholds()
    p_verify.add_argument("--decay-threshold", type=float, default=bounds.decay)
    p_verify.add_argument("--gradient-threshold", type=float, default=bounds.gradient)
    p_verify.add_argument("--residual-threshold", type=float, default=bounds.residual)
    p_verify.set_defaults(handler=cmd_verify)

    # No abbreviations: an old --K is an error, not a prefix of --K2.
    p_sweep = sub.add_parser("sweep", help="continue a family in R and compare to the flat limit", allow_abbrev=False)
    p_sweep.add_argument("--family", required=True, help="solution file identifying the family")
    p_sweep.add_argument("--R-list", type=_radius_list, required=True, help="comma-separated radii, e.g. 10,100,1000")
    p_sweep.add_argument("--K2", type=_at_least(1), default=None, help="Newton bandwidth of the flat solve, fitted from the whole doubled orbit, and of the members (default the file's)")
    p_sweep.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_export = sub.add_parser("export", help="emit orbit samples or coefficient magnitudes as CSV")
    p_export.add_argument("file", help="solution file (or bundled:<name>)")
    p_export.add_argument("--format", choices=("csv", "coeffs"), required=True)
    p_export.add_argument("--samples", type=_at_least(1), default=2048)
    p_export.add_argument("--out", default=None, help="output path (default stdout)")
    p_export.set_defaults(handler=cmd_export)

    p_search = sub.add_parser("search", help="random multi-seed exploration")
    add_config_flags(p_search)
    p_search.add_argument("--trials", type=_at_least(1), default=20)
    p_search.add_argument("--rng", type=_at_least(0), default=0, help="base seed; trial i uses rng + i")
    p_search.add_argument("--modes", type=_at_least(1), default=5)
    p_search.add_argument("--out-dir", default=".", help="directory for search_NNN.json files")
    p_search.set_defaults(handler=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "K2", None) is not None and getattr(args, "K", None) is not None and args.K2 < args.K:
        parser.error("--K2 must be at least --K")
    try:
        return args.handler(args)
    except InfeasibleSeedError as exc:
        print(f"infeasible seed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_SEED
    except (MalformedSolutionError, OSError, geometry.OutOfDiskError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_FILE_ERROR


if __name__ == "__main__":
    sys.exit(main())
