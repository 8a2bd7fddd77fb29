"""The benchmark's three workloads: set-up, the ops of one cycle, and the per-op checks.

Every workload is a closed loop with one client in one process: an op
starts when the previous one has returned.  A cycle is the fixed list of
ops that `build` returns; the seed only picks their order, so a run that
measures whole cycles does the same work for every seed (see README.md
for why the search op keeps one rng).

An op returns an `Outcome`.  `failure` says the program itself reported
that it could not deliver (SolveFailure, an incomplete family, a nonzero
exit code); `errors` lists outputs that were delivered but are wrong.
Calls into hypchoreo go through the package namespace (`hc.solve`, ...)
so that a traced run, which swaps module attributes, sees them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import random
import tempfile
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import hypchoreo as hc
import hypchoreo.cli  # noqa: F401  (makes hc.cli available)
from hypchoreo.continuation import _fit_bandwidth

WORKLOADS = ("reproduce", "sweep", "search")

# Bundled seeds and the Newton bandwidth K2 of the acceptance tests.
REPRODUCE = (
    ("figure_eight", 52),
    ("five_body_a", 152),
    ("five_body_b", 77),
    ("five_body_c", 122),
    ("relative_a", 81),
    ("relative_b", 81),
    ("relative_c", 81),
)

# Motion-residual bounds of acceptance criteria 01 (figure-eight),
# 02 (five-body) and 03 (relative choreographies).
RESIDUAL_BOUND = {"figure_eight": 1e-11, "five_body": 1e-10, "relative": 1e-9}

# Criterion-04 sweeps: disk seed and its K2, flat problem, Phase-2 options
# of the flat solve and the members, and the published diff table.
SWEEP_RADII = (1000.0, 100.0, 10.0)
FAMILIES = {
    "fig8": (
        "figure_eight", 52,
        hc.Configuration(n=3, R=math.inf, K=27),
        None,
        {10.0: 7.87e-03, 100.0: 7.98e-05, 1000.0: 7.99e-07},
    ),
    "relative": (
        "relative_a", 81,
        hc.Configuration(n=5, R=math.inf, K=41, omega=2.8),
        hc.Phase2Options(K2=99),
        {10.0: 1.28e-02, 100.0: 1.30e-04, 1000.0: 1.31e-06},
    ),
}
SLOPE_TOLERANCE = 0.1

SEARCH_ARGS = ["search", "--n", "5", "--R", "1.2", "--K", "27", "--trials", "20", "--rng", "0"]
# Distinct actions written by SEARCH_ARGS, sorted; the last digits follow
# the BLAS build, hence the relative tolerance.
SEARCH_ACTIONS = (80.35182725255885, 90.60734978026345, 94.59465656321416)
SEARCH_TOLERANCE = 1e-9


@dataclass
class Outcome:
    """What one op delivered and what its checks found."""

    orbits: int = 0
    failure: str | None = None
    errors: list[str] = field(default_factory=list)
    residual_max: float = 0.0
    readouts: dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]


def _residual_bound(name: str) -> float:
    return next(bound for prefix, bound in RESIDUAL_BOUND.items() if name.startswith(prefix))


def check_orbit(out: Outcome, label: str, choreo, expected_action: float | None, residual_bound: float) -> bool:
    """verify_all must pass, the residual stay in bounds and the action match.

    The action tolerance is criterion 01's 1e-10 relative for the
    figure-eight and criterion 02's 5e-5 absolute for the n = 5 seeds.
    An orbit whose own report says Phase 2 did not converge is a failure
    the program reported, not a wrong output: it sets out.failure.
    Appends what is wrong to out.errors; returns whether the orbit passed.
    """
    phase2 = choreo.report.phase2 if choreo.report is not None else None
    if phase2 is not None and not phase2.converged:
        out.failure = out.failure or (
            f"{label}: its report says phase 2 did not converge "
            f"({phase2.iterations} Newton steps, gradient {phase2.gradient_rel_norm:.2e})"
        )
        return False
    before = len(out.errors)
    verdict = hc.verify_all(choreo)
    if not verdict.passed:
        out.errors.append(f"{label}: verify_all failed: {'; '.join(verdict.failures)}")
    if verdict.residual is not None:
        out.residual_max = max(out.residual_max, verdict.residual)
        if verdict.residual > residual_bound:
            out.errors.append(f"{label}: motion residual {verdict.residual:.3e} > {residual_bound:.0e}")
    if expected_action is not None:
        tol = 1e-10 * abs(expected_action) if label.startswith("figure_eight") else 5e-5
        if not abs(choreo.action - expected_action) <= tol:
            out.errors.append(f"{label}: action {choreo.action!r}, expected {expected_action!r} +- {tol:.1e}")
    return len(out.errors) == before


def _solve_seed(K2: int, seed):
    return hc.solve(seed.config, seed.path, options2=hc.Phase2Options(K2=K2))


def reproduce_op(name: str, K2: int, seed, expected_action: float) -> Outcome:
    """Solve one bundled seed at its acceptance K2 and verify the orbit."""
    out = Outcome()
    try:
        choreo = _solve_seed(K2, seed)
    except hc.SolveFailure as exc:
        out.failure = f"SolveFailure: {exc}"
        return out
    out.orbits += check_orbit(out, name, choreo, expected_action, _residual_bound(name))
    return out


def sweep_op(family: str, seed, expected_action: float) -> Outcome:
    """One criterion-04 family: disk seed, flat orbit, continuation over SWEEP_RADII."""
    name, K2, flat_config, options2, table = FAMILIES[family]
    out = Outcome()
    try:
        disk = _solve_seed(K2, seed)
        check_orbit(out, name, disk, expected_action, _residual_bound(name))
        doubled = _fit_bandwidth(hc.TrigPath(disk.path.coeffs * 2.0), flat_config.K)
        flat = hc.center_planar(hc.solve_planar(flat_config, doubled, options2=options2))
    except hc.SolveFailure as exc:
        out.failure = f"SolveFailure: {exc}"
        return out
    result = hc.continue_in_R(
        replace(flat_config, R=SWEEP_RADII[0]), list(SWEEP_RADII), flat, options2=options2
    )
    if not result.complete:
        out.failure = f"family {family} stopped at R = {result.failed_at:g}"
        return out
    for member in result.members:
        out.orbits += check_orbit(out, f"{family} R={member.R:g}", member.choreo, None, math.inf)
    slope = hc.convergence_rate(result.members)
    if not abs(slope + 2.0) <= SLOPE_TOLERANCE:
        out.errors.append(f"{family}: slope {slope:.4f}, expected -2 +- {SLOPE_TOLERANCE}")
    ratios = sorted(m.diff_to_planar / table[m.R] for m in result.members)
    out.readouts[f"continuation.diff_over_table.{family}"] = ratios[len(ratios) // 2]
    return out


def search_op(work_dir: Path, expected: tuple[float, ...], first: list) -> Outcome:
    """`hypchoreo search` through cli.main; reload and verify every file written.

    The action set must match `expected` and repeat exactly the set of
    the run's first search op (`first` holds it once known).
    """
    out = Outcome()
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = hc.cli.main(SEARCH_ARGS + ["--out-dir", tmp])
        if code != 0:
            out.failure = f"search exited with code {code}"
            return out
        files = sorted(Path(tmp).glob("search_*.json"))
        actions = []
        for path in files:
            choreo = hc.load_solution(path)
            actions.append(choreo.action)
            out.orbits += check_orbit(out, path.name, choreo, None, RESIDUAL_BOUND["five_body"])
    actions.sort()
    if len(actions) != len(expected) or not all(
        abs(a - b) <= SEARCH_TOLERANCE * abs(b) for a, b in zip(actions, expected)
    ):
        out.errors.append(f"search actions {actions}, expected {list(expected)}")
    if not first:
        first.append(actions)
    elif actions != first[0]:
        out.errors.append(f"search actions {actions} differ from the run's first op {first[0]}")
    return out


def _warm(config, path) -> None:
    """First-call costs: FFT sizes, the extended-precision basis cache, LAPACK."""
    x = hc.pack_vars(_fit_bandwidth(path, config.K))
    np.linalg.eigh(hc.evaluate(x, config, order=2).hessian)
    hc.evaluate(x, config, order=1, precise=True)


def _load_seed(name: str, K2: int):
    """The bundled seed and orbit `name`, warmed up at the seed's K and at K2."""
    start, orbit = hc.load_bundled(f"{name}_seed"), hc.load_bundled(name)
    _warm(start.config, start.path)
    _warm(replace(start.config, K=K2), start.path)
    return start, orbit


def build(workload: str, seed: int, work_dir: Path) -> list[Op]:
    """Set the workload up (bundled loads and warm-up) and return one cycle of ops."""
    rng = random.Random(seed)
    if workload == "reproduce":
        ops = []
        for name, K2 in REPRODUCE:
            start, orbit = _load_seed(name, K2)
            ops.append(Op(name, functools.partial(reproduce_op, name, K2, start, orbit.action)))
        rng.shuffle(ops)
        return ops
    if workload == "sweep":
        ops = []
        for family, (name, K2, flat_config, options2, _) in FAMILIES.items():
            start, orbit = _load_seed(name, K2)
            flat_K2 = options2.K2 if options2 is not None else 2 * flat_config.K
            for K in (flat_config.K, flat_K2):
                _warm(replace(flat_config, R=SWEEP_RADII[0], K=K), start.path)
            ops.append(Op(family, functools.partial(sweep_op, family, start, orbit.action)))
        rng.shuffle(ops)
        return ops
    if workload == "search":
        config = hc.Configuration(n=5, R=1.2, K=27)
        start = hc.random_seed(config, rng_seed=0)
        _warm(config, start)
        _warm(replace(config, K=2 * config.K), start)
        first: list = []
        return [Op("search", functools.partial(search_op, work_dir, SEARCH_ACTIONS, first))]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
