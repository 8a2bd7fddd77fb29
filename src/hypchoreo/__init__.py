"""Choreographic n-body orbits on the hyperbolic plane.

The shared periodic orbit is a trigonometric polynomial on the Poincare
disk; solutions are minimizers of the hyperbolic action, found by BFGS
with the exact gradient and refined by Newton's method with the exact
Hessian, then verified against the projected equations of motion.  The
flat (planar) problem is the R = inf case throughout.
"""

from .action import (
    ActionEvaluation,
    CollisionError,
    Configuration,
    action_value,
    evaluate,
    hyperboloid_energies,
    pairwise_separations,
    quadrature_size,
)
from .continuation import (
    ContinuationResult,
    FamilyMember,
    center_planar,
    continue_in_R,
    convergence_rate,
    planar_limit_diff,
    solve_planar,
)
from .geometry import (
    GeometryError,
    OffSheetError,
    OutOfDiskError,
    conformal_factor,
    disk_distance,
    disk_geodesic,
    geodesic_hyperboloid,
    lift_velocity,
    lorentz_inner,
    project_to_disk,
)
from .optimizer import (
    Choreography,
    InfeasibleSeedError,
    Phase2Options,
    PhaseResult,
    SolveFailure,
    minimize_bfgs,
    phase1_bfgs,
    phase2_newton,
    random_seed,
    solve,
)
from .solutions import (
    FORMAT_VERSION,
    MalformedSolutionError,
    bundled_names,
    load_bundled,
    load_solution,
    save_solution,
)
from .trigpath import (
    TrigPath,
    nodes,
    pack_vars,
    trapezoid_integral,
    unpack_vars,
)
from .verify import (
    PhaseRecord,
    SolveReport,
    VerificationResult,
    VerificationThresholds,
    coefficient_decay,
    extrinsic_residual,
    motion_residual,
    path_residual,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "ActionEvaluation",
    "Choreography",
    "CollisionError",
    "Configuration",
    "ContinuationResult",
    "FORMAT_VERSION",
    "FamilyMember",
    "GeometryError",
    "InfeasibleSeedError",
    "MalformedSolutionError",
    "OffSheetError",
    "OutOfDiskError",
    "Phase2Options",
    "PhaseRecord",
    "PhaseResult",
    "SolveFailure",
    "SolveReport",
    "TrigPath",
    "VerificationResult",
    "VerificationThresholds",
    "action_value",
    "bundled_names",
    "center_planar",
    "coefficient_decay",
    "conformal_factor",
    "continue_in_R",
    "convergence_rate",
    "disk_distance",
    "disk_geodesic",
    "evaluate",
    "extrinsic_residual",
    "geodesic_hyperboloid",
    "hyperboloid_energies",
    "lift_velocity",
    "load_bundled",
    "load_solution",
    "lorentz_inner",
    "minimize_bfgs",
    "motion_residual",
    "nodes",
    "pack_vars",
    "pairwise_separations",
    "path_residual",
    "phase1_bfgs",
    "phase2_newton",
    "planar_limit_diff",
    "project_to_disk",
    "quadrature_size",
    "random_seed",
    "save_solution",
    "solve",
    "solve_planar",
    "trapezoid_integral",
    "unpack_vars",
    "verify_all",
]
