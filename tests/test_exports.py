"""Export lists: every public name resolves, is listed once, and is its module's own."""

import importlib
import pkgutil

import pytest

import hypchoreo

PACKAGE_MODULES = [importlib.import_module(f"hypchoreo.{info.name}") for info in pkgutil.iter_modules(hypchoreo.__path__)]
# Every submodule that declares an export list; cli, the command-line
# entry point, declares none and is imported on its own.
SUBMODULES = [module for module in PACKAGE_MODULES if hasattr(module, "__all__")]
MODULES = ["hypchoreo"] + [module.__name__ for module in SUBMODULES]

# The package's export list before it was built from the modules' own lists.
EARLIER_PACKAGE_NAMES = [
    "ActionEvaluation", "Choreography", "CollisionError", "Configuration", "ContinuationResult",
    "FORMAT_VERSION", "FamilyMember", "GeometryError", "InfeasibleSeedError", "MalformedSolutionError",
    "OffSheetError", "OutOfDiskError", "Phase2Options", "PhaseRecord", "PhaseResult", "SolveFailure",
    "SolveReport", "TrigPath", "VerificationResult", "VerificationThresholds", "action_value",
    "bundled_names", "center_planar", "coefficient_decay", "conformal_factor", "continue_in_R",
    "convergence_rate", "disk_distance", "disk_geodesic", "evaluate", "extrinsic_residual",
    "geodesic_hyperboloid", "hyperboloid_energies", "lift_velocity", "load_bundled", "load_solution",
    "lorentz_inner", "minimize_bfgs", "motion_residual", "nodes", "pack_vars", "pairwise_separations",
    "path_residual", "phase1_bfgs", "phase2_newton", "planar_limit_diff", "project_to_disk",
    "quadrature_size", "random_seed", "save_solution", "solve", "solve_planar", "trapezoid_integral",
    "unpack_vars", "verify_all",
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(set(exported)) == sorted(exported), "listed twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"


def test_package_imports_every_module_with_an_export_list():
    assert [module.__name__ for module in PACKAGE_MODULES if module not in SUBMODULES] == ["hypchoreo.cli"]
    assert list(hypchoreo._MODULES) == SUBMODULES


def test_package_reexports_only_declared_names():
    assert hypchoreo.__all__ == [name for module in SUBMODULES for name in module.__all__]
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(hypchoreo, name) is getattr(module, name), f"hypchoreo.{name} is not {module.__name__}.{name}"


def test_package_keeps_every_earlier_name():
    missing = sorted(set(EARLIER_PACKAGE_NAMES) - set(hypchoreo.__all__))
    assert not missing, f"hypchoreo.__all__ lost {missing}"
