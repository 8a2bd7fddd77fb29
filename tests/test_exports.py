"""Export lists: every public name resolves, is listed once, and is its module's own."""

import importlib

import pytest

MODULES = [
    "hypchoreo",
    "hypchoreo.action",
    "hypchoreo.continuation",
    "hypchoreo.geometry",
    "hypchoreo.optimizer",
    "hypchoreo.solutions",
    "hypchoreo.trigpath",
    "hypchoreo.verify",
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(set(exported)) == sorted(exported), "listed twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"



# Package-level names whose values carry no __module__, with the module that defines them.
HOMES = {"FORMAT_VERSION": "hypchoreo.solutions"}


def test_package_reexports_only_declared_names():
    package = importlib.import_module("hypchoreo")
    stray = []
    for attr in package.__all__:
        home = HOMES.get(attr) or getattr(package, attr).__module__
        if attr not in importlib.import_module(home).__all__:
            stray.append(f"{attr} (from {home})")
    assert not stray, f"hypchoreo.__all__ lists names that their modules do not export: {stray}"
