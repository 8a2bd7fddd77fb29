"""Export lists: every public name resolves and is listed once."""

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

