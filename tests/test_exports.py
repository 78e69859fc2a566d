"""Every exported name resolves, in the package and in each module."""

import importlib
import pkgutil

import pytest

import fqmrep

MODULES = ["fqmrep"] + sorted(f"fqmrep.{m.name}" for m in pkgutil.iter_modules(fqmrep.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []
