"""Every exported name resolves, in the package and in each module, and
every module uses what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fqmrep

MODULES = ["fqmrep"] + sorted(f"fqmrep.{m.name}" for m in pkgutil.iter_modules(fqmrep.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used_or_exported(name):
    # an unused-import lint: a name a module imports is read in it or
    # listed in its __all__
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [n for n in imported if n not in used | set(getattr(module, "__all__", []))] == []
