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


def _reads(node) -> set:
    # the names a statement reads: loaded names, attributes and imported names
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def _defined(node) -> list:
    # the module-level functions, classes and constants a statement defines
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name) and t.id != "__all__"]


def test_every_definition_is_used_or_exported():
    # an unused-definition lint: a module-level function, class or constant
    # is read somewhere in the package's sources outside its own definition,
    # or listed in its module's __all__
    statements = [
        (name, node)
        for name in MODULES
        for node in ast.parse(
            Path(importlib.import_module(name).__file__).read_text(encoding="utf-8")
        ).body
    ]
    reads = [_reads(node) for _, node in statements]
    unused = [
        f"{name}.{defined}"
        for k, (name, node) in enumerate(statements)
        for defined in _defined(node)
        if defined not in getattr(importlib.import_module(name), "__all__", [])
        and not any(defined in read for j, read in enumerate(reads) if j != k)
    ]
    assert unused == []


def _is_params(node) -> bool:
    # `params` or `self.params`, the dict a suite is given; not `rep.params`
    if isinstance(node, ast.Name):
        return node.id == "params"
    return isinstance(node, ast.Attribute) and node.attr == "params" and (
        isinstance(node.value, ast.Name) and node.value.id == "self"
    )


def test_suite_parameters_are_an_inventory_named_in_the_readme():
    # the keys harness.py reads from a suite's input dict, by params[...],
    # params.get(...) and self.params.get(...): a new knob is listed here
    # and documented in README on purpose
    tree = ast.parse(Path(importlib.import_module("fqmrep.harness").__file__).read_text(encoding="utf-8"))
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load) and _is_params(node.value):
            key = node.slice
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get" and _is_params(node.func.value)
        ):
            key = node.args[0]
        else:
            continue
        assert isinstance(key, ast.Constant) and isinstance(key.value, str), ast.dump(key)
        keys.add(key.value)
    assert keys == {"n", "N", "p", "samples", "seed", "tol", "backend", "exhaustive", "pairs"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [key for key in sorted(keys) if f"`{key}`" not in readme] == []
