"""The package's own surface: every export resolves, and no module, nor
any test module, imports a name it never uses."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powspec

SRC = Path(powspec.__file__).resolve().parent
# every module but the package itself, whose imports are its exports
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
TESTS = sorted(path.name for path in Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(path, exported=()):
    """(line, name) of each name the file binds by import and never reads.
    A name in exported, a module's __all__, counts as read."""
    tree = ast.parse(path.read_text(), filename=path.name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read.update(exported)
    return sorted((line, bound) for bound, line in imported.items() if bound not in read)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"powspec.{name}")
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_every_package_import_resolves():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"powspec.{node.module}")
        for alias in node.names:
            assert getattr(powspec, alias.name) is getattr(source, alias.name), alias.name


def test_star_imports_run_with_warnings_as_errors():
    assert MODULES
    script = "\n".join(f"from powspec.{name} import *" for name in MODULES)
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_import(name):
    exported = getattr(importlib.import_module(f"powspec.{name}"), "__all__", ())
    assert unused_imports(SRC / f"{name}.py", exported) == []


@pytest.mark.parametrize("name", TESTS)
def test_no_unused_import_in_tests(name):
    assert unused_imports(Path(__file__).resolve().parent / name) == []
