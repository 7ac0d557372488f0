"""Project metadata and settings: every console script ``pyproject.toml``
declares must resolve to a callable, or the installed command fails on start,
the pytest settings must let a failing test report, and no package module
keeps an import it never reads."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = PYPROJECT.parent / "src" / "pokegrasp"


def test_console_scripts_resolve():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_always_fails(x):
    assert x != x
'''


def test_a_failing_property_test_reports_its_example(tmp_path):
    # under the "error" warning filter, a deprecation warning raised while
    # hypothesis built its failure report ended the run in an INTERNALERROR
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_no_module_keeps_an_unused_import():
    # ``__init__`` imports to re-export; every other module must read each
    # name it imports at module level
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                unused += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in read]
    assert not unused
