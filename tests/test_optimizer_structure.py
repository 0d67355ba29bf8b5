"""The shape of ``repro.optimizer``: the Figure-1 driver (``engine.py``) over
three modules — search, Step-2 orchestration, root assembly — that share one
explicit run state, with Step 3 behind ``selection.select``. AST and
line-count checks, so the split cannot quietly grow back together."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.optimizer

PACKAGE = Path(repro.optimizer.__file__).parent
SRC = PACKAGE.parent.parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
SPLIT = ("engine", "search", "step2", "assembly", "selection", "state")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _sibling_imports(module: str) -> set:
    """Names of ``repro.optimizer`` modules that ``module`` imports."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import step2
                found.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names
            ]
            for name in names:
                if name.startswith("repro.optimizer."):
                    found.add(name.split(".")[2])
    return found


def test_optimizer_assigns_attributes_only_in_init():
    """Per-run state lives in ``OptimizerRun``, not on the ``Optimizer``."""
    (optimizer,) = [
        node for node in _tree("engine").body
        if isinstance(node, ast.ClassDef) and node.name == "Optimizer"
    ]
    offenders = []
    for method in optimizer.body:
        if not isinstance(method, ast.FunctionDef) or method.name == "__init__":
            continue
        for node in ast.walk(method):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for leaf in ast.walk(target):
                    if (
                        isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                    ):
                        offenders.append(f"{method.name}: self.{leaf.attr}")
    assert offenders == []


def test_module_sizes():
    lines = {
        module: len((PACKAGE / f"{module}.py").read_text().splitlines())
        for module in MODULES
    }
    assert set(SPLIT) <= set(lines)
    assert lines["engine"] <= 600
    oversized = {
        module: count for module, count in lines.items()
        if module != "memo" and count > 700
    }
    assert oversized == {}


def test_layering():
    """Selection knows nothing of how a pass is run; the search nothing of
    who drives it or what is assembled from it."""
    assert not _sibling_imports("selection") & {"engine", "search", "assembly", "step2"}
    assert not _sibling_imports("search") & {"engine", "selection", "assembly", "step2"}
    assert not _sibling_imports("state") & set(SPLIT)
    assert "engine" not in _sibling_imports("step2") | _sibling_imports("assembly")


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    """Import order cannot hide a cycle from a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", f"import repro.optimizer.{module}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("module", SPLIT)
def test_no_function_local_imports(module):
    local = [
        f"{function.name}:{node.lineno}"
        for function in ast.walk(_tree(module))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []
    if module == "engine":
        assert "fusion" in _sibling_imports("engine")
    if module == "search":
        assert "aggs" in _sibling_imports("search")
