"""Checks on the package source and its import footprint, stdlib only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nss_lab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """Names a module imports but never reads or lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys as system\n"
        "from typing import List, Optional\n"
        "__all__ = ['Optional']\n"
        "def f(x: List[int]) -> None:\n"
        "    return os.getcwd()\n"
    )
    assert _unused_imports(source) == [(2, "system")]


def _spec_policy_reads(source: str) -> list:
    """Lines that read ``.vectorized`` or call ``.covariance(...)``: the
    per-state and per-time policies that only ``model`` may apply."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "vectorized"
                and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, "vectorized"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "covariance"):
            found.append((node.lineno, "covariance"))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_spec_policies_read_only_in_model(path):
    assert _spec_policy_reads(path.read_text(encoding="utf-8")) == []


def test_policy_detector_sees_reads():
    source = (
        "def f(spec, t):\n"
        "    if spec.vectorized:\n"
        "        return spec.covariance(t)\n"
        "    spec.vectorized = False\n"
        "    return spec.sigma_series([t]), spec.covariance\n"
    )
    assert _spec_policy_reads(source) == [(2, "vectorized"), (3, "covariance")]


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats takes most of a second to import; the quantiles come from
    # scipy.special instead
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = "import sys, nss_lab.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
