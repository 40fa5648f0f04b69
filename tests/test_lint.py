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


def _scipy_imports(source: str) -> list:
    """Lines that import scipy or one of its submodules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                 else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
        found += [node.lineno for n in names if n.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_scipy(path):
    # numpy and the standard library only: scipy's import costs about as much
    # as the default run's simulation
    assert _scipy_imports(path.read_text(encoding="utf-8")) == []


def test_scipy_detector_sees_imports():
    source = (
        "import scipy\n"
        "from scipy.special import ndtri\n"
        "def f():\n"
        "    import scipy.stats as sps\n"
        "from . import scipyish\n"
    )
    assert _scipy_imports(source) == [1, 2, 4]


def test_cli_runs_leave_scipy_out(tmp_path):
    # a powered cross-time check (seed 1: 30 loops) and an ensemble stage use
    # both quantiles; neither may pull in scipy, nor numpy.ma (np.quantile
    # loads it on first use)
    probe = (
        "import contextlib, io, sys\n"
        "from nss_lab.cli import main\n"
        "runs = [['sim.seed=1'], ['sim.t_end=5', 'ensemble.n_paths=1000']]\n"
        "for i, sets in enumerate(runs):\n"
        "    argv = ['example', '--set', f'output.dir={sys.argv[1]}/{i}']\n"
        "    for s in sets:\n"
        "        argv += ['--set', s]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["[]", "False"]
    assert "[pass] cross-time-bounds" in (tmp_path / "0" / "summary.txt").read_text()
    assert (tmp_path / "1" / "probability_bound.csv").exists()


def _full_precision_formats(source: str) -> list:
    """``(line, enclosing function)`` of each string holding the ``.17g``
    format: the byte format of CSV cells and of echoed config floats."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            elif isinstance(child, ast.Constant) and ".17g" in str(child.value):
                found.append((child.lineno, owner))
            else:
                visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_full_precision_format_in_two_routines():
    # every CSV cell goes through sim.write_csv and every echoed float through
    # cli._format_float, so each byte format is decided in one place
    owners = {(path.name, owner)
              for path in sorted(SRC.glob("*.py"))
              for _, owner in _full_precision_formats(path.read_text(encoding="utf-8"))}
    assert owners == {("sim.py", "write_csv"), ("cli.py", "_format_float")}


def test_format_detector_sees_strings_and_f_strings():
    source = (
        "FMT = '%.17g'\n"
        "def cell(x):\n"
        "    return f'{x:.17g}'  # .17g in a comment is not code\n"
        "def row(xs):\n"
        "    def one(x):\n"
        "        return format(x, '.17g')\n"
        "    return [one(x) for x in xs], '%.6g'\n"
    )
    assert _full_precision_formats(source) == [(1, None), (3, "cell"), (6, "one")]


def _noise_draw_breaches(source: str) -> list:
    """``(line, name)`` of each random draw other than ``.normal`` on a generator
    that ``path_generator`` returns: a ``standard_normal`` or ``random_raw``
    attribute, a generator built outside ``path_generator``, or
    ``path_generator`` read without being called."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):  # outer functions first, so the innermost wins
        if isinstance(fn, ast.FunctionDef):
            owner.update((id(n), fn.name) for n in ast.walk(fn))
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("standard_normal", "random_raw"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if (node.id in ("Generator", "Philox", "default_rng") and id(node) in called
                    and owner.get(id(node)) != "path_generator"):
                found.append((node.lineno, node.id))
            if node.id == "path_generator" and id(node) not in called:
                found.append((node.lineno, node.id))
    return sorted(found)


def test_noise_drawn_only_by_path_generator_normal():
    # the bench counts sim.noise_bytes by replacing sim.path_generator with a
    # generator whose .normal counts bytes; any other draw would go uncounted
    assert _noise_draw_breaches((SRC / "sim.py").read_text(encoding="utf-8")) == []


def test_noise_draw_detector_sees_breaches():
    source = (
        "from numpy.random import Generator, Philox, default_rng\n"
        "def path_generator(seed, i) -> Generator:\n"
        "    return Generator(Philox(seed))\n"
        "def draw(seed):\n"
        "    make, g = path_generator, Generator(Philox(seed))\n"
        "    return g.standard_normal(3), path_generator(seed).normal(size=3), \\\n"
        "        g.bit_generator.random_raw(2), default_rng(seed)\n"
    )
    assert _noise_draw_breaches(source) == [
        (5, "Generator"), (5, "Philox"), (5, "path_generator"),
        (6, "standard_normal"), (7, "default_rng"), (7, "random_raw")]
