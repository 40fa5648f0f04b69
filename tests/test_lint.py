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
    """Lines that call ``.covariance(...)`` or ``.gamma(...)``: the maps whose
    batch shapes only ``model`` checks, so only ``model`` may evaluate them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("covariance", "gamma")):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_spec_policies_read_only_in_model(path):
    assert _spec_policy_reads(path.read_text(encoding="utf-8")) == []


def test_policy_detector_sees_reads():
    source = (
        "def f(spec, t, s):\n"
        "    g = spec.gamma(s)\n"
        "    h = spec.covariance(t)\n"
        "    spec.gamma_max = spec.gamma\n"
        "    return spec.sigma_series([t]), spec.covariance, math.lgamma(s)\n"
    )
    assert _spec_policy_reads(source) == [(2, "gamma"), (3, "covariance")]


def _declared(cls: ast.ClassDef) -> list:
    """Names a class body declares as annotated fields or properties."""
    return ([stmt.target.id for stmt in cls.body
             if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            + [stmt.name for stmt in cls.body if isinstance(stmt, ast.FunctionDef)
               and any(isinstance(d, ast.Name) and d.id == "property"
                       for d in stmt.decorator_list)])


def _unread_fields(sources: list, classes: tuple) -> list:
    """``(class, field, why)`` of each annotated field of the named classes
    whose reads cannot be told apart: ``"unread"`` if no source reads the name
    as an attribute (``obj.field``), else ``"shared"`` if another class in the
    sources declares the same name as a field or a property.  Names are
    matched without types, so a read of a shared name may be the other
    class's; each caller pins its shared fields, to review any new one."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    owners = {}
    for cls in (c for tree in trees for c in ast.walk(tree) if isinstance(c, ast.ClassDef)):
        for name in _declared(cls):
            owners.setdefault(name, set()).add(cls.name)
    return sorted((cls.name, stmt.target.id,
                   "unread" if stmt.target.id not in read else "shared")
                  for tree in trees for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name in classes
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and (stmt.target.id not in read or owners[stmt.target.id] != {cls.name}))


def test_every_spec_field_has_a_reader():
    # a field that the package never reads is an input that changes nothing:
    # a spec field, a config key or a value of the validated plan
    sources = [path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))]
    classes = ("LyapunovSpec", "SystemSpec", "ExperimentConfig", "_Plan")
    # reviewed: SimConfig (dt, seed, t_end, x0) and LevelPair hold these too
    shared = [("ExperimentConfig", name, "shared")
              for name in ("dt", "seed", "t_end", "v0", "v1", "x0")]
    assert _unread_fields(sources, classes) == shared + [
        ("SystemSpec", "c", "shared"), ("SystemSpec", "gamma_max", "shared")]


def test_every_result_field_has_a_reader():
    # a result field that nothing reads restates another fact of the run;
    # library users read results, and the tests stand in for them.  CheckRow
    # is left out: astuple reads its fields for the CSVs
    paths = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    sources = [path.read_text(encoding="utf-8") for path in paths]
    classes = ("LoopRecord", "CrossTimeReport", "ConditionReport", "BoundSet")
    assert _unread_fields(sources, classes) == []


def test_field_detector_sees_unread_fields():
    spec = (
        "class Spec:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: int = 1\n"
        "    d: int = 2\n"
        "    e: int = 3\n"
        "class Other:\n"
        "    a: int\n"
        "    @property\n"
        "    def e(self) -> int:\n"
        "        return 4\n"
        "    def b(self) -> int:\n"
        "        return 5\n"
    )
    use = (
        "def f(spec, other):\n"
        "    spec.c = 3\n"
        "    return spec.d + other.a + other.e\n"
    )
    # Spec.a is read only as Other's field a, Spec.e only as Other's
    # property e; Other's method b declares no field, and Spec.b is unread
    assert _unread_fields([spec, use], ("Spec",)) == [
        ("Spec", "a", "shared"), ("Spec", "b", "unread"), ("Spec", "c", "unread"),
        ("Spec", "e", "shared")]


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
    # both checks' critical values; neither may pull in scipy, nor numpy.ma
    # (np.quantile loads it on first use), nor statistics with the decimal and
    # fractions it imports
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
        "print(sorted({'statistics', 'decimal', 'fractions'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["[]", "False", "[]"]
    assert "[pass] cross-time-bounds" in (tmp_path / "0" / "summary.txt").read_text()
    assert (tmp_path / "1" / "probability_bound.csv").exists()


def test_slln_import_leaves_other_modules_out():
    # the package imports its exports and their modules on first access, so
    # a coupling does not pay for the simulation's modules or numpy.random
    probe = (
        "import sys\n"
        "import nss_lab.slln\n"
        "print(sorted(m for m in sys.modules if m.startswith(('nss_lab.', 'numpy.random'))))\n"
        "import nss_lab\n"
        "public = [n for n in dir(nss_lab) if not n.startswith('_')]\n"
        "print(public == sorted(nss_lab.__all__ + ['bounds', 'loops', 'model', 'sim', 'slln']))\n"
        "from nss_lab import integrate\n"
        "print(integrate.__module__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["['nss_lab.slln']", "True", "nss_lab.sim"]


def test_package_exports_resolve():
    # the package exports its modules' __all__: each name once, as the object
    # of the one module that lists it
    import nss_lab

    assert len(set(nss_lab.__all__)) == len(nss_lab.__all__)
    modules = [getattr(nss_lab, m) for m in nss_lab._MODULES]
    for name in nss_lab.__all__:
        [module] = [m for m in modules if name in m.__all__]
        assert getattr(nss_lab, name) is getattr(module, name)


def _owned(source: str, match) -> list:
    """``(line, enclosing function)`` of each node of ``source`` that ``match``
    accepts, in source order."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                if match(child):
                    found.append((child.lineno, owner))
                visit(child, owner)

    visit(ast.parse(source), None)
    return found


def _full_precision_formats(source: str) -> list:
    """``(line, enclosing function)`` of each string holding the ``.17g``
    format: the byte format of CSV cells and of echoed config floats."""
    return _owned(source, lambda n: isinstance(n, ast.Constant) and ".17g" in str(n.value))


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


def _round_calls(source: str) -> list:
    """``(line, enclosing function)`` of each call of ``round`` or of a
    ``.round`` attribute, such as ``np.round``."""
    return _owned(source, lambda n: isinstance(n, ast.Call) and "round" in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None)))


def test_round_only_in_the_grid_rule():
    # sim._whole_steps decides which step a time falls on, for horizons, check
    # times and saved indices; a round elsewhere would be a second grid rule
    owners = {(path.name, owner)
              for path in sorted(SRC.glob("*.py"))
              for _, owner in _round_calls(path.read_text(encoding="utf-8"))}
    assert owners == {("sim.py", "_whole_steps")}


def test_round_detector_sees_calls():
    source = (
        "K = round(2.5)\n"
        "def steps(t, dt):\n"
        "    k = int(round(t / dt))  # round( in a comment is not code\n"
        "    def inner(x):\n"
        "        return np.round(x), x.round(2), 'round(x)', rounded(x), round\n"
        "    return round(round(k))\n"
    )
    assert _round_calls(source) == [
        (1, None), (3, "steps"), (5, "inner"), (5, "inner"), (6, "steps"), (6, "steps")]


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
