"""Compare the outputs of ``nss-lab example`` and ``nss-lab bounds`` between
two source trees.

Usage: python tools/compare_outputs.py OLD_SRC NEW_SRC
       python tools/compare_outputs.py --rev REV NEW_SRC

Each SRC is a directory that holds the ``nss_lab`` package, such as a
checkout's ``src``.  ``--rev REV`` takes the old tree from the git revision
REV of this repository (``--rev HEAD``, say), exported with ``git archive``
into the temporary directory.  For each run below, the command runs once
with each tree on ``PYTHONPATH``.  Both sides write to the same
``output.dir`` under the temporary directory, because ``summary.txt`` and
``config_echo.ini`` echo it.  The exit code, stdout, stderr and every output
file must match byte for byte.  Prints one line per run, ``identical`` or
the outputs that differ; under it, for each differing text output (stdout,
stderr or a file), the first 20 lines of a unified diff from the old tree to
the new.  Exits 1 on any difference.
"""

import difflib
import io
import itertools
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# the --set overrides of each ``example`` run
RUNS = [
    [],
    ["sim.seed=1", "sim.t_end=2000"],
    ["sim.seed=2", "sim.t_end=2000"],
    ["sim.seed=3", "sim.t_end=2000"],
    ["sim.t_end=5", "ensemble.n_paths=10000"],
    ["fractiles.k=0.5,0.2,0.9"],
    ["sim.t_end=3", "sim.dump_trajectory=true"],
    ["sim.t_end=70", "sim.dump_trajectory=true"],  # 70,001 rows: across block edges
    ["system.x0=3,0"],  # starts above v1: a first up segment of length 0
    ["sim.t_end=5", "ensemble.n_paths=1000", "grid.r_min=0.5"],  # vacuous notes
    ["sim.t_end=2000", "sim.dt=2"],  # blows up: exit 4 and one error line
    ["system.x0=0.5,-0.25", "sim.t_end=50", "sim.dt=0.002", "sim.seed=9",  # each key but name, dir
     "sim.dump_trajectory=yes", "levels.v1=1.5", "levels.v0=1.2", "grid.r_min=1.1",
     "grid.r_max=8", "grid.count=7", "grid.spacing=linear", "fractiles.k=0.25,0.5",
     "ensemble.n_paths=1000", "ensemble.check_times=1,2", "stats.confidence=0.95"],
    # an ensemble of 17,000 steps: each chunk draws two blocks of noise
    ["sim.t_end=5", "sim.dt=0.002", "ensemble.n_paths=1000", "ensemble.check_times=1,34"],
    # the OU by name: its sequential and its affine kernel
    ["system.name=ou-1d", "system.x0=0", "sim.t_end=50"],
    ["system.name=ou-1d-affine", "system.x0=0", "sim.t_end=50"],
    # and their ensembles: ou-1d's is the one run whose chunks step sequentially
    ["system.name=ou-1d", "system.x0=0", "sim.t_end=5", "ensemble.n_paths=1000"],
    ["system.name=ou-1d-affine", "system.x0=0", "sim.t_end=5", "ensemble.n_paths=1000"],
    # sin t near its zeros: the gain's round-off must not flag the premise
    ["sim.dt=0.0001", "sim.t_end=3.1417"],
    # check times inexact in binary (0.3 / 0.1 is 2.9999999999999996) on a
    # saved grid of one step
    ["sim.t_end=5", "sim.dt=0.1", "ensemble.n_paths=1000", "ensemble.check_times=0.3,0.7"],
]
# the command line of each ``bounds`` run
BOUNDS_RUNS = [
    ["bounds", "--c", "1", "--gamma-max", "0.5", "--v1", "2", "--optimal"],
    ["bounds", "--c", "1", "--gamma-max", "0.5", "--v1", "2", "--v0", "1.5"],
]


def _outputs(src: Path, args: list, tmp: Path) -> dict:
    """Output name -> bytes (or the exit code) of one run of the command line
    ``args``, its directory ``tmp / "out"`` removed."""
    out = tmp / "out"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "nss_lab.cli", *args], cwd=tmp, env=env,
                          capture_output=True)
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            **files}


def _diff_lines(name: str, old, new) -> list:
    """The first 20 lines of a unified diff of output ``name`` between its old
    and its new bytes, either of which may be None (the output is missing)."""
    a, b = ([] if v is None else v.decode("utf-8", "replace").splitlines() for v in (old, new))
    return list(itertools.islice(
        difflib.unified_diff(a, b, f"old/{name}", f"new/{name}", lineterm=""), 20))


def _export_src(rev: str, dest: Path) -> Path:
    """The ``src`` tree of git revision ``rev`` of this repository, under dest."""
    repo = Path(__file__).resolve().parent.parent
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=repo,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--rev":
        rev, trees = argv[1], [None, argv[2]]
    elif len(argv) == 2 and "--rev" not in argv:
        rev, trees = None, argv
    else:
        print(__doc__, file=sys.stderr)
        return 2
    any_diff = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if rev is not None:
            try:
                trees[0] = _export_src(rev, tmp / "rev")
            except subprocess.CalledProcessError as exc:
                print(f"error: git archive {rev}: {exc.stderr.decode().strip()}",
                      file=sys.stderr)
                return 2
        srcs = [Path(a).resolve() for a in trees]
        for src in srcs:
            if not (src / "nss_lab" / "__init__.py").is_file():
                print(f"error: {src} holds no nss_lab package", file=sys.stderr)
                return 2
        runs = [(["example", "--set", f"output.dir={tmp / 'out'}",
                  *(arg for s in sets for arg in ("--set", s))], " ".join(sets) or "(defaults)")
                for sets in RUNS]
        runs += [(args, " ".join(args)) for args in BOUNDS_RUNS]
        for args, label in runs:
            old, new = (_outputs(src, args, tmp) for src in srcs)
            diff = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            any_diff = any_diff or bool(diff)
            verdict = f"differs: {', '.join(diff)}" if diff else "identical"
            print(f"{label}: {verdict} "
                  f"(exit {old['exit code']}, {len(old) - 3} files)")
            for name in (name for name in diff if name != "exit code"):
                for line in _diff_lines(name, old.get(name), new.get(name)):
                    print(f"    {line}")
            sys.stdout.flush()
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
