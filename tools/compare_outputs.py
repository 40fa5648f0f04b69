"""Compare the outputs of ``nss-lab example`` between two source trees.

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
the outputs that differ, and exits 1 on any difference.
"""

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# the --set overrides of each run
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
    ["sim.t_end=5", "ensemble.n_paths=1000", "ensemble.prob_radius=0.5"],  # vacuous notes
    ["sim.t_end=2000", "sim.dt=2"],  # blows up: exit 4 and one error line
    ["system.x0=0.5,-0.25", "sim.t_end=50", "sim.dt=0.002", "sim.seed=9",  # each key but name, dir
     "sim.dump_trajectory=yes", "levels.v1=1.5", "levels.v0=1.2", "grid.r_min=1.1",
     "grid.r_max=8", "grid.count=7", "grid.spacing=linear", "fractiles.k=0.25,0.5",
     "ensemble.n_paths=1000", "ensemble.check_times=1,2", "ensemble.prob_radius=2.5",
     "stats.confidence=0.95"],
]


def _outputs(src: Path, sets: list, tmp: Path) -> dict:
    """Output name -> bytes (or the exit code) of one run, its directory removed."""
    out = tmp / "out"
    argv = [sys.executable, "-m", "nss_lab.cli", "example", "--set", f"output.dir={out}"]
    for s in sets:
        argv += ["--set", s]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(argv, cwd=tmp, env=env, capture_output=True)
    files = {p.name: p.read_bytes() for p in out.iterdir()} if out.is_dir() else {}
    shutil.rmtree(out, ignore_errors=True)
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr,
            **files}


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
        for sets in RUNS:
            old, new = (_outputs(src, sets, tmp) for src in srcs)
            diff = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            any_diff = any_diff or bool(diff)
            verdict = f"differs: {', '.join(diff)}" if diff else "identical"
            print(f"{' '.join(sets) or '(defaults)'}: {verdict} "
                  f"(exit {old['exit code']}, {len(old) - 3} files)", flush=True)
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
