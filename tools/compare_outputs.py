"""Compare the outputs of ``nss-lab example`` between two source trees.

Usage: python tools/compare_outputs.py OLD_SRC NEW_SRC

Each argument is a directory that holds the ``nss_lab`` package, such as a
checkout's ``src``.  For each run below, the command runs once with each tree
on ``PYTHONPATH``.  Both sides write to the same ``output.dir`` under a
temporary directory, because ``summary.txt`` and ``config_echo.ini`` echo it.
The exit code, stdout, stderr and every output file must match byte for byte.
Prints one line per run, ``identical`` or the outputs that differ, and exits 1
on any difference.
"""

import os
import shutil
import subprocess
import sys
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


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    srcs = [Path(a).resolve() for a in argv]
    for src in srcs:
        if not (src / "nss_lab" / "__init__.py").is_file():
            print(f"error: {src} holds no nss_lab package", file=sys.stderr)
            return 2
    any_diff = False
    with tempfile.TemporaryDirectory() as tmp:
        for sets in RUNS:
            old, new = (_outputs(src, sets, Path(tmp)) for src in srcs)
            diff = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
            any_diff = any_diff or bool(diff)
            verdict = f"differs: {', '.join(diff)}" if diff else "identical"
            print(f"{' '.join(sets) or '(defaults)'}: {verdict} "
                  f"(exit {old['exit code']}, {len(old) - 3} files)", flush=True)
    return 1 if any_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
