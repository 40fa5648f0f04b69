#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes, from the repository root::

    python3 bench/selftest.py

For every workload it runs ``bench/run.py --toy`` with ``--trace 0`` and
``--trace 1`` and checks that every metric declared in ``BENCHMARK.json`` is
emitted with its declared unit, and that no run failed (fail_rate 0).  It
also checks that ``bench/layers.json`` maps every declared metric, and that
the benchmark exits non-zero without a result in a directory holding only
``BENCHMARK.json`` and ``bench/``.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, declared: dict, errors: list) -> None:
    proc = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-1000:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: fail_rate {result['failed']}/{result['attempted']}: "
                      + " | ".join(l for l in lines if "FAILED" in l))
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics/units {got} differ from declared {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"{where}: {name} value {m.get('value')!r} is not a finite number")
    if not trace:
        for name in list(want) + ["fail_rate"]:
            if not any(l.split()[:1] == [name] and (" of " in l or "/" in l) for l in lines):
                errors.append(f"{where}: {name} not printed with its sample count")


def check_bare_directory(errors: list) -> None:
    """Only BENCHMARK.json and bench/: the benchmark must refuse to run."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(ROOT / "bench", tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(tmp, "long-path", 0)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        if proc.returncode == 0 or last.startswith("{"):
            errors.append(f"bare directory: exit {proc.returncode}, last line {last!r}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((ROOT / "bench" / "layers.json").read_text(encoding="utf-8"))
    errors: list = []
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from bench/workloads.py")
    missing = ({m["name"] for m in declared["per_layer"]} ^ set(layers["per_layer"])) | (
        {m["name"] for m in declared["end_to_end"]} ^ set(layers["end_to_end"]))
    if missing:
        errors.append(f"bench/layers.json and BENCHMARK.json disagree on {sorted(missing)}")
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, declared, errors)
    check_bare_directory(errors)
    for err in errors:
        print("FAIL:", err)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
