"""The benchmark's traced child still runs against the package.

The trace hook wraps functions in ``nss_lab.cli``'s namespace and rewraps the
``BoundSet`` that ``make_bound_set`` returns, so an API change there breaks
the benchmark; these toy-size runs catch that in the test suite.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# every declared per-layer metric but trace.overhead_s, which bench/run.py
# computes from the dumped spans
CHILD_LAYERS = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
                } - {"trace.overhead_s"}


@pytest.mark.parametrize("workload", ["long-path", "coupling"])
def test_traced_child_reports_every_layer(tmp_path, workload):
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "bench/child.py", "trace", workload, "--seed", "1", "--toy",
            "--out", str(tmp_path)]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    layers = result["layers"]
    assert set(layers) == CHILD_LAYERS
    assert all(math.isfinite(v) for v in layers.values())
    assert layers["slln.violations"] == 0
    if workload == "long-path":
        assert result["exit_code"] in (0, 3)  # a run, not a CLI error
        assert layers["bounds.calls"] > 0  # the rewrapped b and q were called
    else:
        assert result["violations"] == 0
