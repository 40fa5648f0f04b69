"""Workload definitions shared by the benchmark driver and its child process.

Every input is derived from the workload seed.  This module imports nothing
heavier than the standard library at import time, so the driver stays light;
the coupling inputs import numpy lazily inside the child.
"""

from __future__ import annotations

import math

WORKLOADS = ("long-path", "ensemble", "coupling")

# Coupling sequence length per half (i.i.d. and adapted), and its toy size.
COUPLING_N = 20_000
COUPLING_N_TOY = 800
# Paths in the traced run's 1-thread / n-thread ensemble probe.
PROBE_PATHS = 2_000
PROBE_PATHS_TOY = 100


def cli_overrides(workload: str, seed: int, outdir: str, toy: bool) -> list:
    """``section.key=value`` overrides for the two ``nss-lab example`` workloads."""
    sets = [f"sim.seed={seed}", f"output.dir={outdir}"]
    if workload == "long-path":
        if toy:
            sets.append("sim.t_end=5")
    elif workload == "ensemble":
        sets += ["sim.t_end=5", f"ensemble.n_paths={1000 if toy else 10_000}"]
    else:
        raise ValueError(f"{workload!r} is not a CLI workload")
    return sets


def cli_argv(overrides) -> list:
    argv = ["example"]
    for item in overrides:
        argv += ["--set", item]
    return argv


def input_sizes(workload: str, toy: bool) -> dict:
    """Input sizes recorded with every result."""
    if workload == "long-path":
        t_end = 5.0 if toy else 500.0
        return {"t_end": t_end, "dt": 1e-3, "steps": round(t_end / 1e-3), "n_paths": 0}
    if workload == "ensemble":
        n_paths = 1000 if toy else 10_000
        return {"t_end": 5.0, "dt": 1e-3, "steps": 5000, "n_paths": n_paths,
                "ensemble_steps": 5000,
                "probe_paths": PROBE_PATHS_TOY if toy else PROBE_PATHS}
    n = COUPLING_N_TOY if toy else COUPLING_N
    return {"n_iid": n, "n_adapted": n, "growth_probe_4n": 4 * n}


# --- coupling laws -----------------------------------------------------------
# X_n is exponential.  The i.i.d. half has rate 1; the adapted half has rate
# 1 + tanh(X_{n-1}) / 2, which lies in [1, 1.5).  Exp(1/2) then dominates every
# conditional law from above and Exp(2) from below, so both couplings hold.
# Each CDF counts its own evaluations in ``evals[0]``: an increment inside the
# callable costs far less than a wrapper, so traced and untraced runs share it.

UPPER_RATE = 0.5
LOWER_RATE = 2.0


def exp_cdf(rate: float, evals: list):
    def cdf(s: float) -> float:
        evals[0] += 1
        return 0.0 if s <= 0.0 else -math.expm1(-rate * s)

    return cdf


def adapted_rate(prev: float) -> float:
    return 1.0 + 0.5 * math.tanh(prev)


def adapted_cdf(evals: list):
    def cdf(s: float, history) -> float:
        evals[0] += 1
        rate = adapted_rate(history[-1] if len(history) else 0.0)
        return 0.0 if s <= 0.0 else -math.expm1(-rate * s)

    return cdf


def coupling_inputs(seed: int, n: int):
    """The i.i.d. and the adapted input sequences, both of length n."""
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    iid = rng.exponential(size=n)
    unit = rng.exponential(size=n)
    adapted = np.empty(n)
    prev = 0.0
    for i in range(n):
        prev = float(unit[i]) / adapted_rate(prev)
        adapted[i] = prev
    return iid, adapted
