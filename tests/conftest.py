import math

import numpy as np
import pytest

from nss_lab import SimConfig, builtin_example, integrate

ACCEPTANCE_SEED = 20240811


@pytest.fixture(scope="session")
def benchmark_system():
    return builtin_example()


@pytest.fixture(scope="session")
def sim_timings():
    return {}


@pytest.fixture(scope="session")
def long_trajectory(benchmark_system, sim_timings):
    """The 500 s reference run shared by the acceptance criteria."""
    import time

    cfg = SimConfig(t_end=500.0, dt=1e-3, seed=ACCEPTANCE_SEED, x0=(0.0, 0.0))
    t0 = time.perf_counter()
    traj = integrate(benchmark_system, cfg)
    sim_timings["long_trajectory"] = time.perf_counter() - t0
    return traj


@pytest.fixture(scope="session")
def short_trajectory(benchmark_system):
    cfg = SimConfig(t_end=50.0, dt=1e-3, seed=11, x0=(0.0, 0.0))
    return integrate(benchmark_system, cfg)


def dominating_draws(levels, side, n, seed):
    """n i.i.d. draws from the law that dominates the ``"up"`` or the
    ``"down"`` times at ``levels``, by closed-form inverse survival at
    ``u = 1 - U``, U the uniforms of ``default_rng(seed)`` (a seed or a
    Generator).  Up: ``ln(((v1 - v0)/u - (v1 - g))/g)/c``, or 0 where
    ``u >= (v1 - v0)/v1`` (the atom at 0); down: ``L/c - ln(u)/c`` with
    ``L = ln((v1 - g)/(v0 - g))``."""
    u = 1.0 - np.random.default_rng(seed).uniform(size=n)
    g, c = levels.floor, levels.c
    if side == "down":
        return (math.log((levels.v1 - g) / (levels.v0 - g)) - np.log(u)) / c
    return np.log(np.maximum((levels.v1 - levels.v0) / u - (levels.v1 - g), g) / g) / c
