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
