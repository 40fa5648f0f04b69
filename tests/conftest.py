import math

import numpy as np
import pytest

from nss_lab import LyapunovSpec, SimConfig, SystemSpec, builtin_example, integrate

ACCEPTANCE_SEED = 20240811


def quadratic_lyapunov(dim: int = 1) -> LyapunovSpec:
    """V(x) = |x|^2 / 2 with matching quadratic envelopes."""
    return LyapunovSpec(
        v=lambda x: 0.5 * np.sum(np.asarray(x, dtype=float) ** 2, axis=-1),
        alpha1=lambda r: 0.5 * r * r,
        alpha1_inv=lambda s: math.sqrt(2.0 * s),
        grad_v=lambda x: np.asarray(x, dtype=float).copy(),
        hess_v=lambda x: np.broadcast_to(np.eye(dim), np.shape(x) + (dim,)),
    )


def make_ou(sigma: float = 1.0) -> SystemSpec:
    """Scalar Ornstein-Uhlenbeck process dx = -x dt + sigma dW."""
    return SystemSpec(
        dim_state=1,
        dim_noise=1,
        drift=lambda x: -np.asarray(x, dtype=float),
        diffusion=lambda x: np.ones(np.asarray(x, dtype=float).shape[:-1] + (1, 1)),
        covariance=lambda t: sigma * np.ones(np.shape(t) + (1, 1)),
        lyapunov=quadratic_lyapunov(1),
        c=2.0,
        gamma=lambda s: 0.5 * sigma * sigma,
        gamma_max=0.5 * sigma * sigma,
        vectorized=True,
    )


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
