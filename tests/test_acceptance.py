"""Acceptance criteria 1-9, each printing one PASS/FAIL line.

Criterion 5's loop-count clause is asserted as stated even though the
benchmark system empirically produces ~25 complete loops in 500 s (the
statistical bound checks on those loops do pass); that assertion is
expected to fail and documents the shortfall honestly.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from nss_lab.bounds import (
    LevelPair,
    bound_b,
    down_cross_survival_bound,
    expected_down_cross,
    expected_up_cross,
    fractile_q,
    lambert_w_lower,
    occupancy_ratio_bound,
    optimal_v0,
    up_cross_survival_bound,
)
from nss_lab.cli import main
from nss_lab.loops import (
    empirical_time_average,
    extract_loops,
    verify_cross_time_bounds,
    verify_moment_bound,
    verify_probability_bound,
)
from nss_lab.sim import SimConfig, ensemble
from nss_lab.slln import (
    ConditionalCdf,
    DominatingLaw,
    dominated_coupling_lower,
    dominated_coupling_upper,
    uniformize,
)

from conftest import ACCEPTANCE_SEED
from test_bounds import ALPHA1, ALPHA1_INV, bisect_w_lower


@pytest.fixture
def verdict(capfd):
    """One PASS/FAIL line per criterion, printed past pytest's capture."""

    def _verdict(num: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})",
                  flush=True)
        assert ok, f"criterion {num}: {detail}"

    return _verdict


@pytest.fixture(scope="module")
def ensemble_run(benchmark_system):
    cfg = SimConfig(t_end=5.0, dt=1e-3, seed=ACCEPTANCE_SEED, x0=(0.0, 0.0),
                    save_every=100)
    t0 = time.perf_counter()
    paths = ensemble(benchmark_system, cfg, 10_000)
    return paths, time.perf_counter() - t0


def test_criterion_1_lambert_w(verdict):
    t0 = time.perf_counter()
    xs = -np.geomspace(math.exp(-1.0) - 1e-12, 1e-12, 1000)
    worst = max(
        abs(w * math.exp(w) - float(x))
        for x in xs
        for w in [lambert_w_lower(float(x))]
    )
    oracle_gap = abs(
        lambert_w_lower(-math.exp(-2.0)) - bisect_w_lower(-math.exp(-2.0))
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and oracle_gap <= 1e-9 and elapsed < 1.0
    verdict(
        1, ok,
        f"max |w e^w - x| {worst:.3g}, oracle gap {oracle_gap:.3g}, "
        f"{elapsed:.3f} s",
    )


def test_criterion_2_fractile(verdict):
    q13 = fractile_q(1.0 / 3.0, 1.0, 0.5, ALPHA1_INV)
    ok = abs(q13 - 2.1958) <= 5e-4
    verdict(2, ok, f"q_1/3 = {q13:.6f}")


def test_criterion_3_distribution_bound(long_trajectory, sim_timings, verdict):
    t0 = time.perf_counter()
    grid = np.geomspace(1.05, 10.0, 50)
    dist = empirical_time_average(long_trajectory, grid)
    violations = sum(
        1 for r, d in zip(grid, dist)
        if d < bound_b(float(r), 1.0, 0.5, ALPHA1)
    )
    elapsed = sim_timings["long_trajectory"] + (time.perf_counter() - t0)
    ok = violations == 0 and elapsed < 30.0
    verdict(3, ok, f"{violations} violations on 50-point grid, {elapsed:.1f} s")


def test_criterion_4_occupancy(long_trajectory, verdict):
    q13 = fractile_q(1.0 / 3.0, 1.0, 0.5, ALPHA1_INV)
    frac = float(empirical_time_average(long_trajectory, [q13])[0])
    ok = frac >= 1.0 / 3.0
    verdict(4, ok, f"fraction {frac:.4f} inside radius {q13:.4f}")


def test_criterion_5_cross_time_bounds(long_trajectory, benchmark_system,
                                       sim_timings, verdict):
    t0 = time.perf_counter()
    v1 = 2.0
    v0 = optimal_v0(v1, benchmark_system.c, benchmark_system.gamma_max)
    levels = LevelPair(v0=v0, v1=v1, c=benchmark_system.c,
                       gamma_max=benchmark_system.gamma_max)
    record = extract_loops(long_trajectory, v0=v0, v1=v1)
    report = verify_cross_time_bounds(record, levels, confidence=0.99)
    elapsed = sim_timings["long_trajectory"] + (time.perf_counter() - t0)
    stats_ok = (
        not report.underpowered
        and report.n_flags == 0
        and report.mean_up >= report.crit_up
        and report.mean_down <= report.crit_down
    )
    ok = record.complete_loops >= 100 and stats_ok and elapsed < 60.0
    verdict(
        5, ok,
        f"{record.complete_loops} complete loops (need >= 100), "
        f"{report.n_flags} bound flags, mean up {report.mean_up:.3g} vs "
        f"t_uc {report.t_uc:.3g}, mean down {report.mean_down:.3g} vs "
        f"t_dc {report.t_dc:.3g}, {elapsed:.1f} s",
    )


def test_criterion_6_moment_and_probability(ensemble_run, benchmark_system, verdict):
    paths, sim_elapsed = ensemble_run
    t0 = time.perf_counter()
    times = (1.0, 2.5, 5.0)
    mom = verify_moment_bound(paths, benchmark_system, times)
    rows = [row for t_rows in verify_probability_bound(paths, benchmark_system, [3.0], times)
            for row in t_rows]
    prob_ok = not any(r.flag or r.bound <= 0.0 for r in rows)
    elapsed = sim_elapsed + (time.perf_counter() - t0)
    ok = not any(r.flag for r in mom) and prob_ok and elapsed < 300.0
    verdict(
        6, ok,
        f"moment flags {sum(r.flag for r in mom)}, probability ok "
        f"{prob_ok}, {len(paths)} paths, {elapsed:.1f} s",
    )


def test_criterion_7_slln_suite(verdict):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)

    # KS uniformity of the transform on discrete, continuous and mixed laws
    def coin(s, _h):
        return 0.0 if s < 0.0 else (0.5 if s < 1.0 else 1.0)

    def coin_left(s, _h):
        return 0.0 if s <= 0.0 else (0.5 if s <= 1.0 else 1.0)

    def norm_cdf(s):
        return 0.5 * math.erfc(-s / math.sqrt(2.0))

    def mixed(s, _h):
        return 0.0 if s < 0.0 else 0.5 + 0.5 * (1.0 - math.exp(-s))

    def mixed_left(s, _h):
        return 0.0 if s <= 0.0 else 0.5 + 0.5 * (1.0 - math.exp(-s))

    n_ks = 30_000
    cases = []
    xs = rng.integers(0, 2, size=n_ks).astype(float)
    cases.append((xs, ConditionalCdf(eval=coin, left_limit=coin_left)))
    cases.append((rng.normal(size=n_ks), ConditionalCdf.from_marginal(norm_cdf)))
    atoms = rng.uniform(size=n_ks) < 0.5
    xs = np.where(atoms, 0.0, rng.exponential(size=n_ks))
    cases.append((xs, ConditionalCdf(eval=mixed, left_limit=mixed_left)))
    ks_ok = True
    for xs, g in cases:
        xis = rng.uniform(size=len(xs))
        ys = np.array([uniformize(x, [], xi, g) for x, xi in zip(xs, xis)])
        ks_ok = ks_ok and sps.kstest(ys, "uniform").pvalue > 0.01

    # elementwise couplings at zero tolerance on 1e5-sample sequences
    n = 100_000
    uniform01 = DominatingLaw.from_cdf(lambda s: min(1.0, max(0.0, s)))
    xs_up = rng.uniform(0.0, 0.5, size=n)
    g_up = ConditionalCdf.from_marginal(lambda s: min(1.0, max(0.0, 2.0 * s)))
    zs_up = dominated_coupling_upper(xs_up, g_up, uniform01, seed=271)
    xs_lo = rng.uniform(0.5, 1.0, size=n)
    g_lo = ConditionalCdf.from_marginal(
        lambda s: min(1.0, max(0.0, 2.0 * (s - 0.5)))
    )
    zs_lo = dominated_coupling_lower(xs_lo, g_lo, uniform01, seed=272)
    couple_ok = bool(np.all(zs_up >= xs_up) and np.all(zs_lo <= xs_lo))

    # coupled-mean convergence to the dominating-law mean
    sigma = 1.0 / math.sqrt(12.0)
    tol = 4.0 * sigma / math.sqrt(n)
    mean_ok = (abs(float(np.mean(zs_up)) - 0.5) <= tol
               and abs(float(np.mean(zs_lo)) - 0.5) <= tol)

    elapsed = time.perf_counter() - t0
    ok = ks_ok and couple_ok and mean_ok and elapsed < 30.0
    verdict(
        7, ok,
        f"KS ok {ks_ok}, couplings ok {couple_ok}, means ok {mean_ok}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_8_bound_identities(verdict):
    from scipy import integrate as sci_integrate

    t0 = time.perf_counter()
    lv = LevelPair(v0=1.0, v1=2.0, c=1.0, gamma_max=0.5)
    t_uc_quad, _ = sci_integrate.quad(
        lambda s: up_cross_survival_bound(s, lv), 0.0, np.inf, limit=200
    )
    t_dc_quad, _ = sci_integrate.quad(
        lambda s: down_cross_survival_bound(s, lv), 0.0, np.inf, limit=200
    )
    quad_ok = (
        abs(expected_up_cross(lv) - t_uc_quad) <= 1e-6 * t_uc_quad
        and abs(expected_down_cross(lv) - t_dc_quad) <= 1e-6 * t_dc_quad
    )

    round_trip_ok = all(
        abs(bound_b(fractile_q(k, 1.0, 0.5, ALPHA1_INV), 1.0, 0.5, ALPHA1) - k)
        <= 1e-9
        for k in np.arange(0.1, 0.95, 0.1)
    )

    g = 0.5
    v1 = 2.0
    star = occupancy_ratio_bound(
        LevelPair(v0=optimal_v0(v1, 1.0, 0.5), v1=v1, c=1.0, gamma_max=0.5)
    )
    grid_ok = all(
        occupancy_ratio_bound(
            LevelPair(v0=g + b * (v1 - g), v1=v1, c=1.0, gamma_max=0.5)
        ) < star
        for b in np.linspace(1e-4, 1.0 - 1e-4, 1000)
    )

    elapsed = time.perf_counter() - t0
    ok = quad_ok and round_trip_ok and grid_ok and elapsed < 5.0
    verdict(
        8, ok,
        f"quadrature ok {quad_ok}, b(q_k)=k ok {round_trip_ok}, "
        f"optimum unique {grid_ok}, {elapsed:.1f} s",
    )


def test_criterion_9_determinism(tmp_path, monkeypatch, benchmark_system, verdict):
    args = ["example", "--set=sim.t_end=40", "--set=grid.count=20"]
    code_a = main(args + [f"--set=output.dir={tmp_path}/a"])
    code_b = main(args + [f"--set=output.dir={tmp_path}/b"])
    csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    bytes_ok = code_a == code_b == 0 and len(csvs) > 0 and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in csvs
    )

    cfg = SimConfig(t_end=0.5, dt=1e-2, seed=ACCEPTANCE_SEED, x0=(0.0, 0.0))
    monkeypatch.setenv("NSS_LAB_THREADS", "1")
    one = ensemble(benchmark_system, cfg, 8)
    monkeypatch.setenv("NSS_LAB_THREADS", "4")
    four = ensemble(benchmark_system, cfg, 8)
    threads_ok = all(
        np.array_equal(p1.states, p4.states) for p1, p4 in zip(one, four)
    )

    verdict(
        9, bytes_ok and threads_ok,
        f"{len(csvs)} CSVs byte-identical {bytes_ok}, "
        f"thread-count independent {threads_ok}",
    )
