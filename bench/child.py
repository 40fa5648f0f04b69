"""One measured run of a benchmark workload, in a fresh interpreter.

The driver (``bench/run.py``) starts it as::

    python3 bench/child.py {run|trace} WORKLOAD --seed N --out DIR [--toy]

from the repository root, with ``PYTHONPATH=src``, ``NSS_LAB_THREADS`` set and
``BENCH_SPAWNED_AT`` holding the driver's ``time.monotonic()`` at spawn (the
clock is system-wide on Linux).  The child prints one JSON object as the last
line of its standard output.

* ``run``: import ``nss_lab`` and load the workload's config (the set-up),
  then time the workload's call with tracing off.
* ``trace``: the same call with spans recorded around every public function
  that ``nss_lab.cli`` calls into each module, followed by the layer probes.
"""

from __future__ import annotations

import json
import os
import sys
import time

SPAWNED_AT = float(os.environ.get("BENCH_SPAWNED_AT", "nan"))

# Per-layer metric names each traced workload reports; a layer a workload
# does not exercise reports 0.
CLI_LAYERS = (
    "sim.integrate_s", "sim.integrate_us_per_step", "sim.steps", "sim.ensemble_s",
    "sim.ensemble_path_steps_per_s_1t", "sim.ensemble_path_steps_per_s_nt",
    "sim.noise_bytes", "sim.csv_rows_per_s",
    "loops.extract_s", "loops.time_average_s", "loops.cross_time_s",
    "loops.complete_loops", "loops.checks_skipped", "loops.checks_flagged",
    "loops.moment_s", "loops.probability_s",
    "model.check_enss_s", "model.points_checked", "bounds.s", "bounds.calls",
    "cli.load_config_s", "cli.write_report_s", "cli.pipeline_self_s",
)
SLLN_LAYERS = (
    "slln.couple_upper_s", "slln.couple_lower_s", "slln.uniformize_calls",
    "slln.cdf_evals", "slln.violations", "slln.us_per_elem_n",
    "slln.us_per_elem_4n", "slln.growth_ratio",
)


def _cpu_s() -> float:
    import resource

    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(arrays) -> str:
    import hashlib

    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# --- CLI workloads (long-path, ensemble) -------------------------------------

def _instrument_cli(tracer, cli, sim):
    """Wrap, in ``nss_lab.cli``'s namespace, each function it calls per module."""
    import dataclasses

    seen = {}

    def on_integrate(traj, spec, cfg, *a, **k):
        tracer.count("sim.steps", cfg.n_steps)
        seen.setdefault("long_path", traj)
        return traj

    def on_check(rep, *a, **k):
        tracer.count("model.points_checked", rep.points_checked)
        return rep

    def on_extract(rec, *a, **k):
        tracer.count("loops.complete_loops", rec.complete_loops)
        return rec

    def on_bound_set(bset, *a, **k):
        return dataclasses.replace(bset, b=tracer.traced("bounds.b", bset.b),
                                   q=tracer.traced("bounds.q", bset.q))

    def on_report(report, *a, **k):
        seen["report"] = report
        return report

    for attr, name, hook in (
        ("load_config", "cli.load_config", None),
        ("run_example", "cli.pipeline", on_report),
        ("write_report", "cli.write_report", None),
        ("check_enss", "model.check_enss", on_check),
        ("integrate", "sim.integrate", on_integrate),
        ("ensemble", "sim.ensemble", None),
        ("extract_loops", "loops.extract", on_extract),
        ("empirical_time_average", "loops.time_average", None),
        ("verify_cross_time_bounds", "loops.cross_time", None),
        ("verify_moment_bound", "loops.moment", None),
        ("verify_probability_bound", "loops.probability", None),
        ("optimal_v0", "bounds.optimal_v0", None),
        ("make_bound_set", "bounds.make_bound_set", on_bound_set),
    ):
        tracer.wrap(cli, attr, name, hook)

    # Gaussian noise drawn, computed from the sizes of the arrays that the
    # per-path Philox generators return (sim looks path_generator up by name).
    real_generator = sim.path_generator

    class CountingGenerator:
        def __init__(self, gen):
            self._gen = gen

        def normal(self, *args, **kwargs):
            out = self._gen.normal(*args, **kwargs)
            tracer.count("sim.noise_bytes", out.nbytes)
            return out

        def __getattr__(self, name):
            return getattr(self._gen, name)

    sim.path_generator = lambda seed, path_index=0: CountingGenerator(
        real_generator(seed, path_index))
    return seen


def _csv_probe(tracer, sim, traj, out_dir) -> float:
    """Rows per second of ``trajectory_to_csv`` on the long path, to a temp dir."""
    import shutil
    import tempfile

    tmp = tempfile.mkdtemp(prefix="csv-", dir=out_dir)
    try:
        span = tracer.open("probe.trajectory_to_csv")
        sim.trajectory_to_csv(traj, os.path.join(tmp, "trajectory.csv"))
        tracer.close(span)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return len(traj.times) / span.duration


def _ensemble_probe(tracer, sim, seed: int, n_paths: int) -> dict:
    """The same ensemble call at 1 thread and at NSS_LAB_THREADS threads."""
    from nss_lab.model import builtin_example

    spec = builtin_example()
    cfg = sim.SimConfig(t_end=5.0, dt=1e-3, seed=seed, x0=(0.0, 0.0), save_every=100)
    n_threads = os.environ.get("NSS_LAB_THREADS", "1")
    rates, digests = {}, []
    try:
        for label, threads in (("1t", "1"), ("nt", n_threads)):
            os.environ["NSS_LAB_THREADS"] = threads
            span = tracer.open(f"probe.ensemble_{label}")
            paths = sim.ensemble(spec, cfg, n_paths)
            tracer.close(span)
            rates[label] = n_paths * cfg.n_steps / span.duration
            digests.append(_digest(p.states for p in paths))
            del paths
    finally:
        os.environ["NSS_LAB_THREADS"] = n_threads
    return {"rates": rates, "threads_agree": digests[0] == digests[1]}


def run_cli(mode: str, workload: str, seed: int, out_dir: str, toy: bool) -> dict:
    from workloads import PROBE_PATHS, PROBE_PATHS_TOY, cli_argv, cli_overrides

    import nss_lab.cli as cli

    overrides = cli_overrides(workload, seed, os.path.join(out_dir, workload), toy)
    cli.load_config(None, overrides)
    result = {"setup_s": time.monotonic() - SPAWNED_AT, "versions": _versions()}

    tracer = seen = None
    if mode == "trace":
        import nss_lab.sim as sim
        from tracing import Tracer

        tracer = Tracer(f"{workload}-seed{seed}")
        seen = _instrument_cli(tracer, cli, sim)

    argv = cli_argv(overrides)
    cpu0, t0 = _cpu_s(), time.monotonic()
    if tracer is None:
        code = cli.main(argv)
    else:
        code = tracer.traced("cli.main", cli.main)(argv)
    result.update(wall_s=time.monotonic() - t0, cpu_s=_cpu_s() - cpu0,
                  peak_rss_mb=_peak_rss_mb(), exit_code=code)
    if tracer is None:
        return result

    counts = dict(tracer.counts)  # pipeline counts, before the probes add to them
    report = seen.get("report")
    statuses = [status for _, status, _ in report.checks] if report else []
    steps = counts.get("sim.steps", 0)
    integrate_s = tracer.total("sim.integrate")
    layers = {
        "sim.integrate_s": integrate_s,
        "sim.integrate_us_per_step": integrate_s / steps * 1e6 if steps else 0.0,
        "sim.steps": steps,
        "sim.ensemble_s": tracer.total("sim.ensemble"),
        "sim.ensemble_path_steps_per_s_1t": 0.0,
        "sim.ensemble_path_steps_per_s_nt": 0.0,
        "sim.noise_bytes": counts.get("sim.noise_bytes", 0),
        "sim.csv_rows_per_s": 0.0,
        "loops.extract_s": tracer.total("loops.extract"),
        "loops.time_average_s": tracer.total("loops.time_average"),
        "loops.cross_time_s": tracer.total("loops.cross_time"),
        "loops.complete_loops": counts.get("loops.complete_loops", 0),
        "loops.checks_skipped": statuses.count("skip"),
        "loops.checks_flagged": statuses.count("FLAG"),
        "loops.moment_s": tracer.total("loops.moment"),
        "loops.probability_s": tracer.total("loops.probability"),
        "model.check_enss_s": tracer.total("model.check_enss"),
        "model.points_checked": counts.get("model.points_checked", 0),
        "bounds.s": tracer.total("bounds"),
        "bounds.calls": len(tracer.named("bounds")),
        "cli.load_config_s": tracer.total("cli.load_config"),
        "cli.write_report_s": tracer.total("cli.write_report"),
        "cli.pipeline_self_s": sum(tracer.self_time(s) for s in tracer.named("cli.pipeline")),
    }
    if "long_path" in seen:
        layers["sim.csv_rows_per_s"] = _csv_probe(tracer, sim, seen["long_path"], out_dir)
    if workload == "ensemble":
        probe = _ensemble_probe(tracer, sim, seed, PROBE_PATHS_TOY if toy else PROBE_PATHS)
        layers["sim.ensemble_path_steps_per_s_1t"] = probe["rates"]["1t"]
        layers["sim.ensemble_path_steps_per_s_nt"] = probe["rates"]["nt"]
        result["threads_agree"] = probe["threads_agree"]
    result.update(layers=layers, tracer=tracer)
    return result


# --- coupling workload -------------------------------------------------------

def run_coupling(mode: str, seed: int, toy: bool) -> dict:
    from workloads import (COUPLING_N, COUPLING_N_TOY, LOWER_RATE, UPPER_RATE,
                           adapted_cdf, coupling_inputs, exp_cdf)

    import numpy as np

    import nss_lab.slln as slln

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer(f"coupling-seed{seed}")
        slln.uniformize = tracer.counted("slln.uniformize_calls", slln.uniformize)

    evals = [0]
    cdf_iid = exp_cdf(1.0, evals)
    cdf_adapted = adapted_cdf(evals)
    g_iid = slln.ConditionalCdf.from_marginal(cdf_iid)
    g_adapted = slln.ConditionalCdf(eval=cdf_adapted, left_limit=cdf_adapted)
    f_upper = slln.DominatingLaw.from_cdf(exp_cdf(UPPER_RATE, evals))
    f_lower = slln.DominatingLaw.from_cdf(exp_cdf(LOWER_RATE, evals))
    result = {"setup_s": time.monotonic() - SPAWNED_AT, "versions": _versions()}

    n = COUPLING_N_TOY if toy else COUPLING_N
    iid, adapted = coupling_inputs(seed, n)
    calls = (
        ("iid", "upper", iid, g_iid, f_upper, slln.dominated_coupling_upper),
        ("iid", "lower", iid, g_iid, f_lower, slln.dominated_coupling_lower),
        ("adapted", "upper", adapted, g_adapted, f_upper, slln.dominated_coupling_upper),
        ("adapted", "lower", adapted, g_adapted, f_lower, slln.dominated_coupling_lower),
    )
    outputs, times, violations = [], {}, 0
    cpu0, t0 = _cpu_s(), time.monotonic()
    for i, (half, side, xs, g, f, fn) in enumerate(calls):
        if tracer is not None:
            fn = tracer.traced(f"slln.couple_{side}.{half}", fn)
        t = time.perf_counter()
        zs = fn(xs, g, f, seed=seed * 4 + i)
        times[half] = times.get(half, 0.0) + time.perf_counter() - t
        outputs.append(zs)
    result.update(wall_s=time.monotonic() - t0, cpu_s=_cpu_s() - cpu0,
                  peak_rss_mb=_peak_rss_mb())
    for (_, side, xs, *_), zs in zip(calls, outputs):
        ok = zs >= xs if side == "upper" else zs <= xs
        violations += int(np.count_nonzero(~ok | ~np.isfinite(zs)))
    result.update(digest=_digest(outputs), violations=violations,
                  half_s=times, elements=n)
    if tracer is None:
        return result

    cdf_evals = evals[0]  # the workload's calls only, before the probe adds to it
    uniformize_calls = tracer.counts["slln.uniformize_calls"]
    # Growth probe: the workload's upper coupling of n i.i.d. elements against
    # one of a fresh i.i.d. sequence of 4n elements.
    longer = np.random.default_rng([seed, 8]).exponential(size=4 * n)
    span = tracer.open("probe.couple_upper_4n")
    slln.dominated_coupling_upper(longer, g_iid, f_upper, seed=seed * 4)
    tracer.close(span)
    us_n = tracer.total("slln.couple_upper.iid") / n * 1e6
    us_4n = span.duration / (4 * n) * 1e6
    result["layers"] = {
        "slln.couple_upper_s": tracer.total("slln.couple_upper"),
        "slln.couple_lower_s": tracer.total("slln.couple_lower"),
        "slln.uniformize_calls": uniformize_calls,
        "slln.cdf_evals": cdf_evals,
        "slln.violations": violations,
        "slln.us_per_elem_n": us_n,
        "slln.us_per_elem_4n": us_4n,
        "slln.growth_ratio": us_4n / us_n,
    }
    result["tracer"] = tracer
    return result


def _versions() -> dict:
    out = {"python": sys.version.split()[0]}
    for mod in ("numpy", "scipy"):
        m = sys.modules.get(mod)
        out[mod] = getattr(m, "__version__", "not imported")
    return out


def main(argv=None) -> int:
    import argparse

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("run", "trace"))
    p.add_argument("workload", choices=("long-path", "ensemble", "coupling"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="benchmark output directory")
    p.add_argument("--toy", action="store_true")
    args = p.parse_args(argv)

    if args.workload == "coupling":
        result = run_coupling(args.mode, args.seed, args.toy)
    else:
        result = run_cli(args.mode, args.workload, args.seed, args.out, args.toy)
    tracer = result.pop("tracer", None)
    if tracer is not None:
        result["layers"] = {**dict.fromkeys(CLI_LAYERS + SLLN_LAYERS, 0), **result["layers"]}
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path)
        result["spans_file"] = spans_path
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
