"""Experiment orchestration and the ``nss-lab`` command line interface.

An experiment runs the full verification pipeline on one system: dissipation
check, one long trajectory, loop extraction, time-average distribution versus
its closed-form lower bound, crossing-time bound checks, fractile occupancy
and optional ensemble moment / probability checks.  All tables are written as
CSV plus a plain-text summary; outputs are byte-reproducible for a fixed
configuration.

Exit codes: 0 all checks pass, 2 premises unverified, 3 a bound check
flagged, 4 runtime error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .bounds import (LevelPair, beta_star, expected_down_cross, expected_up_cross,
                     make_bound_set, occupancy_ratio_bound, optimal_v0)
from .loops import (
    MIN_PATHS,
    _MOMENT_SES,
    empirical_time_average,
    extract_loops,
    verify_cross_time_bounds,
    verify_moment_bound,
    verify_probability_bound,
)
from .model import SYSTEMS, SystemSpec, builtin_example, check_enss
from .sim import (
    RNG_ALGORITHM,
    SimConfig,
    Trajectory,
    _whole_steps,
    ensemble,
    integrate,
    integrator_name,
    max_threads,
    trajectory_to_csv,
    write_csv,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "EXIT_OK",
    "EXIT_PREMISES",
    "EXIT_FLAGGED",
    "EXIT_ERROR",
    "run_example",
    "run_custom",
    "write_report",
    "main",
    "console_main",
]

EXIT_OK = 0
EXIT_PREMISES = 2
EXIT_FLAGGED = 3
EXIT_ERROR = 4

_DEFAULT_SEED = 20240811

# The most bytes that the saved series of one simulation stage (states, V and
# norms: 8 (N + 2) bytes per saved state of each path) may take.  _plan refuses
# a long path or an ensemble above it, before anything runs.
_SERIES_BYTES = 4 << 30

# The pipeline's table CSVs, name -> header, in the order the stages add them.
# write_report removes those a report lacks, and trajectory.csv if not dumped.
_TABLES = {
    "distribution": ("r", "D_empirical", "b_bound", "flag"),
    "up_cross_survival": ("threshold", "empirical", "bound", "ci_low", "ci_high", "flag"),
    "down_cross_survival": ("threshold", "empirical", "bound", "ci_low", "ci_high", "flag"),
    "occupancy": ("k", "q_k", "occupied_fraction", "flag"),
    "moment_bound": ("t", "mean_V", "bound", "ci_low", "ci_high", "flag"),
    "probability_bound": ("t", "r", "frequency", "floor", "ci_low", "ci_high", "flag"),
}


def _parse_floats(raw: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _format_float(value: float) -> str:
    return f"{value:.17g}"


def _format_floats(values: Sequence[float]) -> str:
    return ",".join(_format_float(v) for v in values)


def _parse_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.strip().lower() not in states:
        raise ValueError(f"expected one of {', '.join(states)}")
    return states[raw.strip().lower()]


_SPACINGS = {"log": np.geomspace, "linear": np.linspace}  # grid.spacing -> its radii


def _key(section: str, key: str, default, parse=float, fmt=_format_float, rule=None):
    """A config field that ``[section] key`` sets through ``parse`` and the
    echo writes through ``fmt``.  ``rule = (test, what)``: :func:`_plan`
    refuses a value that fails ``test`` as not being ``what``."""
    return field(default=default, metadata={"key": (section, key), "io": (parse, fmt, rule)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration: one field per config key, in the order
    the echo writes them."""

    system: str = _key("system", "name", "example-2d", str, str)
    x0: Tuple[float, ...] = _key("system", "x0", (0.0, 0.0), _parse_floats, _format_floats)
    t_end: float = _key("sim", "t_end", 500.0)
    dt: float = _key("sim", "dt", 1e-3)
    seed: int = _key("sim", "seed", _DEFAULT_SEED, int, str, (lambda s: s >= 0, ">= 0"))
    dump_trajectory: bool = _key("sim", "dump_trajectory", False, _parse_bool,
                                 lambda b: str(b).lower())
    v1: float = _key("levels", "v1", 2.0)
    v0: Optional[float] = _key(  # None selects the optimal level ratio
        "levels", "v0", None, lambda s: None if s.strip() == "optimal" else float(s),
        lambda v: "optimal" if v is None else _format_float(v))
    r_min: float = _key("grid", "r_min", 1.05, rule=(lambda r: r > 0.0, "positive"))
    r_max: float = _key("grid", "r_max", 10.0)
    r_count: int = _key("grid", "count", 50, int, str, (lambda n: n >= 1, ">= 1"))
    r_spacing: str = _key("grid", "spacing", "log", str, str,
                          (lambda s: s in _SPACINGS, " or ".join(map(repr, _SPACINGS))))
    k_list: Tuple[float, ...] = _key("fractiles", "k", (1.0 / 3.0,), _parse_floats,
                                     _format_floats, (len, "at least one fraction"))
    n_paths: int = _key("ensemble", "n_paths", 0, int, str,
                        (lambda n: n == 0 or n >= MIN_PATHS, f"0 or >= {MIN_PATHS}"))
    check_times: Tuple[float, ...] = _key("ensemble", "check_times", (1.0, 2.5, 5.0),
                                          _parse_floats, _format_floats)
    confidence: float = _key("stats", "confidence", 0.99,
                             rule=(lambda c: 0.0 < c < 1.0, "in (0, 1)"))
    output_dir: str = _key("output", "dir", "nss-lab-out", str, str)

    def echo_ini(self) -> str:
        """Canonical INI text sufficient to reproduce the run exactly."""
        sections = {}
        for (section, key), (attr, _, fmt, _) in _CONFIG_KEYS.items():
            sections.setdefault(section, []).append(f"{key} = {fmt(getattr(self, attr))}")
        return "\n\n".join(
            f"[{section}]\n" + "\n".join(lines) for section, lines in sections.items()
        ) + "\n"


# (section, key) -> (ExperimentConfig field, parser, formatter, rule), in echo order
_CONFIG_KEYS = {f.metadata["key"]: (f.name, *f.metadata["io"])
                for f in fields(ExperimentConfig)}


def load_config(path: Optional[str] = None,
                overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Read an INI config file and apply ``section.key=value`` overrides.

    Without ``system.x0``, a built-in ``system.name`` starts at the origin of
    its system."""
    entries = []  # (section, key, raw) in the order they apply
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)  # values are read literally
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        entries += [(section, key, raw) for section in parser.sections()
                    for key, raw in parser.items(section)]
    for item in overrides:
        loc, eq, raw = item.partition("=")
        section, dot, key = loc.partition(".")
        if not (eq and dot):
            raise ValueError(f"override must look like section.key=value, got {item!r}")
        # as configparser reads them: stripped, and the option name lowercased
        entries.append((section.strip(), key.strip().lower(), raw.strip()))
    updates = {}
    for section, key, raw in entries:
        if (section, key) not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key [{section}] {key}")
        attr, parse, *_ = _CONFIG_KEYS[section, key]
        try:
            updates[attr] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"[{section}] {key} = {raw!r}: {exc}") from None
    if "x0" not in updates and updates.get("system") in SYSTEMS:
        updates["x0"] = (0.0,) * SYSTEMS[updates["system"]]().dim_state  # its origin
    return replace(ExperimentConfig(), **updates)


@contextmanager
def _config_key(*keys: str):
    """Re-raise a ValueError of the block as an error of the config ``keys``
    (``section.key``), which it names before its own message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{', '.join(keys)}: {exc}") from None


@dataclass
class ExperimentReport:
    """Everything one run produced: metadata, tables and a verdict."""

    config_echo: str
    integrator: str
    tables: dict = field(default_factory=dict)  # name -> (header, rows)
    trajectory: Optional[Trajectory] = None  # the long path, when it is dumped
    checks: List[Tuple[str, str, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    premises_verified: bool = True

    def add_table(self, name: str, rows) -> None:
        """Add the rows of the pipeline's table ``name`` under its header."""
        self.tables[name] = (_TABLES[name], rows)

    def add_check(self, name: str, passed: bool, detail: str, skipped: bool = False):
        status = "skip" if skipped else ("pass" if passed else "FLAG")
        self.checks.append((name, status, detail))

    @property
    def verdict(self) -> str:
        if not self.premises_verified:
            return "premises-unverified"
        if any(status == "FLAG" for _, status, _ in self.checks):
            return "flagged"
        return "pass"

    @property
    def exit_code(self) -> int:
        return {"premises-unverified": EXIT_PREMISES, "flagged": EXIT_FLAGGED,
                "pass": EXIT_OK}[self.verdict]

    def summary_text(self) -> str:
        lines = [
            f"nss-lab {__version__}",
            f"rng: {RNG_ALGORITHM}",
            f"integrator: {self.integrator}",
            "",
            "checks:",
        ]
        for name, status, detail in self.checks:
            lines.append(f"  [{status:>4}] {name}: {detail}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines += ["", f"verdict: {self.verdict}", "", "config echo:", self.config_echo]
        return "\n".join(lines)


def write_report(report: ExperimentReport, outdir) -> None:
    """Write ``report`` into ``outdir``, replacing the pipeline's files there: of
    the table CSVs and ``trajectory.csv``, those this report lacks are removed,
    so no output of an earlier run is left; no other file is touched."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    written = {*report.tables, *(["trajectory"] if report.trajectory is not None else [])}
    for name in {*_TABLES, "trajectory"} - written:
        (out / f"{name}.csv").unlink(missing_ok=True)
    for name, (header, rows) in report.tables.items():
        write_csv(out / f"{name}.csv", header, rows)
    if report.trajectory is not None:
        trajectory_to_csv(report.trajectory, out / "trajectory.csv")
    (out / "summary.txt").write_text(report.summary_text(), encoding="utf-8")
    (out / "config_echo.ini").write_text(report.config_echo, encoding="utf-8")


@dataclass(frozen=True)
class _Plan:
    """Every value the stages read, validated and derived before any runs."""

    levels: LevelPair
    grid: np.ndarray  # radii of the time-average distribution
    b_grid: List[float]  # b(r) on the grid
    q_list: List[float]  # q_k of each fractiles.k
    sim_cfg: SimConfig  # the long path
    ens_cfg: Optional[SimConfig]  # None when ensemble.n_paths = 0
    premise: tuple  # (states, times, gamma_times) of the dissipation check


def _check_series(spec: SystemSpec, sim_cfg: SimConfig, n_paths: int) -> None:
    """Refuse ``n_paths`` paths of ``sim_cfg`` whose saved series exceed the budget."""
    size = 8 * (spec.dim_state + 2) * sim_cfg.n_saved * n_paths
    if size > _SERIES_BYTES:
        raise ValueError(f"the saved series (states, V and norms) would take {size} bytes, "
                         f"above the budget of {_SERIES_BYTES} bytes")


def _plan(spec: SystemSpec, cfg: ExperimentConfig) -> _Plan:
    """Check ``cfg`` against ``spec``, naming the ``section.key`` at fault, and
    derive the plan; it simulates nothing and creates no file."""
    # a built-in name runs its own system, and a built-in system runs under its name
    if cfg.system in SYSTEMS and spec is not SYSTEMS[cfg.system]():
        raise ValueError(f"system.name: {cfg.system!r} names the built-in system, not this spec")
    if cfg.system not in SYSTEMS and any(spec is build() for build in SYSTEMS.values()):
        raise ValueError(f"system.name: unknown built-in system {cfg.system!r}, not one of "
                         f"{', '.join(SYSTEMS)}; custom systems are supplied through the "
                         "library API (run_custom)")
    for (section, key), (attr, _, _, rule) in _CONFIG_KEYS.items():
        value = getattr(cfg, attr)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ValueError(f"{section}.{key} must be finite, got {value!r}")
        if rule and not rule[0](value):
            raise ValueError(f"{section}.{key} must be {rule[1]}, got {value!r}")
    with _config_key("levels.v1"):
        v0 = cfg.v0 if cfg.v0 is not None else optimal_v0(cfg.v1, spec.c, spec.gamma_max)
    with _config_key("levels.v0", "levels.v1"):
        levels = LevelPair(v0=v0, v1=cfg.v1, c=spec.c, gamma_max=spec.gamma_max)
    bset = make_bound_set(levels, spec.lyapunov.alpha1, spec.lyapunov.alpha1_inv)
    if not cfg.r_max > cfg.r_min:
        raise ValueError(
            f"grid.r_max must exceed grid.r_min, got r_min={cfg.r_min!r}, "
            f"r_max={cfg.r_max!r}"
        )
    grid = _SPACINGS[cfg.r_spacing](cfg.r_min, cfg.r_max, cfg.r_count)
    b_grid = []
    for r in grid.tolist():
        keys = ["grid.r_min"] if r == cfg.r_min else ["grid.r_min", "grid.r_max", "grid.count"]
        with _config_key(*keys):
            b_grid.append(bset.b(r))
    with _config_key("fractiles.k"):
        q_list = [bset.q(k) for k in cfg.k_list]
    if len(cfg.x0) != spec.dim_state:
        raise ValueError(f"system.x0 must list {spec.dim_state} values, got {len(cfg.x0)}")
    with _config_key("sim.t_end", "sim.dt"):
        sim_cfg = SimConfig(t_end=cfg.t_end, dt=cfg.dt, seed=cfg.seed, x0=cfg.x0)
        _check_series(spec, sim_cfg, 1)
    ens_cfg = None
    if cfg.n_paths > 0:
        if not cfg.check_times:
            raise ValueError("ensemble.check_times must list at least one time")
        with _config_key("ensemble.check_times"):
            steps = [_whole_steps(t, cfg.dt) for t in cfg.check_times]
        if min(steps) < 1:  # t = 0 on the grid, where every path sits at x0
            raise ValueError(f"ensemble.check_times must be positive, got "
                             f"{min(cfg.check_times)!r}")
        max_threads()  # a bad NSS_LAB_THREADS fails here, not after the long path
        # save only the coarsest grid that holds every check time
        save_every = math.gcd(*steps)
        ens_cfg = SimConfig(t_end=max(cfg.check_times), dt=cfg.dt, seed=cfg.seed,
                            x0=cfg.x0, save_every=save_every)
        with _config_key("ensemble.n_paths", "ensemble.check_times"):
            _check_series(spec, ens_cfg, cfg.n_paths)
    out = Path(cfg.output_dir)
    while not out.exists():  # the nearest existing ancestor; write_report makes the rest
        out = out.parent
    if not out.is_dir():
        raise ValueError(f"output.dir: {out} is not a directory")
    # the premise sample: the box [-3, 3]^n, at times in [0, min(T, 2 pi)], T the
    # longer horizon of the long path and the ensemble
    n = spec.dim_state
    axes = [np.linspace(-3.0, 3.0, 7 if n <= 3 else 3)] * n
    states = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    t_hi = min(max(cfg.t_end, ens_cfg.t_end if ens_cfg else 0.0), 2.0 * math.pi)
    premise = (states, np.linspace(0.0, t_hi, 11), np.linspace(0.0, t_hi, 10_000))
    return _Plan(levels, grid, b_grid, q_list, sim_cfg, ens_cfg, premise)


def run_custom(spec: SystemSpec, cfg: ExperimentConfig) -> ExperimentReport:
    """Run the pipeline on a user-supplied system specification.

    Every check of the config runs in :func:`_plan`, before any stage.  Its
    ``system.name`` is a key of :data:`~nss_lab.model.SYSTEMS` exactly when
    ``spec`` is that entry's system, so a custom spec takes another name."""
    plan = _plan(spec, cfg)
    report = ExperimentReport(config_echo=cfg.echo_ini(),
                              integrator=integrator_name(spec))

    # stage: premises
    cond = check_enss(spec, *plan.premise)
    report.add_check(
        "dissipation-conditions",
        cond.passed,
        f"max residual {cond.max_violation:.6g} over {cond.points_checked} points, "
        f"gamma margin {cond.gamma_max_violation:.6g}",
    )
    report.premises_verified = cond.passed

    # stage: simulate
    traj = integrate(spec, plan.sim_cfg)
    if cfg.dump_trajectory:
        report.trajectory = traj

    if report.premises_verified:
        # one pass over the norms for the radius grid and the q_k
        fractions = empirical_time_average(traj, [*plan.grid, *plan.q_list])
        dist, occ = np.split(fractions, [len(plan.grid)])

        # stage: time-average distribution vs closed-form bound
        flags = dist < plan.b_grid
        report.add_table("distribution", np.column_stack([plan.grid, dist, plan.b_grid, flags]))
        report.add_check(
            "time-average-distribution",
            not flags.any(),
            f"D(r) >= b(r) at {np.count_nonzero(~flags)}/{len(flags)} grid points",
        )

        # stage: crossing-time bounds
        record = extract_loops(traj, v0=plan.levels.v0, v1=cfg.v1)
        ct = verify_cross_time_bounds(record, plan.levels, confidence=cfg.confidence)
        report.add_table("up_cross_survival", [astuple(r) for r in ct.up_rows])
        report.add_table("down_cross_survival", [astuple(r) for r in ct.down_rows])
        report.add_check(
            "cross-time-bounds", ct.passed,
            f"underpowered: only {record.complete_loops} complete loops" if ct.underpowered
            else f"{record.complete_loops} loops, {ct.n_flags} flags; "
                 f"mean up {ct.mean_up:.4g} vs t_uc {ct.t_uc:.4g}, "
                 f"mean down {ct.mean_down:.4g} vs t_dc {ct.t_dc:.4g}",
            skipped=ct.underpowered,
        )

        # stage: fractile occupancy
        flags = ~np.greater_equal(occ, cfg.k_list)
        report.add_table("occupancy", np.column_stack([cfg.k_list, plan.q_list, occ, flags]))
        report.add_check(
            "fractile-occupancy", not flags.any(),
            "; ".join(f"k={k:.4g}: {o:.4g} at q={q:.4g}"
                      for k, q, o in zip(cfg.k_list, plan.q_list, occ)),
        )
    else:
        report.notes.append("bound checks skipped: dissipation premises unverified")

    # stage: ensemble checks
    if plan.ens_cfg is None:
        report.notes.append("ensemble checks skipped: n_paths = 0")
    elif report.premises_verified:
        paths = ensemble(spec, plan.ens_cfg, cfg.n_paths)
        mom = verify_moment_bound(paths, spec, cfg.check_times)
        report.add_table("moment_bound", [astuple(r) for r in mom])
        flags = sum(r.flag for r in mom)
        report.add_check("moment-bound", flags == 0,
                         f"{len(mom)} times, {flags} flags at {_MOMENT_SES:g} standard errors")
        prob = verify_probability_bound(paths, spec, plan.grid, cfg.check_times,
                                        confidence=cfg.confidence)
        report.add_table("probability_bound", [(t, *astuple(r)) for t, t_rows
                                               in zip(cfg.check_times, prob) for r in t_rows])
        for t, t_rows in zip(cfg.check_times, prob):
            vacuous = sum(r.bound <= 0.0 for r in t_rows)
            if vacuous:
                report.notes.append(f"probability bound vacuous at t={t:g} "
                                    f"at {vacuous} of {len(t_rows)} radii")
        flags = sum(r.flag for t_rows in prob for r in t_rows)
        report.add_check("probability-bound", flags == 0,
                         f"{len(plan.grid)} radii at {len(prob)} times, {flags} flags")
    return report


def run_example(cfg: Optional[ExperimentConfig] = None) -> ExperimentReport:
    """Run the full pipeline on the built-in system that ``system.name`` names
    in :data:`~nss_lab.model.SYSTEMS`: ``example-2d`` (the default; ``system.x0``
    of 2 values), ``ou-1d`` or ``ou-1d-affine`` (1 value each).  Another name
    is refused by :func:`_plan`."""
    cfg = cfg or ExperimentConfig()
    return run_custom(SYSTEMS.get(cfg.system, builtin_example)(), cfg)


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.set or [])
    report = run_example(cfg)
    write_report(report, cfg.output_dir)
    print(report.summary_text())
    return report.exit_code


def _cmd_bounds(args) -> int:
    if args.optimal and args.v0 is not None:
        raise ValueError("provide --v0 or --optimal, not both")
    if args.optimal:
        v0 = optimal_v0(args.v1, args.c, args.gamma_max)
    elif args.v0 is not None:
        v0 = args.v0
    else:
        raise ValueError("provide --v0 or --optimal")
    levels = LevelPair(v0=v0, v1=args.v1, c=args.c, gamma_max=args.gamma_max)
    print(f"v0         = {v0:.12g}")
    print(f"beta       = {levels.beta:.12g}")
    print(f"beta_star  = {beta_star():.12g}")
    print(f"t_uc       = {expected_up_cross(levels):.12g}")
    print(f"t_dc       = {expected_down_cross(levels):.12g}")
    print(f"ratio_bound= {occupancy_ratio_bound(levels):.12g}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nss-lab",
        description="Simulate and statistically verify exponentially "
                    "noise-to-state stable stochastic systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--set", action="append", metavar="section.key=value")
    p_run.set_defaults(fn=_cmd_run)

    p_ex = sub.add_parser("example", help="run a built-in system: system.name is example-2d "
                          "(the default), ou-1d or ou-1d-affine; system.x0 defaults to "
                          "its origin")
    p_ex.add_argument("--set", action="append", metavar="section.key=value")
    p_ex.set_defaults(fn=_cmd_run, config=None)

    p_b = sub.add_parser("bounds", help="print closed-form crossing-time bounds")
    p_b.add_argument("--c", type=float, required=True)
    p_b.add_argument("--gamma-max", dest="gamma_max", type=float, required=True)
    p_b.add_argument("--v1", type=float, required=True)
    p_b.add_argument("--v0", type=float, default=None)
    p_b.add_argument("--optimal", action="store_true")
    p_b.set_defaults(fn=_cmd_bounds)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
