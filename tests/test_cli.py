import dataclasses
import inspect
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from nss_lab.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PREMISES,
    ExperimentConfig,
    _plan,
    load_config,
    main,
    run_custom,
    run_example,
    write_report,
)
from nss_lab.loops import verify_moment_bound
from nss_lab.model import SystemSpec, builtin_example, check_enss
from nss_lab.sim import SimConfig, ensemble, integrator_name, write_csv

from conftest import make_ou, quadratic_lyapunov

# small but statistically meaningful settings for fast pipeline runs
FAST_OVERRIDES = [
    "sim.t_end=40",
    "sim.dt=0.001",
    "grid.count=20",
]


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg == ExperimentConfig()
        assert cfg.v0 is None
        assert cfg.k_list == (1.0 / 3.0,)

    def test_file_and_overrides(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[sim]\nt_end = 100\nseed = 7\n"
            "[levels]\nv1 = 3.0\nv0 = 1.5\n"
            "[fractiles]\nk = 0.25, 0.5\n"
        )
        cfg = load_config(str(ini), ["sim.t_end=50", "levels.v0=optimal"])
        assert cfg.t_end == 50.0
        assert cfg.seed == 7
        assert cfg.v1 == 3.0
        assert cfg.v0 is None
        assert cfg.k_list == (0.25, 0.5)

    def test_unknown_key_rejected(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[sim]\nwarp = 9\n")
        with pytest.raises(ValueError):
            load_config(str(ini))

    def test_malformed_override_rejected(self):
        with pytest.raises(ValueError):
            load_config(None, ["t_end=50"])

    @pytest.mark.parametrize("word, value", [
        ("on", True), ("off", False), ("yes", True), ("no", False),
        ("true", True), ("false", False), ("1", True), ("0", False), ("True", True),
    ])
    def test_boolean_words(self, tmp_path, word, value):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[sim]\ndump_trajectory = {word}\n")
        assert load_config(str(ini)).dump_trajectory is value
        assert load_config(None, [f"sim.dump_trajectory={word}"]).dump_trajectory is value

    @pytest.mark.parametrize("section, key, raw", [
        ("sim", "dump_trajectory", "ture"),
        ("sim", "t_end", "abc"),
        ("grid", "count", "2.5"),
        ("fractiles", "k", "0.2,x"),
    ])
    def test_parse_error_names_the_key(self, tmp_path, section, key, raw):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{section}]\n{key} = {raw}\n")
        for args in ((str(ini),), (None, [f"{section}.{key}={raw}"])):
            with pytest.raises(ValueError, match=rf"\[{section}\] {key} = '{raw}'"):
                load_config(*args)

    def test_r_grid_spacing(self):
        log_grid = _plan(builtin_example(), ExperimentConfig(r_spacing="log")).grid
        lin_grid = _plan(builtin_example(), ExperimentConfig(r_spacing="linear")).grid
        assert np.allclose(np.diff(np.log(log_grid)), np.diff(np.log(log_grid))[0])
        assert np.allclose(np.diff(lin_grid), np.diff(lin_grid)[0])
        with pytest.raises(ValueError):
            _plan(builtin_example(), ExperimentConfig(r_spacing="cubic")).grid

    def test_echo_round_trips(self, tmp_path):
        # the second config sets every field off its default, so each key's
        # parser must read back what its formatter writes
        every = ExperimentConfig(
            system="custom", x0=(0.5, -0.25), t_end=50.0, dt=0.002, seed=9,
            dump_trajectory=True, v1=1.5, v0=1.2, r_min=1.1, r_max=8.0, r_count=7,
            r_spacing="linear", k_list=(0.25, 0.5), n_paths=1000, check_times=(1.0, 2.0),
            prob_radius=2.5, confidence=0.95, output_dir=str(tmp_path / "out"))
        assert all(getattr(every, f.name) != f.default
                   for f in dataclasses.fields(ExperimentConfig))
        for cfg in (ExperimentConfig(t_end=77.0, seed=3, v0=1.25, k_list=(0.2, 0.4)), every):
            ini = tmp_path / "echo.ini"
            ini.write_text(cfg.echo_ini())
            assert load_config(str(ini)) == cfg

    def test_readme_shows_the_default_echo(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        assert readme.split("```ini\n")[1].split("```")[0] == ExperimentConfig().echo_ini()


class TestPipeline:
    def test_example_passes(self, tmp_path):
        cfg = load_config(None, FAST_OVERRIDES + [f"output.dir={tmp_path}/out"])
        report = run_example(cfg)
        assert report.premises_verified
        assert report.exit_code == EXIT_OK
        assert report.verdict == "pass"
        assert "distribution" in report.tables
        assert "occupancy" in report.tables
        # short run has too few loops for the survival statistics
        statuses = {name: status for name, status, _ in report.checks}
        assert statuses["dissipation-conditions"] == "pass"
        assert statuses["time-average-distribution"] == "pass"
        write_report(report, tmp_path / "out")
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "distribution.csv").exists()
        assert (tmp_path / "out" / "config_echo.ini").read_text() == cfg.echo_ini()
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert summary[2] == f"integrator: {integrator_name(builtin_example())}"

    @pytest.mark.parametrize("t_end", [100.0, 200.0])
    def test_long_path_peak_is_its_series_and_a_constant(self, tmp_path, t_end):
        # every full-horizon pass works in fixed-size blocks, so the traced
        # peak of a run is the path's states, V and norms plus a constant,
        # whatever the horizon
        cfg = ExperimentConfig(t_end=t_end, output_dir=str(tmp_path))
        tracemalloc.start()
        try:
            run_custom(builtin_example(), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = 8 * (round(t_end / cfg.dt) + 1) * (builtin_example().dim_state + 2)
        assert peak - stored <= 1 << 20

    def test_custom_ou_pipeline(self, tmp_path):
        spec = make_ou()
        cfg = ExperimentConfig(
            system="ou", t_end=60.0, dt=1e-3, seed=5, x0=(0.0,), v1=1.0,
            r_min=0.75, r_max=6.0, r_count=20, n_paths=0,
            output_dir=str(tmp_path / "ou"),
        )
        report = run_custom(spec, cfg)
        assert report.premises_verified
        assert report.integrator == integrator_name(spec) != integrator_name(builtin_example())
        rows = report.tables["distribution"][1]
        assert all(not flag for *_cols, flag in rows)  # D(r) >= b(r) everywhere

    def test_premise_failure_gates_bounds(self, tmp_path):
        anti = SystemSpec(
            dim_state=1, dim_noise=1,
            drift=lambda x: np.asarray(x, dtype=float),
            diffusion=lambda x: np.zeros(np.shape(x)[:-1] + (1, 1)),
            covariance=lambda t: np.zeros(np.shape(t) + (1, 1)),
            lyapunov=quadratic_lyapunov(1),
            c=1.0, gamma=lambda s: 0.0, gamma_max=0.0,
            vectorized=True,
        )
        cfg = ExperimentConfig(system="anti-stable", t_end=0.5, dt=1e-2,
                               seed=1, x0=(0.1,), v1=1.0, v0=0.5,
                               output_dir=str(tmp_path / "anti"))
        report = run_custom(anti, cfg)
        assert not report.premises_verified
        assert report.exit_code == EXIT_PREMISES
        assert report.verdict == "premises-unverified"
        assert "distribution" not in report.tables
        assert any("skipped" in note for note in report.notes)

    def test_premise_check_reads_the_simulated_affine_system(self):
        # a scaled affine declaration is checked on its own maps, so its
        # premise failure for large |x| is seen
        base = builtin_example()
        a, h0, h = base.affine
        scaled = (0.2 * a, 1.5 * h0, h)
        report = run_custom(dataclasses.replace(base, affine=scaled),
                            ExperimentConfig(system="scaled-affine"))
        assert report.verdict == "premises-unverified"
        assert report.exit_code == EXIT_PREMISES
        assert report.checks == [(
            "dissipation-conditions", "FLAG",
            "max residual 10.4653 over 539 points, gamma margin -1.23395e-08",
        )]
        # the old description: the scaled matrices beside the original maps
        drift, diffusion = base.dynamics
        with pytest.raises(ValueError, match="not affine and drift and diffusion"):
            dataclasses.replace(base, affine=scaled, drift=drift, diffusion=diffusion)

    def test_premise_check_reads_the_plan(self, monkeypatch):
        import nss_lab.cli as cli

        plans, calls = [], []
        monkeypatch.setattr(cli, "_plan", lambda *a: plans.append(_plan(*a)) or plans[-1])

        def spy(*args, **kwargs):
            calls.append(inspect.signature(check_enss).bind(*args, **kwargs).arguments)
            return check_enss(*args, **kwargs)

        monkeypatch.setattr(cli, "check_enss", spy)
        run_custom(builtin_example(), ExperimentConfig(t_end=2.0))
        (plan,), (args,) = plans, calls
        sample = (args["states"], args["times"], args["gamma_times"])
        assert len(plan.premise) == 3
        assert all(got is want for got, want in zip(sample, plan.premise))

    def test_ensemble_stage(self, tmp_path):
        cfg = load_config(None, FAST_OVERRIDES + [
            "ensemble.n_paths=1000",
            "ensemble.check_times=0.5,1.0",
            f"output.dir={tmp_path}/ens",
        ])
        report = run_example(cfg)
        assert "moment_bound" in report.tables
        assert "probability_bound" in report.tables
        assert report.exit_code == EXIT_OK

    def test_ensemble_saves_only_the_check_time_grid(self, tmp_path, monkeypatch):
        import nss_lab.cli as cli

        saved = []

        def spy(spec, cfg, n_paths):
            paths = ensemble(spec, cfg, n_paths)
            saved.append(paths.lyap.shape[1])
            return paths

        monkeypatch.setattr(cli, "ensemble", spy)
        cfg = load_config(None, ["sim.t_end=20", "ensemble.n_paths=1000",
                                 f"output.dir={tmp_path}/ens"])
        assert run_example(cfg).exit_code == EXIT_OK
        assert saved == [11]  # t = 0, 0.5, ..., 5: the gcd grid of 1, 2.5 and 5

    def test_check_times_need_only_the_dt_grid(self, tmp_path):
        # 0.25 and 1.05 share no 0.1 s grid; the ensemble saves every 0.05 s
        cfg = load_config(None, ["sim.t_end=2", "ensemble.n_paths=1000",
                                 "ensemble.check_times=0.25,1.05",
                                 f"output.dir={tmp_path}/ens"])
        report = run_example(cfg)
        write_report(report, tmp_path / "ens")
        spec = builtin_example()
        every_step = ensemble(spec, SimConfig(t_end=1.05, dt=cfg.dt, seed=cfg.seed,
                                              x0=cfg.x0), cfg.n_paths)
        mom = verify_moment_bound(every_step, spec, cfg.check_times)
        header = report.tables["moment_bound"][0]
        write_csv(tmp_path / "every_step.csv", header, [astuple(r) for r in mom.rows])
        assert ((tmp_path / "ens" / "moment_bound.csv").read_text()
                == (tmp_path / "every_step.csv").read_text())

    def test_write_report_is_the_only_writer(self, tmp_path):
        out = tmp_path / "files"
        cfg = load_config(None, FAST_OVERRIDES + [
            "sim.dump_trajectory=true", "ensemble.n_paths=1000",
            "ensemble.check_times=0.5,1.0", f"output.dir={out}",
        ])
        report = run_example(cfg)
        assert not out.exists()
        write_report(report, out)
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == sorted([*(f"{t}.csv" for t in report.tables), "trajectory.csv"])
        for name in names:
            header, *lines = (out / name).read_text().splitlines()
            cols = header.split(",")
            for line in lines:
                cells = [float(c) for c in line.split(",")]
                assert len(cells) == len(cols), name
                for col, cell in zip(cols, cells):
                    if col in ("flag", "vacuous"):
                        assert cell in (0.0, 1.0), (name, line)
        assert (out / "distribution.csv").read_text().splitlines()[1].endswith(",0")

    def test_n_paths_zero_noted(self, tmp_path):
        cfg = load_config(None, FAST_OVERRIDES + [f"output.dir={tmp_path}/o"])
        report = run_example(cfg)
        assert any("n_paths = 0" in note for note in report.notes)


class TestCommandLine:
    def test_example_command_and_determinism(self, tmp_path, capsys):
        args = ["example"] + [f"--set={o}" for o in FAST_OVERRIDES]
        code_a = main(args + [f"--set=output.dir={tmp_path}/a"])
        code_b = main(args + [f"--set=output.dir={tmp_path}/b"])
        assert code_a == code_b == EXIT_OK
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in files_a:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            if name in ("config_echo.ini", "summary.txt"):
                # the echo records the differing output directories
                a = a.replace(b"/a", b"").replace(b"/b", b"")
                b = b.replace(b"/a", b"").replace(b"/b", b"")
            assert a == b
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_run_command_with_config(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text(
            "[sim]\nt_end = 40\ndt = 0.001\n[grid]\ncount = 20\n"
            f"[output]\ndir = {tmp_path}/run-out\n"
        )
        assert main(["run", "--config", str(ini)]) == EXIT_OK
        assert (tmp_path / "run-out" / "summary.txt").exists()

    def test_dump_trajectory(self, tmp_path):
        args = ["example", "--set=sim.t_end=2", "--set=sim.dt=0.01",
                "--set=grid.count=5", "--set=sim.dump_trajectory=true",
                f"--set=output.dir={tmp_path}/dump"]
        assert main(args) == EXIT_OK
        csv = (tmp_path / "dump" / "trajectory.csv").read_text().splitlines()
        assert csv[0] == "t,x1,x2,V,norm"
        assert len(csv) == 202

    def test_bounds_command(self, capsys):
        assert main(["bounds", "--c", "1", "--gamma-max", "0.5",
                     "--v1", "2", "--v0", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        vals = {line.split("=")[0].strip(): float(line.split("=")[1])
                for line in out.strip().splitlines()}
        assert vals["t_uc"] == pytest.approx((1.0 / 1.5) * math.log(4.0), rel=1e-9)
        assert vals["t_dc"] == pytest.approx(1.0 + math.log(3.0), rel=1e-9)
        assert vals["ratio_bound"] == pytest.approx(
            vals["t_uc"] / (vals["t_uc"] + vals["t_dc"]), rel=1e-9
        )

    def test_bounds_optimal(self, capsys):
        assert main(["bounds", "--c", "1", "--gamma-max", "0.5",
                     "--v1", "2", "--optimal"]) == EXIT_OK
        out = capsys.readouterr().out
        vals = {line.split("=")[0].strip(): float(line.split("=")[1])
                for line in out.strip().splitlines()}
        assert vals["beta"] == pytest.approx(vals["beta_star"], rel=1e-12)

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.ini")]) == EXIT_ERROR
        assert main(["bounds", "--c", "1", "--gamma-max", "0.5",
                     "--v1", "2"]) == EXIT_ERROR  # neither --v0 nor --optimal
        assert main(["example", "--set=levels.v1=0.1"]) == EXIT_ERROR  # below floor
        assert main(["example", "--set=ensemble.n_paths=10",
                     "--set=ensemble.check_times=2.0005"]) == EXIT_ERROR  # half a step
        for bad in ("stats.confidence=1.5", "stats.confidence=0", "ensemble.n_paths=-5",
                    "grid.count=0"):
            assert main(["example", "--set=sim.t_end=20", f"--set={bad}",
                         f"--set=output.dir={tmp_path}/bad"]) == EXIT_ERROR, bad
        err = capsys.readouterr().err
        assert "error:" in err

    def test_bad_config_fails_before_simulating(self, tmp_path, monkeypatch):
        import nss_lab.cli as cli

        calls = []

        def no_simulation(*args, **kwargs):
            calls.append(args)
            raise AssertionError("simulated despite a bad config")

        monkeypatch.setattr(cli, "integrate", no_simulation)
        monkeypatch.setattr(cli, "ensemble", no_simulation)
        ens = ["ensemble.n_paths=1000"]
        for bad in (["stats.confidence=1.5"], ["stats.confidence=0"],
                    ["ensemble.n_paths=10"], ["ensemble.n_paths=-1"],
                    ens + ["ensemble.check_times=1.0005,5"],
                    ens + ["ensemble.prob_radius=0"], ens + ["ensemble.prob_radius=1e-300"],
                    ["fractiles.k=1.5"], ["fractiles.k=0"],
                    ["grid.r_min=0", "grid.spacing=linear"],
                    ["grid.r_min=10", "grid.r_max=1.05"], ["grid.r_max=1.05"],
                    ["grid.count=0"], ["grid.count=-3"], ["system.x0=0,0,0"],
                    ["grid.r_min=-1"], ["grid.r_min=-1", "grid.spacing=linear"],
                    ens + ["ensemble.prob_radius=nan"], ["grid.r_max=inf"],
                    ens + ["ensemble.check_times=nan"], ens + ["ensemble.check_times=inf"],
                    ["sim.t_end=inf"], ["system.x0=nan,0"]):
            argv = ["example", "--set=sim.t_end=20", f"--set=output.dir={tmp_path}/x"]
            assert main(argv + [f"--set={b}" for b in bad]) == EXIT_ERROR, bad
            assert calls == [], bad

    @pytest.mark.parametrize("sets, threads, message", [
        (["fractiles.k="], None, "fractiles.k"),
        (["ensemble.n_paths=1000", "ensemble.check_times="], None, "ensemble.check_times"),
        (["sim.seed=-1"], None, "sim.seed"),
        (["ensemble.n_paths=1000"], "two", "NSS_LAB_THREADS"),
        (["system.x0=0,0,0"], None, "system.x0"),
        (["grid.r_min=-1"], None, "grid.r_min"),
        (["grid.r_min=0", "grid.spacing=linear"], None, "grid.r_min"),
        (["fractiles.k=1.5"], None, "fractiles.k"),
        (["fractiles.k=0.5,0"], None, "fractiles.k"),
        (["ensemble.n_paths=1000", "ensemble.check_times=-1"], None, "ensemble.check_times"),
        (["ensemble.n_paths=1000", "ensemble.check_times=-1,5"], None, "ensemble.check_times"),
        (["ensemble.n_paths=1000", "ensemble.check_times=0"], None, "ensemble.check_times"),
        (["ensemble.n_paths=1000", "ensemble.check_times=1.0005,5"], None,
         "ensemble.check_times"),
        (["ensemble.n_paths=1000", "ensemble.check_times=5.0005"], None,
         "ensemble.check_times"),
        (["stats.confidence=1.5"], None, "stats.confidence: confidence must lie in (0, 1)"),
        (["grid.spacing=cubic"], None, "grid.spacing must be 'log' or 'linear', got 'cubic'"),
        (["levels.v1=0.1"], None, "levels.v1: v1=0.1 must exceed the noise floor"),
        (["levels.v0=3"], None, "levels.v0, levels.v1: levels must satisfy"),
        (["sim.t_end=0.0015"], None, "sim.t_end, sim.dt: t_end=0.0015 is not a whole number"),
        (["sim.dt=0"], None, "sim.t_end, sim.dt: need 0 < dt <= t_end, got dt=0.0"),
        (["ensemble.n_paths=1000", "ensemble.prob_radius=nan"], None,
         "ensemble.prob_radius must be finite, got nan"),
        (["grid.r_max=inf"], None, "grid.r_max must be finite, got inf"),
        (["ensemble.n_paths=1000", "ensemble.check_times=nan"], None,
         "ensemble.check_times must be finite, got (nan,)"),
        (["ensemble.n_paths=1000", "ensemble.check_times=inf"], None,
         "ensemble.check_times must be finite, got (inf,)"),
        (["sim.t_end=inf"], None, "sim.t_end must be finite, got inf"),
        (["system.x0=nan,0"], None, "system.x0 must be finite, got (nan, 0.0)"),
        (["grid.r_min=1e-300"], None, "grid.r_min: alpha1(1e-300) = 0.0 is not positive"),
        ([f"output.dir={__file__}/out"], None, f"output.dir: {__file__} is not a directory"),
        (["system.name=warp-drive"], None,
         "system.name: unknown built-in system 'warp-drive'"),
        (["ensemble.n_paths=1000", "ensemble.prob_radius=1e-300"], None,
         "ensemble.prob_radius: alpha1(1e-300) = 0.0 is not positive"),
    ])
    def test_validate_names_the_key(self, tmp_path, monkeypatch, capsys,
                                    sets, threads, message):
        import nss_lab.cli as cli

        calls = []
        monkeypatch.setattr(cli, "check_enss", lambda *a, **k: calls.append("check_enss"))
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append("integrate"))
        if threads is not None:
            monkeypatch.setenv("NSS_LAB_THREADS", threads)
        argv = ["example", "--set=sim.t_end=20", f"--set=output.dir={tmp_path}/x"]
        assert main(argv + [f"--set={s}" for s in sets]) == EXIT_ERROR
        assert calls == []
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_system_name_matches_the_spec(self, monkeypatch):
        # a custom spec echoed as example-2d would rerun the built-in system
        import nss_lab.cli as cli

        calls = []
        monkeypatch.setattr(cli, "check_enss", lambda *a, **k: calls.append("check_enss"))
        monkeypatch.setattr(cli, "integrate", lambda *a, **k: calls.append("integrate"))
        custom = dataclasses.replace(builtin_example(), c=2.0)
        with pytest.raises(ValueError, match=r"^system\.name: 'example-2d' names the built-in "
                                             r"system, not this spec$"):
            run_custom(custom, ExperimentConfig())
        with pytest.raises(ValueError, match=r"^system\.name: unknown built-in system 'ou'"):
            run_custom(builtin_example(), ExperimentConfig(system="ou"))
        assert calls == []

    def test_all_paths_inside_a_huge_radius_pass(self, tmp_path, capsys):
        # every path lies inside r = 1e8, so the upper Wilson limit is exactly 1
        # and cannot fall below a floor that rounds to 1
        argv = ["example", "--set=sim.t_end=5", "--set=ensemble.n_paths=1000",
                "--set=ensemble.prob_radius=1e8", f"--set=output.dir={tmp_path}/x"]
        assert main(argv) == EXIT_OK
        assert "[pass] probability-bound" in capsys.readouterr().out

    def test_radii_where_alpha1_overflows_get_the_limit_bound(self, tmp_path, capsys):
        # alpha1(r) = r^2/2 is inf above r of about 1.3e154; b(r) is then 1
        out = tmp_path / "x"
        argv = ["example", "--set=sim.t_end=2", "--set=grid.r_max=1e200",
                f"--set=output.dir={out}"]
        assert main(argv) == EXIT_OK
        assert "[pass] time-average-distribution" in capsys.readouterr().out
        header, *lines = (out / "distribution.csv").read_text().splitlines()
        col = header.split(",").index("b_bound")
        bounds = [float(line.split(",")[col]) for line in lines]
        assert not any(math.isnan(b) for b in bounds)
        assert bounds[-1] == 1.0

    def test_fractile_near_one_gets_the_limit_radius(self, tmp_path, capsys):
        # q_k overflows for k above about 0.9956, and every path lies inside q = inf
        argv = ["example", "--set=sim.t_end=2", "--set=fractiles.k=0.996",
                f"--set=output.dir={tmp_path}/x"]
        assert main(argv) == EXIT_OK
        assert "[pass] fractile-occupancy: k=0.996: 1 at q=inf" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "nss_lab.cli", "example", "--set=sim.t_end=2",
                f"--set=output.dir={tmp_path}/module"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_OK, done.stderr
        assert (tmp_path / "module" / "summary.txt").exists()

    def test_blow_up_prints_one_error_line(self, tmp_path):
        # the kernels overflow before the state turns non-finite; the step
        # where it does is the one report, with no numpy warning before it
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "nss_lab.cli", "example", "--set=sim.t_end=2000",
                "--set=sim.dt=2", f"--set=output.dir={tmp_path}/blow"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_ERROR
        assert done.stderr == ("error: non-finite state, V or norm first recorded at step "
                               "440 (t=880, path 0); aborting instead of clamping\n")

    def test_unknown_system_rejected(self, tmp_path, capsys):
        args = ["example", "--set=system.name=warp-drive",
                f"--set=output.dir={tmp_path}/x"]
        assert main(args) == EXIT_ERROR
