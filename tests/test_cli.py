import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nss_lab.cli import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_PREMISES,
    ExperimentConfig,
    load_config,
    main,
    run_custom,
    run_example,
    write_report,
)
from nss_lab.model import SystemSpec, builtin_example
from nss_lab.sim import integrator_name

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
        log_grid = ExperimentConfig(r_spacing="log").r_grid()
        lin_grid = ExperimentConfig(r_spacing="linear").r_grid()
        assert np.allclose(np.diff(np.log(log_grid)), np.diff(np.log(log_grid))[0])
        assert np.allclose(np.diff(lin_grid), np.diff(lin_grid)[0])
        with pytest.raises(ValueError):
            ExperimentConfig(r_spacing="cubic").r_grid()

    def test_echo_round_trips(self, tmp_path):
        cfg = ExperimentConfig(t_end=77.0, seed=3, v0=1.25, k_list=(0.2, 0.4))
        ini = tmp_path / "echo.ini"
        ini.write_text(cfg.echo_ini())
        assert load_config(str(ini)) == cfg


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
            vectorized=True, name="anti-stable",
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
                    ens + ["ensemble.check_times=1.05,5"],
                    ens + ["ensemble.prob_radius=0"],
                    ["fractiles.k=1.5"], ["fractiles.k=0"],
                    ["grid.r_min=0", "grid.spacing=linear"],
                    ["grid.r_min=10", "grid.r_max=1.05"], ["grid.r_max=1.05"],
                    ["grid.count=0"], ["grid.count=-3"], ["system.x0=0,0,0"]):
            argv = ["example", "--set=sim.t_end=20", f"--set=output.dir={tmp_path}/x"]
            assert main(argv + [f"--set={b}" for b in bad]) == EXIT_ERROR, bad
            assert calls == [], bad

    @pytest.mark.parametrize("sets, threads, message", [
        (["fractiles.k="], None, "fractiles.k"),
        (["ensemble.n_paths=1000", "ensemble.check_times="], None, "ensemble.check_times"),
        (["sim.seed=-1"], None, "sim.seed"),
        (["ensemble.n_paths=1000"], "two", "NSS_LAB_THREADS"),
        (["system.x0=0,0,0"], None, "system.x0"),
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

    def test_module_entry_point(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        argv = [sys.executable, "-m", "nss_lab.cli", "example", "--set=sim.t_end=2",
                f"--set=output.dir={tmp_path}/module"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_OK, done.stderr
        assert (tmp_path / "module" / "summary.txt").exists()

    def test_unknown_system_rejected(self, tmp_path, capsys):
        args = ["example", "--set=system.name=warp-drive",
                f"--set=output.dir={tmp_path}/x"]
        assert main(args) == EXIT_ERROR
