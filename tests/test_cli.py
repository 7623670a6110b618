import concurrent.futures
import copy
import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rate_oracle import channel_rates
from zprainbow.cli import (EXIT_CONFIG, EXIT_NO_SOLUTION, EXIT_OK,
                           EXIT_STATISTICAL, _BLOCK_ROWS, _csv_lines, _fmt,
                           build_parser, default_config_path,
                           forced_angle_report, load_config, main,
                           physical_ratio_report, write_table)
from zprainbow.coupling import apply, integrate_three_wave
from zprainbow.detection import DetectorSpec, down_ratios, up_ratios
from zprainbow.errors import ConfigError, DomainError, NoSolutionError
from zprainbow.rainbow import (DEFAULT_TRIALS, Couplings, pdc_system,
                               puc_system, sweep)
from zprainbow import cli, digits, zpf
from zprainbow.zpf import TRIAL_BLOCK, sample_vacuum


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, name="cfg.json", **overrides):
    with open(default_config_path()) as fh:
        raw = json.load(fh)
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            raw[section][field] = value
        else:
            raw[section] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


class TestConfigLoading:
    def test_default_config_loads(self, config):
        assert config.crystal.pump_wavelength_nm == 400.0
        assert config.engine in ("covariance", "montecarlo")
        assert config.sweep_band[0] < config.sweep_band[1]

    def test_workers_default_to_usable_cpus(self, config, tmp_path):
        assert config.workers == len(os.sched_getaffinity(0))
        assert load_config(write_config(tmp_path, workers=1)).workers == 1

    def test_unset_keys_take_the_library_defaults(self, tmp_path):
        path = write_config(tmp_path, detector={}, couplings={})
        with open(path) as fh:
            raw = json.load(fh)
        del raw["trials"]
        with open(path, "w") as fh:
            json.dump(raw, fh)
        cfg = load_config(path)
        assert cfg.detector == DetectorSpec()
        assert cfg.couplings == Couplings()
        assert cfg.trials == DEFAULT_TRIALS

    def test_reference_schema_and_shipped_config_name_the_same_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = readme.split("| key | type | default | allowed | flag |\n")[1]
        documented = []
        for line in rows.splitlines()[1:]:
            if not line.startswith("|"):
                break
            documented.append(line.split("|")[1].strip())
        schema = [key.key for key in cli._SCHEMA]
        assert documented == schema
        shipped = {name for name, value in SHIPPED.items()
                   if not isinstance(value, dict)} | {
            f"{name}.{key}" for name, value in SHIPPED.items()
            if isinstance(value, dict) for key in value}
        # workers defaults to the CPUs of the machine that runs the command
        assert shipped == set(schema) - {"workers"}

    def test_field_diagnostics(self, tmp_path):
        path = write_config(tmp_path, **{"detector.efficiency": 1.5})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "detector" in str(err.value)

    @pytest.mark.parametrize("key,value", [
        ("engine", "exact"),
        ("sweep.steps", 1),
        ("sweep.omega_min", 0.7),
        ("crystal.length_mm", -1.0),
        ("crystal.gain_per_mm", -0.5),
        ("output.format", "xml"),
        ("trials", 0),
        ("couplings", "auto"),
    ])
    def test_invalid_fields_rejected(self, tmp_path, key, value):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("name,value,field", [
        ("engine", "covarience", "engine"),
        ("output_format", "xml", "output.format"),
    ])
    def test_replace_rejects_unknown_choice(self, config, name, value, field):
        # a setting changed after loading is checked like the config key
        with pytest.raises(ConfigError) as err:
            replace(config, **{name: value})
        assert err.value.field == field
        assert str(err.value).startswith(f"{field}: unknown ")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("key,value", [
        ("detector", {"treshold": 0.6}),
        ("crystal.gain_per_mmm", 1.0),
        ("couplings.g_dwn", 0.5),
        ("couplings.g_down", 0.5),
        ("output.fromat", "csv"),
        ("n_steps", 100),
    ])
    def test_unknown_key_rejected(self, tmp_path, key, value):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "unknown key" in str(err.value)


class TestExitCodes:
    def test_config_error_exit(self, tmp_path):
        path = write_config(tmp_path, **{"detector.window_samples": 0})
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, "angles", "--output", out]) == EXIT_CONFIG

    def test_band_error_exit(self, tmp_path):
        path = write_config(tmp_path, **{
            "sweep.omega_min": 0.601, "sweep.omega_max": 0.607,
            "sweep.steps": 3})
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, "angles", "--output", out]) \
            == EXIT_NO_SOLUTION

    def test_misspelt_key_exit(self, tmp_path):
        path = write_config(tmp_path, detector={"treshold": 0.6})
        out = str(tmp_path / "rb.csv")
        assert main(["--config", path, "rainbow", "--engine", "covariance",
                     "--output", out]) == EXIT_CONFIG
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["angles"], ["rainbow", "--engine", "covariance"]],
        ids=["angles", "rainbow"])
    def test_band_narrower_than_steps_exit(self, tmp_path, capsys, argv):
        # one ulp of band cannot hold three distinct frequencies
        path = write_config(tmp_path, **{
            "sweep.omega_min": 0.5, "sweep.omega_max": 0.5000000000000001,
            "sweep.steps": 3})
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, *argv, "--output", out]) \
            == EXIT_CONFIG
        assert "sweep.steps" in capsys.readouterr().err
        assert not os.path.exists(out)

    # 10**15 steps fit in the band but not in memory; 10**30 are more than
    # the band's 1.8e15 floats
    @pytest.mark.parametrize("steps", [10 ** 15, 10 ** 30])
    @pytest.mark.parametrize("argv", [
        ["angles"], ["rainbow", "--engine", "covariance"]],
        ids=["angles", "rainbow"])
    def test_steps_beyond_memory_exit(self, tmp_path, capsys, argv, steps):
        path = write_config(tmp_path, **{"sweep.steps": steps})
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, *argv, "--output", out]) \
            == EXIT_CONFIG
        assert "sweep.steps" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ["ratios", "--engine", "covariance", "--omega", "0.3"],
        ["simulate", "--omega", "0.9", "--trials", "100"],
    ])
    def test_outside_transparency_window_exit(self, tmp_path, argv):
        out = str(tmp_path / "x.csv")
        assert main(argv + ["--output", out]) == EXIT_NO_SOLUTION
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["ratios", "simulate"])
    def test_outside_window_message_is_short(self, tmp_path, capsys,
                                             command):
        # omega 1e-300 puts the input wave at 4e+299 um
        out = str(tmp_path / "x.csv")
        assert main([command, "--omega", "1e-300", "--trials", "100",
                     "--output", out]) == EXIT_NO_SOLUTION
        assert "4e+299 um outside window" in capsys.readouterr().err

    # a directory that does not exist, one that is the output, and no
    # name at all; each is refused before a simulate row is made
    @pytest.mark.parametrize("name", ["missing/x.csv", "existing", ""],
                             ids=["missing-dir", "directory", "empty"])
    @pytest.mark.parametrize("argv", [
        ["angles"],
        ["simulate", "--trials", str(_BLOCK_ROWS + 1), "--workers", "2"]],
        ids=["angles", "simulate"])
    def test_unwritable_output_exit(self, tmp_path, monkeypatch, capsys,
                                    argv, name):
        # "" lies in the working directory's parent, tmp_path
        (tmp_path / "work" / "existing").mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "work")
        tables = []
        monkeypatch.setattr(cli, "_write_columns",
                            lambda *args: tables.append(args[3]))
        assert main([*argv, "--output", name]) == EXIT_CONFIG
        assert "output.path" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        assert tables == []

    @pytest.mark.parametrize("key,value", [
        ("crystal.window_um", [1.0]),
        ("crystal.window_um", [[0.2, 1.0]]),
        ("crystal.gain_per_mm", math.nan),
        ("crystal.length_mm", math.inf),
        ("detector.efficiency", 10 ** 400),
    ])
    def test_malformed_value_exit(self, tmp_path, key, value):
        path = write_config(tmp_path, **{key: value})
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, "angles", "--output", out]) \
            == EXIT_CONFIG

    @pytest.mark.parametrize("argv,columns", [
        (["ratios"], ["eq1_ratio"]),
        (["rainbow"], ["eq1_ratio", "eq2_ratio"]),
        (["ratios", "--theta-low-deg", "10", "--theta-high-deg", "12"],
         ["rate_ratio"]),
    ], ids=["ratios", "rainbow", "forced"])
    def test_zero_gain_ratio_absent(self, tmp_path, argv, columns):
        # nothing rises above the zeropoint, so every ratio is undefined,
        # an empty cell, not a crash
        path = write_config(tmp_path, **{"crystal.gain_per_mm": 0.0})
        out = str(tmp_path / "r.csv")
        assert main(["--config", path, *argv, "--engine", "covariance",
                     "--output", out]) == EXIT_OK
        rows = read_csv(out)
        assert rows
        for row in rows:
            assert [row[c] for c in columns] == [""] * len(columns)

    def test_ratios_absent_where_sweep_is(self, tmp_path):
        # with the window edge at 0.27 um the w0 + w wave of the upper band
        # is absorbed: ratios must exit 3 exactly where the sweep point is
        # absent and read its up-conversion fields absent where the
        # satellite is
        path = write_config(tmp_path, **{"crystal.window_um": [0.27, 1.02]})
        table = str(tmp_path / "rb.csv")
        assert main(["--config", path, "rainbow", "--engine", "covariance",
                     "--output", table]) == EXIT_OK
        rows = read_csv(table)
        assert {bool(r["theta_d_ext"]) for r in rows} == {True, False}
        for row in rows:
            out = str(tmp_path / "r.csv")
            code = main(["--config", path, "ratios", "--engine", "covariance",
                         f"--omega={row['omega']}", "--output", out])
            if not row["theta_d_ext"]:
                assert code == EXIT_NO_SOLUTION
                continue
            assert code == EXIT_OK
            report = read_csv(out)[0]
            assert bool(report["upper_above_zeropoint"]) \
                == bool(row["theta_u_ext"])

    @pytest.mark.parametrize("key,value,field", [
        ("crystal.gain_per_mm", 2e4, "crystal.gain_per_mm"),
        ("crystal.gain_per_mm", 1e300, "crystal.gain_per_mm"),
    ])
    @pytest.mark.parametrize("forced", [
        [], ["--theta-low-deg", "10", "--theta-high-deg", "12"]])
    def test_gain_length_beyond_float_range_exit(self, tmp_path, capsys, key,
                                                 value, field, forced):
        path = write_config(tmp_path, **{key: value})
        out = str(tmp_path / "r.csv")
        assert main(["--config", path, "ratios", "--engine", "covariance",
                     *forced, "--output", out]) == EXIT_CONFIG
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,argv,field", [
        ({"seed": -1}, ["rainbow", "--engine", "covariance"], "seed"),
        ({"seed": -1}, ["rainbow", "--trials", "1000"], "seed"),
        ({"seed": -1}, ["simulate", "--trials", "100"], "seed"),
        ({"seed": -1}, ["darkrate", "--trials", "1000"], "seed"),
        ({"seed": -1}, ["ratios", "--engine", "montecarlo",
                        "--trials", "1000"], "seed"),
        ({}, ["rainbow", "--engine", "covariance", "--seed", "-1"], "seed"),
        ({}, ["rainbow", "--engine", "covariance", "--trials", "0"],
         "trials"),
        ({}, ["simulate", "--trials", "100", "--workers", "0"], "workers"),
        ({"ratios.trials": 0}, ["ratios", "--engine", "covariance"],
         "ratios.trials"),
    ])
    def test_run_setting_out_of_range_exit(self, tmp_path, capsys, overrides,
                                           argv, field):
        path = write_config(tmp_path, **overrides)
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, *argv, "--output", out]) \
            == EXIT_CONFIG
        assert f"config error: {field}: must be >= " in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field,value", [
        ("trials", "x"), ("seed", 1.5), ("workers", "2")])
    def test_top_level_field_path_has_no_leading_dot(self, tmp_path, capsys,
                                                     field, value):
        path = write_config(tmp_path, **{field: value})
        out = str(tmp_path / "x.csv")
        assert main(["--config", path, "angles", "--output", out]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize("argv,message", [
        (["ratios", "--engine", "covariance", "--omega=nan"],
         "ratios.omega: must lie in (0, 1)"),
        (["ratios", "--engine", "covariance", "--omega", "1.5"],
         "ratios.omega: must lie in (0, 1)"),
        (["ratios", "--engine", "covariance", "--omega", "0"],
         "ratios.omega: must lie in (0, 1)"),
        (["simulate", "--trials", "100", "--omega=nan"],
         "ratios.omega: must lie in (0, 1)"),
        (["darkrate", "--trials", "1000", "--windows", "0"],
         "darkrate.windows: must be integers >= 1"),
    ], ids=["ratios-nan", "ratios-1.5", "ratios-0", "simulate-nan",
            "darkrate-0"])
    def test_flag_out_of_range_exit(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "x.csv")
        assert main([*argv, "--output", out]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv,flag,key,value", [
        (["ratios", "--engine", "covariance"], ["--omega", "0.52"],
         "ratios.omega", 0.52),
        (["darkrate", "--trials", "2000"], ["--windows", "1", "10"],
         "darkrate.windows", [1, 10]),
    ], ids=["omega", "windows"])
    def test_flag_matches_config(self, tmp_path, argv, flag, key, value):
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "cfg.csv"
        assert main([*argv, *flag, "--output", str(by_flag)]) == EXIT_OK
        path = write_config(tmp_path, **{key: value})
        assert main(["--config", path, *argv,
                     "--output", str(by_config)]) == EXIT_OK
        with open(by_flag, "rb") as a, open(by_config, "rb") as b:
            assert a.read() == b.read()

    @pytest.mark.parametrize("length_mm",
                             [1e30, 1e40, 1e60, 1e100, 1e200, 1e300, 1e308])
    def test_zero_gain_length_beyond_phase_range_exit(self, tmp_path, capsys,
                                                      length_mm):
        # gL = 0 passes the gain check, but the mismatch phase over the
        # crystal has no significant bit left
        path = write_config(tmp_path, **{"crystal.gain_per_mm": 0.0,
                                         "crystal.length_mm": length_mm})
        # the ratios report builds one point, the rainbow sweep the band
        for command in ("ratios", "rainbow"):
            out = str(tmp_path / f"{command}.csv")
            assert main(["--config", path, command, "--engine", "covariance",
                         "--output", out]) == EXIT_CONFIG
            assert "crystal.length_mm" in capsys.readouterr().err
            assert not os.path.exists(out)

    @pytest.mark.parametrize("command,reads", [
        ("angles", []),
        ("rainbow", ["--seed", "--trials", "--engine", "--workers"]),
        ("ratios", ["--seed", "--trials", "--engine", "--workers", "--omega",
                    "--theta-low-deg", "--theta-high-deg"]),
        ("darkrate", ["--seed", "--trials", "--workers", "--windows"]),
        ("simulate", ["--seed", "--trials", "--workers", "--omega",
                      "--raw-vacuum"]),
    ], ids=["angles", "rainbow", "ratios", "darkrate", "simulate"])
    def test_command_accepts_only_the_flags_it_reads(self, tmp_path, command,
                                                     reads):
        values = {"--seed": ["1"], "--trials": ["10"],
                  "--engine": ["covariance"], "--workers": ["1"],
                  "--omega": ["0.5"], "--theta-low-deg": ["10"],
                  "--theta-high-deg": ["12"], "--windows": ["1", "10"],
                  "--raw-vacuum": [], "--output": ["x.json"],
                  "--format": ["json"]}
        accepted = [*reads, "--output", "--format"]
        args = vars(build_parser().parse_args(
            [command] + [w for flag in accepted
                         for w in [flag, *values[flag]]]))
        assert args["output"] == "x.json" and args["format"] == "json"
        # a flag the command does not read, such as `angles --seed` or
        # `simulate --engine`, is a usage error that writes no file
        out = str(tmp_path / "x.csv")
        for flag in values.keys() - set(accepted):
            with pytest.raises(SystemExit) as err:
                main([command, flag, *values[flag], "--output", out])
            assert err.value.code == EXIT_CONFIG
            assert not os.path.exists(out)

    def test_success_exit(self, tmp_path):
        out = str(tmp_path / "ang.csv")
        assert main(["angles", "--output", out]) == 0
        assert os.path.exists(out)

    @pytest.mark.parametrize("argv, cap_mib, line", [
        # the 10**8-point grid passes load_config's check, and the band's
        # columns then outgrow the cap
        (["--config", "{steps}", "angles"], 2048,
         "config error: sweep.steps: the run exceeds memory\n"),
        # the 1.5e8 trial blocks' bookkeeping outgrows the cap
        (["ratios", "--engine", "montecarlo", "--trials", "10000000000000",
          "--workers", "1"], 1024,
         "config error: trials: 10000000000000 trials exceed memory\n"),
        # the config's ratios.trials sized the run, so the line names it
        (["--config", "{ratios}", "ratios", "--workers", "1"], 1024,
         "config error: ratios.trials: 10000000000000 trials exceed "
         "memory\n"),
        # 352 threads' block buffers of about 4 MiB each outgrow the cap,
        # which holds the run at --workers 2
        (["rainbow", "--workers", "480"], 1024,
         "config error: workers: 480 workers' block buffers exceed "
         "memory\n"),
    ], ids=["angles-steps", "ratios-trials", "ratios-trials-config",
            "rainbow-workers"])
    def test_run_beyond_memory_exit_config(self, tmp_path, argv, cap_mib,
                                           line):
        # each run is refused in a child whose address space is capped
        # before numpy loads; uncapped, these runs need tens of GiB
        steps = write_config(tmp_path, **{"sweep.steps": 10 ** 8})
        ratios = write_config(tmp_path, "ratios.json", engine="montecarlo",
                              ratios={"trials": 10 ** 13})
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        cap = cap_mib << 20
        argv = [a.format(steps=steps, ratios=ratios) for a in argv]
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
                "from zprainbow.cli import main\n"
                f"sys.exit(main({argv!r} + "
                f"['--output', {str(out_dir / 'x.csv')!r}]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_CONFIG
        assert run.stderr == line
        assert list(out_dir.iterdir()) == []


class TestAnglesCommand:
    def test_residuals_below_tolerance(self, tmp_path):
        out = str(tmp_path / "ang.csv")
        assert main(["angles", "--output", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 15
        for row in rows:
            if row["residual_down"]:
                assert abs(float(row["residual_down"])) < 1e-9
            if row["residual_up"]:
                assert abs(float(row["residual_up"])) < 1e-9

    def test_angle_ratio_column(self, tmp_path):
        out = str(tmp_path / "ang.csv")
        main(["angles", "--output", out])
        ratios = []
        for row in read_csv(out):
            if row["theta_u_ext"] and row["theta_d_ext"]:
                ratios.append(float(row["theta_u_ext"])
                              / float(row["theta_d_ext"]))
        assert ratios
        assert 2.0 < sum(ratios) / len(ratios) < 3.0

    def test_flat_dispersion_collinear(self, tmp_path):
        path = write_config(tmp_path, **{
            "crystal.sellmeier_o": [[0.0, 0.01]],
            "crystal.sellmeier_e": [[0.0, 0.02]],
            "sweep.omega_min": 0.45, "sweep.omega_max": 0.55,
            "sweep.steps": 5})
        out = str(tmp_path / "flat.csv")
        assert main(["--config", path, "angles", "--output", out]) == 0
        for row in read_csv(out):
            assert abs(float(row["theta_d_int"])) < 1e-9

    def test_full_precision_roundtrip(self, tmp_path):
        out = str(tmp_path / "ang.csv")
        main(["angles", "--output", out])
        row = read_csv(out)[0]
        value = float(row["theta_d_ext"])
        assert format(value, ".17g") == row["theta_d_ext"]

    def test_no_partial_files(self, tmp_path):
        out = str(tmp_path / "ang.csv")
        main(["angles", "--output", out])
        assert [p for p in os.listdir(tmp_path) if p.endswith(".part")] == []


class TestRainbowCommand:
    def test_header_and_rows(self, tmp_path):
        path = write_config(tmp_path, engine="covariance",
                            **{"sweep.steps": 5, "sweep.omega_min": 0.48,
                               "sweep.omega_max": 0.56})
        out = str(tmp_path / "rb.csv")
        assert main(["--config", path, "rainbow", "--output", out]) == 0
        with open(out) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["omega", "theta_d_ext", "theta_u_ext", "main_rate",
                          "conjugate_rate", "satellite_rate",
                          "upper_above_zeropoint", "eq1_ratio", "eq2_ratio"]
        assert len(read_csv(out)) == 5

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, engine="montecarlo", trials=30_000,
                            **{"sweep.steps": 3, "sweep.omega_min": 0.50,
                               "sweep.omega_max": 0.56})
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["--config", path, "rainbow", "--output", out_a]) == 0
        assert main(["--config", path, "rainbow", "--output", out_b]) == 0
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    def test_default_workers_write_the_bytes_of_one(self, tmp_path):
        # two trial blocks, so the default worker count splits them
        path = write_config(tmp_path, engine="montecarlo", trials=70_000,
                            **{"sweep.steps": 3, "sweep.omega_min": 0.50,
                               "sweep.omega_max": 0.56})
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["--config", path, "rainbow", "--output", out_a]) == 0
        assert main(["--config", path, "rainbow", "--output", out_b,
                     "--workers", "1"]) == 0
        assert Path(out_a).read_bytes() == Path(out_b).read_bytes()

    @pytest.mark.parametrize("engine", ["covariance", "montecarlo"])
    def test_detector_reaches_neither_table_nor_fingerprint(self, tmp_path,
                                                            capsys, engine):
        # detection enters only darkrate's clicks: changing every
        # detector key leaves the rainbow's bytes and fingerprint as they
        # are, while the Monte Carlo seed still changes the fingerprint
        band = {"sweep.steps": 3, "sweep.omega_min": 0.50,
                "sweep.omega_max": 0.56}
        configs = [write_config(tmp_path, f"{name}.json", engine=engine,
                                trials=30_000, **band, **detector)
                   for name, detector in (
                       ("shipped", {}),
                       ("detector", {"detector.threshold": 0.9,
                                     "detector.window_samples": 7,
                                     "detector.efficiency": 0.25}))]
        runs = []
        for path, seed in [(configs[0], "3"), (configs[1], "3"),
                           (configs[0], "4")]:
            out = tmp_path / "rb.csv"
            assert main(["--config", path, "rainbow", "--seed", seed,
                         "--output", str(out)]) == EXIT_OK
            runs.append((out.read_bytes(), capsys.readouterr().out))
        assert runs[1] == runs[0]
        fingerprint = [re.findall(r"config fingerprint: \w+", stdout)
                       for _, stdout in runs]
        assert len(fingerprint[0]) == 1
        if engine == "montecarlo":
            assert fingerprint[2] != fingerprint[0]

    def test_covariance_fingerprint_ignores_trials_and_seed(self, tmp_path,
                                                            capsys):
        path = write_config(tmp_path, engine="covariance",
                            **{"sweep.steps": 3, "sweep.omega_min": 0.50,
                               "sweep.omega_max": 0.56})
        out = str(tmp_path / "rb.csv")
        lines = []
        for flag, value in (("--seed", "3"), ("--seed", "4"),
                            ("--trials", "5"), ("--trials", "7")):
            assert main(["--config", path, "rainbow", flag, value,
                         "--output", out]) == EXIT_OK
            lines += re.findall(r"config fingerprint: \w+\n",
                                capsys.readouterr().out)
        assert len(lines) == 4
        assert len(set(lines)) == 1

    def test_collinear_band_exits_0(self, tmp_path, capsys):
        # the flat-dispersion band of test_flat_dispersion_collinear has
        # theta_d = 0 at every point, so theta_u/theta_d has no mean
        path = write_config(tmp_path, **{
            "crystal.sellmeier_o": [[0.0, 0.01]],
            "crystal.sellmeier_e": [[0.0, 0.02]],
            "sweep.omega_min": 0.45, "sweep.omega_max": 0.55,
            "sweep.steps": 5})
        out = str(tmp_path / "flat.csv")
        assert main(["--config", path, "rainbow", "--engine", "covariance",
                     "--output", out]) == 0
        assert "theta_u/theta_d (band mean): nan" in capsys.readouterr().out
        assert len(read_csv(out)) == 5

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, engine="covariance",
                            **{"sweep.steps": 3, "sweep.omega_min": 0.50,
                               "sweep.omega_max": 0.56})
        out = str(tmp_path / "rb.json")
        assert main(["--config", path, "rainbow", "--output", out,
                     "--format", "json"]) == 0
        data = json.loads(Path(out).read_text())
        assert len(data) == 3
        assert set(data[0]) == {"omega", "theta_d_ext", "theta_u_ext",
                                "main_rate", "conjugate_rate",
                                "satellite_rate", "upper_above_zeropoint",
                                "eq1_ratio", "eq2_ratio"}


class TestRatiosCommand:
    def test_degenerate_unity(self, config):
        from dataclasses import replace
        cfg = replace(config, engine="covariance")
        report = physical_ratio_report(cfg, 0.5)
        assert report["eq1_ratio"] == pytest.approx(1.0, abs=1e-9)
        assert report["photon_theory_ratio"] == 1.0

    def test_forced_angles_cosine(self, config):
        from dataclasses import replace
        cfg = replace(config, engine="covariance")
        report = forced_angle_report(cfg, 10.0, 12.0)
        expect = math.cos(math.radians(12)) / math.cos(math.radians(10))
        assert report["rate_ratio"] == pytest.approx(expect, abs=1e-12)
        assert report["cosine_ratio"] == pytest.approx(expect, abs=1e-15)

    def test_eq1_matches_cosine_through_pipeline(self, config):
        from dataclasses import replace
        cfg = replace(config, engine="covariance")
        report = physical_ratio_report(cfg, 0.54)
        assert report["eq1_ratio"] == pytest.approx(
            report["eq1_cosine_ratio"], abs=1e-9)

    def test_cli_forced_run(self, tmp_path):
        out = str(tmp_path / "ratios.json")
        code = main(["ratios", "--engine", "covariance", "--output", out,
                     "--format", "json", "--theta-low-deg", "10",
                     "--theta-high-deg", "12"])
        assert code == 0
        data = json.loads(Path(out).read_text())[0]
        assert data["photon_theory_ratio"] == 1.0

    def test_half_forced_rejected(self, tmp_path):
        out = str(tmp_path / "r.csv")
        assert main(["ratios", "--theta-low-deg", "10",
                     "--output", out]) == EXIT_CONFIG

    @pytest.mark.parametrize("angle", ["90", "-90", "95", "nan", "inf"])
    @pytest.mark.parametrize("flag,other", [
        ("--theta-low-deg", "--theta-high-deg=12"),
        ("--theta-high-deg", "--theta-low-deg=10")], ids=["low", "high"])
    def test_forced_angle_beyond_90_rejected(self, tmp_path, capsys, angle,
                                             flag, other):
        # cos(theta) <= 0 there, so the "photon rates" would be negative
        # or infinite
        out = str(tmp_path / "r.csv")
        assert main(["ratios", "--engine", "covariance", f"{flag}={angle}",
                     other, "--output", out]) == EXIT_CONFIG
        assert ("config error: ratios: forced angles --theta-low-deg and "
                "--theta-high-deg must lie in (-90, 90) degrees"
                in capsys.readouterr().err)
        assert not os.path.exists(out)

    @pytest.mark.parametrize("g_up", [None, 0.0], ids=["shipped", "g_up-0"])
    def test_report_matches_sweep_row(self, config, g_up):
        # the report and the sweep decide alike where the satellite is
        # absent, including where no up coupling makes one
        cfg = replace(config, engine="covariance",
                      couplings=replace(config.couplings, g_up=g_up))
        table = sweep(*cfg.sweep_band, cfg.crystal, engine="covariance",
                      couplings=cfg.couplings)
        assert all(p.has_main for p in table.points)
        assert any(p.has_satellite for p in table.points) == (g_up is None)
        for point in table.points:
            report = physical_ratio_report(cfg, point.omega)
            for name in ("eq1_ratio", "eq2_ratio", "upper_above_zeropoint"):
                want, got = getattr(point, name), report[name]
                assert got == want or math.isnan(got) and math.isnan(want)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("omega", [0.54, 0.5],
                             ids=["satellite", "no-satellite"])
    def test_report_shares_the_master_seed_vacuum(self, config, omega,
                                                  workers):
        # every system of the report acts on the one vacuum drawn from the
        # master seed, not on the sweep's per-point vacua
        trials = 150_001
        cfg = replace(config, engine="montecarlo", ratios_trials=trials,
                      workers=workers)
        a = pdc_system(cfg.crystal, omega, cfg.couplings)
        systems = [a, replace(a, g_up=0.0, phi_up=0.0, dk_up=0.0)]
        try:
            systems.append(puc_system(cfg.crystal, omega, cfg.couplings))
        except (NoSolutionError, DomainError):
            pass
        assert (len(systems) == 3) == (omega == 0.54)
        _, (p_w, p_s, _), *satellite = channel_rates(
            systems, "montecarlo", trials, cfg.seed, workers)
        want = dict(eq1_ratio=float(down_ratios(p_w, p_s)),
                    lower_above_zeropoint=math.nan,
                    upper_above_zeropoint=math.nan,
                    upper_clamped_rate=math.nan, eq2_ratio=math.nan)
        for q_w, _, q_u in satellite:
            want.update(lower_above_zeropoint=q_w.above_zeropoint,
                        upper_above_zeropoint=q_u.above_zeropoint,
                        upper_clamped_rate=q_u.photon_rate,
                        eq2_ratio=float(up_ratios(q_w, q_u)))
        report = physical_ratio_report(cfg, omega)
        for name, value in want.items():
            got = report[name]
            assert got == value or math.isnan(got) and math.isnan(value)


class TestDarkrateCommand:
    def test_curve_file(self, tmp_path):
        path = write_config(tmp_path, trials=100_000)
        out = str(tmp_path / "dark.csv")
        assert main(["--config", path, "darkrate", "--output", out]) == 0
        rows = read_csv(out)
        assert [int(r["window_samples"]) for r in rows] == [1, 10, 100]
        probs = [float(r["dark_probability"]) for r in rows]
        assert probs[0] > probs[1] > probs[2]

    def test_workers_write_the_bytes_of_one(self, tmp_path):
        # three trial blocks, so two workers split them
        path = write_config(tmp_path, trials=140_001)
        outs = [str(tmp_path / f"dark{w}.csv") for w in ("1", "2")]
        for w, out in zip(("1", "2"), outs):
            assert main(["--config", path, "darkrate", "--workers", w,
                         "--output", out]) == EXIT_OK
        assert Path(outs[0]).read_bytes() == Path(outs[1]).read_bytes()

    def test_threshold_guard(self, tmp_path):
        path = write_config(tmp_path, **{"detector.threshold": 0.5})
        out = str(tmp_path / "dark.csv")
        assert main(["--config", path, "darkrate",
                     "--output", out]) == EXIT_CONFIG

    def test_trials_beyond_memory_exit_config(self, tmp_path):
        # 10**10 trials need a 149 GiB vacuum table.  The child caps its
        # address space at 3 GiB before numpy loads, so the table is
        # refused at once; uncapped, overcommit could admit a smaller
        # beyond-memory table and the machine would run out filling it
        out = tmp_path / "dark.csv"
        cap = 3 << 30
        code = ("import resource, sys\n"
                f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
                "from zprainbow.cli import main\n"
                "sys.exit(main(['darkrate', '--trials', '10000000000', "
                f"'--output', {str(out)!r}]))\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_CONFIG
        assert run.stderr == ("config error: trials: 10000000000 trials "
                              "exceed memory\n")
        assert list(tmp_path.iterdir()) == []


SIMULATE_HEADER = ("trial", "w_re", "w_im", "s_re", "s_im", "u_re", "u_im")


def simulate_reference_rows(config, raw_vacuum):
    """The simulate table rebuilt from the whole vacuum table
    (sample_vacuum, then apply), one Python number per cell."""
    system = pdc_system(config.crystal, config.ratios_omega,
                        config.couplings)
    amp = sample_vacuum(len(system.modes), config.trials, config.seed)
    if not raw_vacuum:
        amp = apply(integrate_three_wave(system), amp)
    return [[i, *cells]
            for i, cells in enumerate(amp.view(np.float64).tolist())]


def expected_table(fmt, header, rows):
    """The per-cell CSV rule, or json.dump of the whole table."""
    if fmt == "csv":
        return "".join([",".join(header) + "\n"]
                       + [",".join(_fmt(v) for v in row) + "\n"
                          for row in rows])
    return json.dumps([{k: (None if isinstance(v, float) and math.isnan(v)
                            else v) for k, v in zip(header, row)}
                       for row in rows], indent=2, sort_keys=True) + "\n"


def assert_same_text(actual, expected):
    """Equal texts; a mismatch names its first line, since a full diff of
    megabyte texts takes minutes."""
    if actual != expected:
        pairs = zip(actual.splitlines(), expected.splitlines())
        line = next((n for n, (a, e) in enumerate(pairs) if a != e), None)
        pytest.fail(f"texts differ from line {line}"
                    if line is not None else "texts differ in length")


class TestSimulateCommand:
    # more than one block, and not a whole number of blocks
    TRIALS = 2 * _BLOCK_ROWS + 3

    @pytest.fixture(scope="class")
    def reference(self):
        """expected_table(fmt, ...) of the shipped config's dump of any
        trial count up to fmt's longest STREAMED one.  A shorter dump is a
        bitwise prefix of a longer one, so each (fmt, raw) table is built
        once, at that longest count, and cut at a row boundary; the mapped
        one-row dump, whose lone row is mapped on its own, is built
        alone."""
        longest = {fmt: max(n for n, f in self.STREAMED if f == fmt)
                   for _, fmt in self.STREAMED}
        # a row's text ends with its newline, or a JSON object's "\n  }"
        row_end = {"csv": "\n", "json": "\n  }"}
        tail = {"csv": "", "json": "\n]\n"}
        tables = {}

        def build(fmt, raw, trials):
            config = replace(load_config(), trials=trials)
            return expected_table(fmt, SIMULATE_HEADER,
                                  simulate_reference_rows(config, raw))

        def expected(fmt, raw, trials):
            if trials == 1 and not raw:
                return build(fmt, raw, 1)
            if (fmt, raw) not in tables:
                text = build(fmt, raw, longest[fmt])
                # the end offset of each row, the CSV header line skipped
                ends = [m.end() for m in re.finditer(row_end[fmt], text)]
                tables[fmt, raw] = text, ends[fmt == "csv":]
            text, ends = tables[fmt, raw]
            return text[:ends[trials - 1]] + tail[fmt]

        return expected

    # the CPU count sets the default workers; --workers 2 forks share
    # writers on any host
    CASES = [pytest.param(raw, [], id=f"raw{r}")
             for r, raw in enumerate([[], ["--raw-vacuum"]])] + [
        pytest.param(raw, ["--workers", w], id=f"raw{r}-workers{w}")
        for w in ("1", "2") for r, raw in enumerate([[], ["--raw-vacuum"]])]

    @pytest.mark.parametrize("raw, workers", CASES)
    def test_csv_bytes_match_per_cell_rule(self, tmp_path, reference, raw,
                                           workers):
        path = write_config(tmp_path, trials=self.TRIALS)
        out = tmp_path / "sim.csv"
        assert main(["--config", path, "simulate", *raw, *workers,
                     "--output", str(out)]) == EXIT_OK
        assert_same_text(out.read_bytes().decode(),
                         reference("csv", bool(raw), self.TRIALS))

    @pytest.mark.parametrize("raw, workers", CASES)
    def test_json_bytes_match_whole_dump(self, tmp_path, reference, raw,
                                         workers):
        path = write_config(tmp_path, trials=self.TRIALS)
        out = tmp_path / "sim.json"
        assert main(["--config", path, "simulate", *raw, *workers,
                     "--format", "json", "--output", str(out)]) == EXIT_OK
        text = out.read_bytes().decode()
        assert_same_text(text, reference("json", bool(raw), self.TRIALS))
        trials = [row["trial"] for row in json.loads(text)]
        assert trials == list(range(self.TRIALS))
        assert all(type(t) is int for t in trials)

    # the default seed 3 keeps the earlier cases; at seed 1 every case is
    # discriminating (asserted below), while at seed 3 row 8192's one-row
    # product happens to carry the whole-table bits
    TAILS = [pytest.param(trials, workers, "3", id=f"{trials}-{workers}")
             for trials in (8193, 65537) for workers in ("1", "2")] + [
        pytest.param(trials, workers, "1", id=f"{trials}-{workers}-seed1")
        for trials in (8193, 65537, 131073) for workers in ("1", "2", "3")]

    @pytest.mark.parametrize("trials, workers, seed", TAILS)
    def test_one_row_tail_writes_the_unblocked_map(self, tmp_path, trials,
                                                   workers, seed):
        # the last row may be alone in its share or span; it still
        # carries the bits of the whole-table product.  The seed-1 cases
        # discriminate only because of the last bits of the shipped
        # transform: a change to the transform's arithmetic can make the
        # lone row's product equal the whole-table bits, and fail the
        # "alone" assertion below, although the bits written are right
        path = write_config(tmp_path, trials=trials, seed=int(seed))
        out = tmp_path / "sim.csv"
        assert main(["--config", path, "simulate", "--workers", workers,
                     "--output", str(out)]) == EXIT_OK
        config = load_config(path)
        system = pdc_system(config.crystal, config.ratios_omega,
                            config.couplings)
        t = integrate_three_wave(system)
        amp = sample_vacuum(len(system.modes), trials, config.seed)
        expected = (amp @ t.u.T + amp.conj() @ t.v.T).view(np.float64)
        if seed == "1":
            alone = (amp[-1:] @ t.u.T + amp[-1:].conj() @ t.v.T).view(
                np.float64)
            assert not np.array_equal(alone.view(np.uint64),
                                      expected[-1:].view(np.uint64))
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, 0], np.arange(trials))
        values = np.ascontiguousarray(table[:, 1:])
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))
        out.unlink()

    # one row; a whole format block; a whole and a split vacuum block; two
    # vacuum blocks and a lone row; the benchmark's size, in its format
    STREAMED = [(trials, fmt) for trials in (1, 8192, 65536, 65537, 131073)
                for fmt in ("csv", "json")] + [(200_000, "csv")]

    @pytest.mark.parametrize("raw", [[], ["--raw-vacuum"]],
                             ids=["mapped", "raw"])
    @pytest.mark.parametrize("trials, fmt", STREAMED)
    def test_streamed_bytes_match_whole_table(self, tmp_path, reference,
                                              trials, fmt, raw):
        path = write_config(tmp_path, trials=trials)
        expected = reference(fmt, bool(raw), trials)
        for workers in ("1", "2", "3"):
            out = tmp_path / f"sim{workers}"
            assert main(["--config", path, "simulate", *raw, "--workers",
                         workers, "--format", fmt,
                         "--output", str(out)]) == EXIT_OK
            assert_same_text(out.read_bytes().decode(), expected)
            out.unlink()

    @pytest.mark.parametrize("raw", [[], ["--raw-vacuum"]],
                             ids=["mapped", "raw"])
    @pytest.mark.parametrize("trials", [TRIAL_BLOCK + 1,
                                        3 * TRIAL_BLOCK + 5])
    def test_each_trial_block_drawn_once(self, tmp_path, monkeypatch, trials,
                                         raw):
        # a lone last row is mapped stacked with itself; drawn with the
        # row before it, it would redraw the whole previous block
        fill, drawn = zpf._fill_block, []

        def record(out, scratch, seed, block_index, first=0):
            drawn.append(block_index)
            fill(out, scratch, seed, block_index, first)

        monkeypatch.setattr(zpf, "_fill_block", record)
        path = write_config(tmp_path, trials=trials)
        out = tmp_path / "sim.csv"
        assert main(["--config", path, "simulate", *raw, "--workers", "1",
                     "--output", str(out)]) == EXIT_OK
        assert drawn == list(range(-(-trials // TRIAL_BLOCK)))
        out.unlink()

    def test_memory_is_flat_in_trials(self, tmp_path):
        # tracemalloc sees numpy's buffers: one share writer holds a span
        # of the table and its text, never the whole amplitude table
        trials = 4 * (1 << 16) + 3
        path = write_config(tmp_path, trials=trials)
        out = tmp_path / "sim.csv"
        tracemalloc.start()
        try:
            assert main(["--config", path, "simulate", "--workers", "1",
                         "--output", str(out)]) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < trials * 3 * np.dtype(np.complex128).itemsize
        out.unlink()

    def test_json_memory_matches_csv(self, tmp_path):
        # a finite JSON chunk is one %-operation on a repeated row layout,
        # not json.dumps(indent=2)'s pure-Python encoder
        path = write_config(tmp_path, trials=4 * (1 << 16) + 3)
        out = tmp_path / "sim"
        peaks = {}
        for fmt in ("csv", "json"):
            tracemalloc.start()
            try:
                assert main(["--config", path, "simulate", "--workers", "1",
                             "--format", fmt,
                             "--output", str(out)]) == EXIT_OK
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out.unlink()
        assert peaks["json"] < peaks["csv"] + 2 * 2 ** 20

    def test_share_writers_fork_after_blas_threads(self, tmp_path,
                                                  reference):
        # a Monte Carlo rainbow wakes BLAS's threads (x.T @ x of whole
        # trial blocks) and runs the sampling thread pool; the share
        # writers forked after it draw Philox and map through BLAS
        trials = 2 * _BLOCK_ROWS + 3
        path = write_config(tmp_path, trials=trials,
                            sweep={"omega_min": 0.5, "omega_max": 0.52,
                                   "steps": 2})
        assert main(["--config", path, "rainbow", "--engine", "montecarlo",
                     "--trials", str(2 * (1 << 16)), "--workers", "2",
                     "--output", str(tmp_path / "rainbow.csv")]) == EXIT_OK
        out = tmp_path / "sim.csv"
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(
            ["--config", path, "simulate", "--workers", "2",
             "--output", str(out)])), daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "simulate hung after the fork"
        assert codes == [EXIT_OK]
        assert_same_text(out.read_bytes().decode(),
                         reference("csv", False, trials))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_caller_writes_the_first_share(self, tmp_path, monkeypatch,
                                           reference, workers):
        # TRIALS rows are three blocks: `workers` shares, the first of one
        # block; the calling process writes it, so the pool has a writer
        # fewer than the shares
        pool_class, sizes, written = (
            concurrent.futures.ProcessPoolExecutor, [], [])

        class RecordingPool(pool_class):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        write_share = cli._write_share

        def record(fh, fmt, header, columns_of, start, stop):
            # a forked writer appends to its own copy of the list
            written.append((start, stop))
            write_share(fh, fmt, header, columns_of, start, stop)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(cli, "_write_share", record)
        path = write_config(tmp_path, trials=self.TRIALS)
        out = tmp_path / "sim.csv"
        assert main(["--config", path, "simulate", "--workers",
                     str(workers), "--output", str(out)]) == EXIT_OK
        assert sizes == [workers - 1]
        assert written == [(0, _BLOCK_ROWS)]
        assert multiprocessing.active_children() == []
        assert_same_text(out.read_bytes().decode(),
                         reference("csv", False, self.TRIALS))

    @pytest.mark.parametrize("failing", ["writer", "caller"])
    def test_failed_share_exits_config(self, tmp_path, monkeypatch, capsys,
                                       failing):
        # a forked writer's MemoryError reaches the caller as its own
        write_share = cli._write_share

        def fail(fh, fmt, header, columns_of, start, stop):
            if (start == 0) == (failing == "caller"):
                raise MemoryError
            write_share(fh, fmt, header, columns_of, start, stop)

        monkeypatch.setattr(cli, "_write_share", fail)
        path = write_config(tmp_path, trials=self.TRIALS)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["--config", path, "simulate", "--workers", "2",
                     "--output", str(out_dir / "sim.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: trials: the run exceeds memory\n"
        assert list(out_dir.iterdir()) == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("trials", [TRIALS, 3 * TRIAL_BLOCK + 5])
    def test_bytes_do_not_depend_on_workers(self, tmp_path, trials, fmt):
        path = write_config(tmp_path, trials=trials)
        digests = []
        for workers in ("1", "2", "3"):
            out = tmp_path / f"sim{workers}"
            assert main(["--config", path, "simulate", "--workers", workers,
                         "--format", fmt, "--output", str(out)]) == EXIT_OK
            digests.append(hashlib.sha256(out.read_bytes()).digest())
            out.unlink()
        assert digests[1:] == digests[:1] * 2

    def test_dump(self, tmp_path):
        path = write_config(tmp_path, trials=500)
        out = str(tmp_path / "sim.csv")
        assert main(["--config", path, "simulate", "--output", out]) == 0
        rows = read_csv(out)
        assert len(rows) == 500
        assert set(rows[0]) == {"trial", "w_re", "w_im", "s_re", "s_im",
                                "u_re", "u_im"}

    def test_raw_vacuum_statistics(self, tmp_path):
        path = write_config(tmp_path, trials=4000)
        out = str(tmp_path / "vac.csv")
        assert main(["--config", path, "simulate", "--raw-vacuum",
                     "--output", out]) == 0
        rows = read_csv(out)
        mean_i = sum(float(r["w_re"]) ** 2 + float(r["w_im"]) ** 2
                     for r in rows) / len(rows)
        assert abs(mean_i - 0.5) < 5 * 0.5 / math.sqrt(len(rows))

    def test_share_files_beyond_open_file_limit_exit_config(self, tmp_path):
        # 600000 trials are 74 blocks, so 64 workers write 64 shares, one
        # temp file each; a child capped at 40 open files cannot make them
        # all.  The files are made before the pool, so no writer starts
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code = ("import multiprocessing, resource, sys\n"
                "_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)\n"
                "resource.setrlimit(resource.RLIMIT_NOFILE, (40, hard))\n"
                "from zprainbow.cli import main\n"
                "code = main(['simulate', '--trials', '600000', '--workers', "
                f"'64', '--output', {str(out_dir / 'sim.csv')!r}])\n"
                "assert multiprocessing.active_children() == []\n"
                "sys.exit(code)\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_CONFIG
        assert run.stderr == ("config error: workers: 64 share files: Too "
                              "many open files\n")
        assert list(out_dir.iterdir()) == []


class TestStatisticalExit:
    def test_darkrate_with_too_few_trials(self, tmp_path):
        from zprainbow.cli import EXIT_STATISTICAL
        path = write_config(tmp_path, trials=50)
        out = str(tmp_path / "dark.csv")
        assert main(["--config", path, "darkrate",
                     "--output", out]) == EXIT_STATISTICAL


def source(*arrays):
    """The column source of whole arrays, the source of their row slices."""
    return len(arrays[0]), lambda start, stop: [c[start:stop] for c in arrays]


class ExplodingColumn(np.ndarray):
    """A column whose every block after the first fails to read."""

    def __getitem__(self, key):
        if isinstance(key, slice) and key.start:
            raise RuntimeError("mid-write failure")
        return super().__getitem__(key)


class TestWriteTable:
    @pytest.mark.parametrize("cell", [
        -0.0, 5e-324, 1.7976931348623157e308, math.nan, 2 ** 63 - 1])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_match_per_cell_rule(self, tmp_path, cell, fmt):
        # the cell sits in an int or a float column beside a regular one
        rows = ([[cell, 0.25], [3, -1.5]] if isinstance(cell, int)
                else [[7, cell], [3, -1.5]])
        for name, table in (("rows", rows),
                            ("columns", source(*map(np.array, zip(*rows))))):
            out = tmp_path / name
            write_table(str(out), fmt, ("a", "b"), table)
            assert out.read_bytes().decode() \
                == expected_table(fmt, ("a", "b"), rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_empty_tables(self, tmp_path, fmt):
        empty = source(np.zeros(0, int), np.zeros(0))
        for name, table in (("rows", []), ("columns", empty)):
            out = tmp_path / name
            write_table(str(out), fmt, ("a", "b"), table)
            assert out.read_bytes().decode() \
                == expected_table(fmt, ("a", "b"), [])

    @pytest.mark.parametrize("rows", [
        0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
        2 * _BLOCK_ROWS + 3, 5 * _BLOCK_ROWS])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shares_match_per_cell_rule(self, tmp_path, rows, fmt):
        trial = np.arange(rows)
        values = np.random.default_rng(rows).standard_normal((rows, 2))
        if rows > _BLOCK_ROWS:
            # only the last block of the last share is not finite
            values[-1, 1] = math.nan
        expected = expected_table(fmt, ("a", "b", "c"), [
            [i, *v] for i, v in zip(trial.tolist(), values.tolist())])
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            write_table(str(out), fmt, ("a", "b", "c"),
                        source(trial, values), workers)
            assert_same_text(out.read_bytes().decode(), expected)
            out.unlink()

    def test_one_block_starts_no_pool(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a one-block table started a process pool")

        # write_table imports the pool class when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        out = str(tmp_path / "table.csv")
        for rows in (1, _BLOCK_ROWS):
            write_table(out, "csv", ("a",), source(np.zeros(rows)), 4)
        # the patch is live: two blocks on two workers do start a pool
        with pytest.raises(AssertionError):
            write_table(out, "csv", ("a",), source(np.zeros(_BLOCK_ROWS + 1)),
                        2)

    def test_no_process_left_running(self, tmp_path):
        n = 2 * _BLOCK_ROWS
        out = str(tmp_path / "table.csv")
        write_table(out, "csv", ("a",), source(np.zeros(n)), 2)
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError):
            write_table(out, "csv", ("a", "b"),
                        source(np.zeros((n, 2)).view(ExplodingColumn)), 2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_file_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            for name, table in (("rows", [[1, 2.5]]),
                                ("columns", source(np.arange(1), np.ones(1)))):
                write_table(str(tmp_path / name), "csv", ("a", "b"), table)
                assert (tmp_path / name).stat().st_mode & 0o777 == mode
        finally:
            os.umask(old)

    def test_undecided_rows_keep_their_place(self, tmp_path):
        # rows the kernel leaves to _fmt: the first row, a middle row, the
        # last row of a block and the last row of the table
        rows = 2 * _BLOCK_ROWS + 5
        values = np.random.default_rng(5).standard_normal((rows, 3))
        for row, cell in ((0, 1e-5), (_BLOCK_ROWS // 2, math.nan),
                          (_BLOCK_ROWS - 1, 1e20), (rows - 1, -1e-5)):
            values[row, row % 3] = cell
        trial = np.arange(rows)
        expected = expected_table("csv", ("a", "b", "c", "d"), [
            [i, *v] for i, v in zip(trial.tolist(), values.tolist())])
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            write_table(str(out), "csv", ("a", "b", "c", "d"),
                        source(trial, values), workers)
            assert_same_text(out.read_bytes().decode(), expected)


def float_from_bits(sign, exponent, mantissa):
    return float(np.array(sign << 63 | exponent << 52 | mantissa,
                          np.uint64).view(np.float64))


# every binary exponent (subnormals, +-0, infinities and NaN included), and
# more often those of the cells the kernel writes; mantissas with few set
# bits give exact decimal ties and trailing zeros
FLOAT_CELLS = st.builds(
    float_from_bits, st.integers(0, 1),
    st.integers(0, 2047) | st.integers(1023 - 18, 1023 + 57),
    st.integers(0, 2 ** 52 - 1)
    | st.integers(0, 2 ** 12 - 1).map(lambda m: m << 40))
INT_CELLS = st.integers(-2 ** 63, 2 ** 63 - 1)


def edge_examples(test):
    """Each power of ten from 1e-4 to 1e17 with its float neighbours."""
    for k in range(-4, 18):
        p = float(f"1e{k}")
        test = example([(k, math.nextafter(p, 0), p,
                         math.nextafter(p, math.inf))])(test)
    return test


class TestCsvKernel:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.tuples(INT_CELLS, FLOAT_CELLS, FLOAT_CELLS,
                              FLOAT_CELLS), min_size=1, max_size=40))
    # exact half-even ties: 1000000000000000.2, .8 and 1000000000000001.2
    @example([(0, 1e15 + 0.25, 1e15 + 0.75, 1e15 + 1.25)])
    # the last float below a decade: no carry into it, and 1e-4 itself
    @example([(-2 ** 63, math.nextafter(1.0, 0), math.nextafter(0.1, 0),
               9.9999999999999999e-5)])
    @example([(2 ** 63 - 1, 1e-5, -0.0, 0.0)])
    @edge_examples
    def test_kernel_matches_per_cell_rule(self, rows):
        ints = np.array([row[0] for row in rows], np.int64)
        floats = np.array([row[1:] for row in rows])
        assert _csv_lines([ints[:, None], floats]) == "".join(
            ",".join(map(_fmt, row)) + "\n" for row in rows)
        # the kernel itself writes every fixed-notation float; _fmt gets
        # only the rest
        decided = digits.float_cells(
            floats, np.empty(floats.shape + (digits.SLOT,), np.uint8))
        assert decided.tolist() == [
            [math.isfinite(v) and "e" not in _fmt(v) for v in row[1:]]
            for row in rows]


    @pytest.mark.parametrize("undecided", [
        [0], [9], [4, 5], [0, 1, 8, 9], list(range(10))],
        ids=["first", "last", "adjacent", "both-ends", "every"])
    def test_undecided_rows_splice_in_place(self, undecided):
        ints = np.arange(10, dtype=np.int64)[:, None]
        floats = np.random.default_rng(len(undecided)).standard_normal(
            (10, 3))
        cells = (1e-7, -3e-300, 5e-324, math.nan, -math.inf)
        for k, row in enumerate(undecided):
            floats[row, k % 3] = cells[k % len(cells)]
        lines = _csv_lines([ints, floats]).splitlines(keepends=True)
        assert lines == [",".join(map(_fmt, [i, *row])) + "\n"
                         for i, row in zip(range(10), floats.tolist())]


class TestAtomicWrites:
    def test_failure_leaves_no_file(self, tmp_path):
        def exploding_rows():
            yield [1.0, 2.0, 3.0]
            raise RuntimeError("mid-write failure")

        def exploding_columns():
            n = 2 * _BLOCK_ROWS
            return source(np.arange(n), np.zeros((n, 2)).view(ExplodingColumn))

        out = tmp_path / "table.csv"
        before = sorted(os.listdir(tmp_path))
        # at two workers the second block's share fails in a child process
        for table in (exploding_rows, exploding_columns):
            for fmt in ("csv", "json"):
                for workers in (1, 2):
                    with pytest.raises(RuntimeError, match="mid-write"):
                        write_table(str(out), fmt, ("a", "b", "c"), table(),
                                    workers)
                    assert sorted(os.listdir(tmp_path)) == before


with open(default_config_path()) as _fh:
    SHIPPED = json.load(_fh)
# every key of the shipped config, one level deep, plus two unknown ones
KEY_PATHS = ([(key,) for key in SHIPPED] + [("extra",), ("crystal", "extra")]
             + [(key, name) for key, section in SHIPPED.items()
                if isinstance(section, dict) for name in section])
ODD_VALUES = st.sampled_from([
    None, True, 0, -1, 3, 0.5, -0.5, 2.5, 1e300, math.nan, math.inf,
    10 ** 400, "x", "", [], [1.0], [[1.0, 2.0]], {}])
MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("set"), st.sampled_from(KEY_PATHS), ODD_VALUES),
    st.tuples(st.just("scale"), st.sampled_from(KEY_PATHS),
              st.floats(-3.0, 3.0)),
    st.tuples(st.just("delete"), st.sampled_from(KEY_PATHS), st.none())),
    min_size=1, max_size=3)


def mutate(raw, mutations):
    """Apply (op, key path, value) edits; edits under a non-dict are skipped."""
    raw = copy.deepcopy(raw)
    for op, path, value in mutations:
        parent = raw if len(path) == 1 else raw.get(path[0])
        if not isinstance(parent, dict):
            continue
        key = path[-1]
        if op == "set":
            parent[key] = copy.deepcopy(value)
        elif op == "delete":
            parent.pop(key, None)
        elif isinstance(parent.get(key), (int, float)) \
                and not isinstance(parent.get(key), bool):
            old = parent[key]
            # exact for ints beyond float range, such as 10 ** 400
            parent[key] = (round(old * Fraction(value))
                           if isinstance(old, int) else old * value)
    return raw


def set_key(key, value):
    return ("set", tuple(key.split(".")), value)


def drop_key(key):
    return ("delete", tuple(key.split(".")), None)


def case(edits, message, argv=("angles",), id=None):
    """A config error: the shipped config with `edits` (mutate's edits, or
    the whole file as text or bytes, None for no file), run as `argv`, and
    the message it prints; {path} stands for the config file's path."""
    return pytest.param(edits, list(argv), message, id=id or message)


TYPE_ERRORS = [
    ("crystal.sellmeier_o", "x", "<class 'list'>"),
    ("crystal.sellmeier_e", {}, "<class 'list'>"),
    ("crystal.cut_angle_deg", "10", "(<class 'int'>, <class 'float'>)"),
    ("crystal.length_mm", True, "(<class 'int'>, <class 'float'>)"),
    ("crystal.pump_wavelength_nm", None, "(<class 'int'>, <class 'float'>)"),
    ("crystal.gain_per_mm", [1.0], "(<class 'int'>, <class 'float'>)"),
    ("crystal.pump_polarization", 1, "<class 'str'>"),
    ("crystal.window_um", "0.2", "<class 'list'>"),
    ("detector.threshold", "x", "(<class 'int'>, <class 'float'>)"),
    ("detector.window_samples", 1.0, "<class 'int'>"),
    ("detector.efficiency", True, "(<class 'int'>, <class 'float'>)"),
    ("trials", "x", "<class 'int'>"),
    ("seed", 1.5, "<class 'int'>"),
    ("workers", "2", "<class 'int'>"),
    ("sweep.omega_min", "x", "(<class 'int'>, <class 'float'>)"),
    ("sweep.omega_max", None, "(<class 'int'>, <class 'float'>)"),
    ("sweep.steps", 15.0, "<class 'int'>"),
    ("ratios.omega", "0.5", "(<class 'int'>, <class 'float'>)"),
    ("ratios.trials", 1e3, "<class 'int'>"),
    ("darkrate.windows", 10, "<class 'list'>"),
    ("output.path", 5, "<class 'str'>"),
    ("output.format", None, "<class 'str'>"),
]
REQUIRED_KEYS = [f"crystal.{name}" for name in (
    "sellmeier_o", "sellmeier_e", "cut_angle_deg", "length_mm",
    "pump_wavelength_nm", "gain_per_mm", "window_um")] + [
    f"sweep.{name}" for name in ("omega_min", "omega_max", "steps")]
SECTIONS = ["crystal", "detector", "sweep", "couplings", "ratios",
            "darkrate", "output"]
COVARIANCE = ("rainbow", "--engine", "covariance")
CONFIG_ERRORS = [
    case(None, "config: cannot read {path}: [Errno 2] No such file or "
               "directory: '{path}'", id="missing-file"),
    case("{not json", "config: invalid JSON in {path}: Expecting property "
                      "name enclosed in double quotes: line 1 column 2 "
                      "(char 1)", id="invalid-json"),
    case(b'{"engine": "cov\xffariance"}', "config: cannot decode {path}: "
         "'utf-8' codec can't decode byte 0xff in position 15: invalid "
         "start byte", id="not-utf-8"),
    # nested past the parser's recursion limit
    case('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "config: invalid JSON in {path}: maximum recursion depth exceeded "
         "while decoding a JSON array from a unicode string",
         id="nested-json"),
    case("[]", "config: top level must be an object"),
    case([set_key("crystal.gain_per_mm", math.nan)],
         "config: number out of range: NaN"),
    case([set_key("crystal.length_mm", math.inf)],
         "config: number out of range: Infinity"),
    case([set_key("sweep.omega_min", -math.inf)],
         "config: number out of range: -Infinity"),
    # the quoted "1e400" is written as the bare number
    case([set_key("detector.efficiency", "1e400")],
         "config: number out of range: 1e400"),
    case([set_key("trials", 10 ** 400)],
         "config: number out of range: 10000000000000000000"),
    *[case([edit], f"{key}: missing or not a dict") for key, edit in zip(
        SECTIONS, [drop_key("crystal"), set_key("detector", []),
                   drop_key("sweep"), set_key("couplings", "auto"),
                   set_key("ratios", None), set_key("darkrate", 5),
                   set_key("output", [])])],
    *[case([drop_key(key)], f"{key}: missing required field")
      for key in REQUIRED_KEYS],
    *[case([set_key(key, value)], f"{key}: expected {kind}, got {value!r}")
      for key, value, kind in TYPE_ERRORS],
    case([set_key("crystal.sellmeier_o", [1.0])],
         "crystal.sellmeier_o: cannot unpack non-iterable float object"),
    case([set_key("crystal.sellmeier_e", [[1.0]])], "crystal.sellmeier_e: "
         "not enough values to unpack (expected 2, got 1)"),
    case([set_key("crystal.sellmeier_o", [["a", 1.0]])],
         "crystal.sellmeier_o: could not convert string to float: 'a'"),
    case([set_key("crystal.sellmeier_e", [[1.0, 2.0], [0.5, 2.0]])],
         "crystal.sellmeier_e: Sellmeier pole positions must be distinct"),
    *[case([set_key(f"{section}.extra", 1)], f"{section}.extra: unknown key")
      for section in SECTIONS],
    case([set_key("extra", 1)], "extra: unknown key"),
    # a key given twice, even with the same value, in any object
    case(json.dumps(SHIPPED).replace('"seed": 3', '"seed": 3, "seed": 5'),
         "config: duplicate key 'seed'", id="duplicate-key"),
    case(json.dumps(SHIPPED).replace('"steps": 15',
                                     '"steps": 15, "steps": 15'),
         "config: duplicate key 'steps'", id="duplicate-section-key"),
    # the coupling phases are a gauge that no output depends on, so the
    # config has no key for them
    case([set_key("couplings.phi_down", "x")],
         "couplings.phi_down: unknown key"),
    case([set_key("couplings.phi_up", True)], "couplings.phi_up: unknown key"),
    # range checks, each through the config and through its flag
    case([set_key("engine", "exact")], "engine: unknown engine 'exact'"),
    case([set_key("engine", 5)], "engine: unknown engine 5"),
    case([set_key("trials", 0)], "trials: must be >= 1"),
    case([], "trials: must be >= 1", [*COVARIANCE, "--trials", "0"],
         id="flag-trials"),
    case([set_key("seed", -1)], "seed: must be >= 0"),
    case([], "seed: must be >= 0", [*COVARIANCE, "--seed", "-1"],
         id="flag-seed"),
    case([set_key("workers", 0)], "workers: must be >= 1"),
    case([], "workers: must be >= 1", [*COVARIANCE, "--workers", "0"],
         id="flag-workers"),
    case([set_key("ratios.trials", 0)], "ratios.trials: must be >= 1"),
    case([set_key("ratios.omega", 1.0)], "ratios.omega: must lie in (0, 1)"),
    case([set_key("ratios.omega", 0)], "ratios.omega: must lie in (0, 1)"),
    case([], "ratios.omega: must lie in (0, 1)",
         ["ratios", "--engine", "covariance", "--omega", "1.5"],
         id="flag-omega"),
    case([], "ratios.omega: must lie in (0, 1)",
         ["simulate", "--trials", "100", "--omega=nan"], id="flag-omega-nan"),
    case([set_key("darkrate.windows", [0])],
         "darkrate.windows: must be integers >= 1"),
    case([set_key("darkrate.windows", [])],
         "darkrate.windows: must be integers >= 1", id="windows-empty"),
    case([set_key("darkrate.windows", [1, 2.0])],
         "darkrate.windows: must be integers >= 1", id="windows-float"),
    case([set_key("darkrate.windows", [True])],
         "darkrate.windows: must be integers >= 1", id="windows-bool"),
    case([], "darkrate.windows: must be integers >= 1",
         ["darkrate", "--trials", "1000", "--windows", "1", "0"],
         id="flag-windows"),
    case([set_key("output.format", "xml")],
         "output.format: unknown format 'xml'"),
    # the crystal, detector and couplings.g_up wrappers
    case([set_key("crystal.length_mm", -1.0)],
         "crystal: length_mm must be > 0"),
    case([set_key("crystal.pump_polarization", "diagonal")],
         "crystal: unknown pump polarization"),
    case([set_key("detector.efficiency", 1.5)],
         "detector: efficiency must lie in [0, 1]"),
    case([set_key("detector.window_samples", 0)],
         "detector: window_samples must be >= 1"),
    *[case([set_key("couplings.g_up", value)],
           "couplings.g_up: must be a number >= 0", id=f"g_up-{value!r}")
      for value in (-1, "x", True, [1.0])],
    # the cross-field checks
    case([set_key("crystal.gain_per_mm", 1e300)], "crystal.gain_per_mm: "
         "times crystal.length_mm must not exceed 177.446"),
    case([set_key("crystal.length_mm", 1e306)], "crystal.length_mm: "
         "1e+306 mm exceeds the float range in micrometres"),
    case([set_key("sweep.omega_min", 0.7)],
         "sweep: need 0 < omega_min < omega_max < 1"),
    case([set_key("sweep.omega_max", 1)],
         "sweep: need 0 < omega_min < omega_max < 1", id="omega_max-1"),
    case([set_key("sweep.steps", 1)], "sweep.steps: steps must be >= 2"),
    case([set_key("sweep.omega_min", 0.5),
          set_key("sweep.omega_max", 0.5000000000000001),
          set_key("sweep.steps", 3)],
         "sweep.steps: 3 steps repeat a frequency of "
         "[0.5, 0.5000000000000001]"),
]


class TestConfigErrorMessages:
    """Every ConfigError of load_config and RunConfig prints its exact
    message, through the config file or through a flag."""

    @pytest.mark.parametrize("edits, argv, message", CONFIG_ERRORS)
    def test_exact_message(self, tmp_path, capsys, edits, argv, message):
        path = tmp_path / "cfg.json"
        if isinstance(edits, list):
            path.write_text(json.dumps(mutate(SHIPPED, edits))
                            .replace('"1e400"', "1e400"))
        elif isinstance(edits, bytes):
            path.write_bytes(edits)
        elif edits is not None:
            path.write_text(edits)
        out = tmp_path / "x.csv"
        assert main(["--config", str(path), *argv,
                     "--output", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: {message.replace('{path}', str(path))}\n"
        assert not out.exists()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestExitCodeProperty:
    """Any config or --omega maps to a documented exit code, never a
    traceback."""

    # each command draws its own 20 of the 120 derandomized examples (the
    # parametrize id seeds them), and runs each explicit example too
    @pytest.mark.parametrize("command", ["angles", "ratios", "forced",
                                         "rainbow", "darkrate", "simulate"])
    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(mutations=MUTATIONS, omega=st.one_of(st.none(), st.floats()),
           simulate_flags=st.lists(st.sampled_from(["--raw-vacuum",
                                                    "--format=json"]),
                                   unique=True))
    @example(mutations=[("delete", ("engine",), None)], omega=math.nan,
             simulate_flags=[])
    @example(mutations=[("set", ("seed",), -1)], omega=None,
             simulate_flags=[])
    @example(mutations=[("set", ("darkrate", "windows"), [[1.0, 2.0]])],
             omega=0.5, simulate_flags=["--format=json"])
    def test_documented_exit_codes(self, fuzz_dir, mutations, command,
                                   omega, simulate_flags):
        path = fuzz_dir / "cfg.json"
        path.write_text(json.dumps(mutate(SHIPPED, mutations)))
        argv = ["--config", str(path), command.replace("forced", "ratios"),
                "--output", str(fuzz_dir / "out.csv")]
        if command in ("darkrate", "simulate"):
            # 256 trials fill the shipped 100-sample dark-rate window; a
            # mutated trials or workers starts no long run and no pool
            argv += ["--trials", "256", "--workers", "1"]
        elif command != "angles":
            argv += ["--engine", "covariance"]
        if command == "forced":
            argv += ["--theta-low-deg", "10", "--theta-high-deg", "12"]
        elif command in ("ratios", "simulate") and omega is not None:
            argv.append(f"--omega={omega!r}")
        if command == "simulate":
            argv += simulate_flags
        try:
            code = main(argv)
        except SystemExit as e:   # argparse usage errors
            code = e.code
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NO_SOLUTION,
                        EXIT_STATISTICAL)
