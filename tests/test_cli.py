import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from wpirc import certify, sim, solver
from wpirc.cli import DEFAULTS, EXIT_CONFIG, EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, load_config, main

SMALL_SCENARIO = {
    "n_subcarriers": 2,
    "n_antennas": 2,
    "mi_floor": 20.0,
    "rate_floor": 25.0,
    "seed": 3,
}


def write_config(tmp_path, extra=None, name="config.yaml"):
    cfg = dict(SMALL_SCENARIO)
    if extra:
        cfg.update(extra)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


class TestSolveCommand:
    def test_zero_demand_exits_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mi_floor": 0.0, "rate_floor": 0.0})
        assert main(["solve", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "zero_demand" in out
        assert "0.000000e+00 J" in out

    def test_feasible_instance(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["solve", "--config", path]) == EXIT_OK
        assert "optimal" in capsys.readouterr().out

    def test_infeasible_exits_3(self, tmp_path):
        path = write_config(tmp_path, {"mi_floor": 1e7})
        assert main(["solve", "--config", path]) == EXIT_INFEASIBLE

    def test_empty_config_file_is_all_defaults(self, tmp_path, capsys):
        # the default floors are 0
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        assert "zero_demand" in capsys.readouterr().out

    def test_solver_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise solver.SolverError("multiplier search did not converge")

        monkeypatch.setattr(solver, "solve", fail)
        assert main(["solve", "--config", write_config(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("solver error: multiplier search did not converge")
        assert "Traceback" not in err


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"not_a_key": 1})
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    def test_removed_constraint_tol_is_an_unknown_key(self, tmp_path, capsys):
        # so are the solver tolerances, constants since they left the config
        for key, value in [("constraint_tol", 1e-8), ("max_bisect", 200), ("dual_tol", 1e-10),
                           ("time_tol", 1e-9)]:
            path = write_config(tmp_path, {key: value})
            assert main(["solve", "--config", path]) == EXIT_CONFIG
            assert f"unknown config keys: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "certify", "oracle-check", "sweep"])
    def test_misspelled_normalization_is_a_config_error(self, tmp_path, capsys, command):
        path = write_config(tmp_path, {"normalization": "emprical"})
        assert main([command, "--config", path]) == EXIT_CONFIG
        assert "normalization must be 'empirical' or 'ensemble'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, bad",
        [
            ("sweep", {"sweep_variable": "foo"}),
            ("sweep", {"trials": "many"}),
            ("sweep", {"master_seed": -1}),
            ("oracle-check", {"oracle_rel_tol": "lots"}),
            ("oracle-check", {"oracle_rel_tol": -1.0}),
            ("oracle-check", {"oracle_rel_tol": float("nan")}),
            ("solve", {"mi_floor": float("nan")}),
            ("solve", {"total_time": float("inf")}),
            ("solve", {"delta_f": float("inf")}),
            ("solve", {"power_cap": float("inf")}),
            ("solve", {"radar_snr_db": float("inf")}),
            ("certify", {"comm_snr_db": float("-inf")}),
            ("sweep", {"sweep_values": [1.0, float("nan")]}),
            ("sweep", {"radar_snr_db": float("inf")}),
            ("solve", {"radar_snr_db": 4000.0}),
            ("sweep", {"radar_snr_db": 3080.0}),
            # finite linear value that overflows on a subcarrier (N_c 128)
            ("solve", {"n_subcarriers": 128, "radar_snr_db": 3080.0}),
            ("sweep", {"sweep_values": [-1.0, 5.0]}),
        ],
    )
    def test_malformed_value_is_a_config_error_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, bad
    ):
        def no_solve(*args):
            raise AssertionError("solved before the config was checked")

        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(sim, "run_sweep", no_solve)
        path = write_config(tmp_path, {**bad, "out": str(tmp_path / "sweep.csv")})
        assert main([command, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("solve", "seed", 2.7),
            ("certify", "seed", True),
            ("sweep", "master_seed", 2.7),
            ("sweep", "trials", 1.9),
            ("sweep", "trials", True),
            ("oracle-check", "oracle_tau2_steps", 2.5),
            ("oracle-check", "oracle_gamma_steps", 2.5),
            ("solve", "n_subcarriers", 4.0),
            ("sweep", "n_antennas", 2.0),
        ],
    )
    def test_non_integer_count_is_a_config_error_naming_its_key(
        self, tmp_path, capsys, monkeypatch, command, key, value
    ):
        # not rounded down, nor read as 1, nor failing inside NumPy
        def no_solve(*args):
            raise AssertionError("solved a config with a non-integer count")

        monkeypatch.setattr(solver, "solve", no_solve)
        monkeypatch.setattr(sim, "run_sweep", no_solve)
        path = write_config(tmp_path, {key: value, "out": str(tmp_path / "sweep.csv")})
        assert main([command, "--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} must be an integer" in err

    @pytest.mark.parametrize("out", ["missing/sweep.csv", "."])
    def test_unwritable_sweep_out_is_a_config_error(self, tmp_path, capsys, monkeypatch, out):
        # a file in a missing directory, and a directory itself
        def no_sweep(*args):
            raise AssertionError("swept before the out path was checked")

        monkeypatch.setattr(sim, "run_sweep", no_sweep)
        path = write_config(tmp_path, {"trials": 1})
        assert main(["sweep", "--config", path, "--out", str(tmp_path / out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "not a file in an existing directory" in err
        assert "Traceback" not in err

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("text", ["mi_floor: [1, 2\n", "mi_floor: 1: 2\n", "\tmi_floor: 1\n"])
    def test_yaml_syntax_error_rejected(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG

    def test_configs_parse_as_with_the_pure_python_loader(self, tmp_path):
        paper_units = {"delta_f": 2.5e5, "symbol_duration": 5e-6, "total_time": 1e-4,
                       "power_cap": 50.0, "efficiency": 0.5}
        sweep = {"n_subcarriers": 128, "rate_floor": 150.0, "sweep_values": [30.0, 54.4, 250.0],
                 "schemes": ["op", "eq"], "trials": 1}
        oracle = {"n_subcarriers": 2, "mi_floor": 17.4, "rate_floor": 38.1, "seed": 7}
        texts = [
            yaml.safe_dump(DEFAULTS),
            yaml.safe_dump({**paper_units, **sweep}),
            yaml.safe_dump({**paper_units, **oracle}),
            # YAML 1.1 reads 1e-4 (no dot) as a string and ~ as null, with either parser
            "total_time: 1e-4\noracle_gamma_max: ~\nschemes: [op]\nseed: 0x1f\n",
        ]
        for i, text in enumerate(texts):
            path = tmp_path / f"config-{i}.yaml"
            path.write_text(text)
            assert load_config(str(path)) == {**DEFAULTS, **yaml.load(text, Loader=yaml.SafeLoader)}

    def test_missing_file_rejected(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG

    def test_invalid_parameter_value(self, tmp_path):
        path = write_config(tmp_path, {"efficiency": 2.0})
        assert main(["solve", "--config", path]) == EXIT_CONFIG


class TestSweepCommand:
    def test_writes_expected_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        path = write_config(
            tmp_path,
            {
                "sweep_values": [10.0, 20.0, 30.0],
                "trials": 2,
                "master_seed": 5,
                "out": str(out),
            },
        )
        assert main(["sweep", "--config", path]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 12

    def test_trials_and_out_overrides(self, tmp_path):
        out = tmp_path / "override.csv"
        path = write_config(tmp_path, {"sweep_values": [10.0, 20.0], "trials": 5})
        assert main(
            ["sweep", "--config", path, "--trials", "1", "--out", str(out)]
        ) == EXIT_OK
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 4

    @pytest.mark.parametrize("flag, value", [("--out", "other.csv"), ("--trials", "3")])
    @pytest.mark.parametrize("command", ["solve", "certify", "oracle-check"])
    def test_sweep_flags_are_usage_errors_elsewhere(self, tmp_path, capsys, command, flag, value):
        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        path = write_config(tmp_path, {"sweep_values": [15.0, 25.0], "trials": 2})
        assert main(["sweep", "--config", path, "--seed", "42", "--out", str(a)]) == EXIT_OK
        assert main(["sweep", "--config", path, "--seed", "42", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestCertifyCommand:
    def test_valid_certificate(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["certify", "--config", path]) == EXIT_OK
        assert "valid        : True" in capsys.readouterr().out

    def test_infeasible_exits_3(self, tmp_path):
        path = write_config(tmp_path, {"mi_floor": 1e7})
        assert main(["certify", "--config", path]) == EXIT_INFEASIBLE

    def test_zero_floors_are_trivially_valid(self, tmp_path, capsys):
        path = write_config(tmp_path, {"mi_floor": 0.0, "rate_floor": 0.0})
        assert main(["certify", "--config", path]) == EXIT_OK
        assert "certificate  : trivially valid (zero demand)" in capsys.readouterr().out


class TestOracleCheckCommand:
    def test_agreement_on_small_instance(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["oracle-check", "--config", path]) == EXIT_OK
        assert "relative gap" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_single_subcarrier_agrees(self, tmp_path, capsys, seed):
        # with one subcarrier the equal-power bound is the exact demand: the
        # grid point that meets the floors lies on the end of the gamma axis
        path = write_config(tmp_path, {"n_subcarriers": 1, "mi_floor": 10.0, "rate_floor": 12.0})
        assert main(["oracle-check", "--config", path, "--seed", str(seed)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solver: optimal" in out and "oracle: optimal" in out

    def test_infeasible_instance_falls_back_to_the_harvestable_energy(
        self, tmp_path, capsys, monkeypatch
    ):
        # no equal-power point is feasible, so the bound is inf and the
        # oracle's gamma axes end at the most energy the budget can harvest
        gamma_edge, gamma_maxes = certify.OracleGrid.gamma_edge, []

        def spy(grid, params, chan):
            hn2 = float(np.real(np.vdot(chan.h, chan.h)))
            harvest = params.efficiency * hn2 * params.power_cap * params.total_time
            gamma_maxes.append((gamma_edge(grid, params, chan), harvest))
            return gamma_maxes[-1][0]

        monkeypatch.setattr(certify.OracleGrid, "gamma_edge", spy)
        path = write_config(tmp_path, {"mi_floor": 5e4})
        assert main(["oracle-check", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solver: infeasible" in out and "oracle: infeasible" in out
        [(gamma_max, harvest)] = gamma_maxes
        assert gamma_max == harvest

    @pytest.mark.parametrize(
        "bad",
        [
            {"oracle_tau2_steps": 0},
            {"oracle_gamma_steps": 0},
            {"oracle_gamma_max": -1.0},
            {"oracle_gamma_max": float("nan")},
            {"oracle_gamma_max": float("inf")},
            {"oracle_gamma_max": "lots"},
        ],
    )
    def test_invalid_grid_is_a_config_error(self, tmp_path, capsys, bad):
        path = write_config(tmp_path, bad)
        assert main(["oracle-check", "--config", path]) == EXIT_CONFIG
        assert "invalid oracle grid" in capsys.readouterr().err

    def test_zero_gamma_axis_is_a_status_mismatch(self, tmp_path, capsys):
        # a grid whose every gamma is 0 meets no positive floor, which the
        # solver meets
        path = write_config(tmp_path, {"oracle_gamma_max": 0.0, "mi_floor": 10.0,
                                       "rate_floor": 10.0})
        assert main(["oracle-check", "--config", path]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert "solver: optimal" in out and "oracle: infeasible" in out
        assert "status mismatch" in out

    def test_rejects_large_instance(self, tmp_path):
        path = write_config(tmp_path, {"n_subcarriers": 8})
        assert main(["oracle-check", "--config", path]) == EXIT_CONFIG


class TestAllZeroLink:
    """-4000 dB is a linear SNR of 0.0 on every subcarrier: no finite energy
    meets a positive MI floor, and every command reads that as infeasible."""

    ZERO_RADAR = {"radar_snr_db": -4000.0, "mi_floor": 5.0, "rate_floor": 5.0}

    @pytest.mark.parametrize("command", ["solve", "certify"])
    def test_positive_floor_exits_3(self, tmp_path, capsys, command):
        path = write_config(tmp_path, self.ZERO_RADAR)
        assert main([command, "--config", path]) == EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert "status       : infeasible" in out and err == ""

    def test_oracle_agrees_on_infeasible(self, tmp_path, capsys):
        path = write_config(tmp_path, self.ZERO_RADAR)
        assert main(["oracle-check", "--config", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "solver: infeasible" in out and "oracle: infeasible" in out

    def test_oracle_agrees_on_infeasible_with_a_harvest_near_the_float_limit(
        self, tmp_path, capsys
    ):
        # the harvest fallback edge is near 1e304: its rate tables overflow
        path = write_config(tmp_path, {**self.ZERO_RADAR, "power_cap": 1.0e308})
        assert main(["oracle-check", "--config", path]) == EXIT_OK
        out, err = capsys.readouterr()
        assert "solver: infeasible" in out and "oracle: infeasible" in out and err == ""

    def test_sweep_rows_are_infeasible(self, tmp_path):
        out = tmp_path / "sweep.csv"
        path = write_config(
            tmp_path,
            {**self.ZERO_RADAR, "n_subcarriers": 4, "sweep_variable": "mi_floor",
             "sweep_values": [0.0, 1.0], "trials": 1, "out": str(out)},
        )
        assert main(["sweep", "--config", path]) == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        statuses = {(r["scheme"], float(r["sweep_value"])): r["status"] for r in rows}
        assert statuses == {
            ("op", 0.0): "optimal",
            ("eq", 0.0): "optimal",
            ("op", 1.0): "infeasible",
            ("eq", 1.0): "infeasible",
        }


def test_calls_in_one_process_match_calls_in_separate_ones(tmp_path, capsys):
    # the parser is built once per process: later calls must not see what
    # earlier ones parsed
    sweep = write_config(tmp_path, {"sweep_values": [10.0, 20.0], "trials": 3}, "sweep.yaml")
    bad = write_config(tmp_path, {"not_a_key": 1}, "bad.yaml")
    calls = [
        ["sweep", "--config", sweep, "--trials", "1", "--out", str(tmp_path / "a.csv")],
        ["solve", "--config", sweep, "--seed", "5"],
        ["sweep", "--config", sweep, "--out", str(tmp_path / "b.csv")],
        ["certify", "--config", bad],
    ]
    in_one = []
    for argv in calls:
        code = main(argv)
        out, err = capsys.readouterr()
        in_one.append((code, out, err))
    path = [str(Path(certify.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for argv, expected in zip(calls, in_one):
        done = subprocess.run(
            [sys.executable, "-m", "wpirc.cli", *argv], capture_output=True, text=True, env=env
        )
        assert (done.returncode, done.stdout, done.stderr) == expected
    assert [code for code, _, _ in in_one] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_CONFIG]
    # two floors and two schemes per trial: the trials override holds for one call only
    assert "wrote 4 rows" in in_one[0][1] and "wrote 12 rows" in in_one[2][1]
