import csv

import numpy as np
import pytest
import yaml

from wpirc import certify
from wpirc.cli import EXIT_CONFIG, EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main

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


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"not_a_key": 1})
        assert main(["solve", "--config", path]) == EXIT_CONFIG

    def test_removed_constraint_tol_is_an_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path, {"constraint_tol": 1e-8})
        assert main(["solve", "--config", path]) == EXIT_CONFIG
        assert "unknown config keys: constraint_tol" in capsys.readouterr().err

    def test_malformed_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a\n- list\n")
        assert main(["solve", "--config", str(path)]) == EXIT_CONFIG

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


class TestOracleCheckCommand:
    def test_agreement_on_small_instance(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["oracle-check", "--config", path]) == EXIT_OK
        assert "relative gap" in capsys.readouterr().out

    def test_infeasible_instance_falls_back_to_the_harvestable_energy(
        self, tmp_path, capsys, monkeypatch
    ):
        # no equal-power point is feasible, so the bound is inf and the
        # oracle's gamma axes end at the most energy the budget can harvest
        oracle, gamma_maxes = certify.brute_force_oracle, []

        def spy(params, chan, grid):
            hn2 = float(np.real(np.vdot(chan.h, chan.h)))
            harvest = params.efficiency * hn2 * params.power_cap * params.total_time
            gamma_maxes.append((grid.gamma_max, harvest))
            return oracle(params, chan, grid)

        monkeypatch.setattr(certify, "brute_force_oracle", spy)
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

    def test_rejects_large_instance(self, tmp_path):
        path = write_config(tmp_path, {"n_subcarriers": 8})
        assert main(["oracle-check", "--config", path]) == EXIT_CONFIG
