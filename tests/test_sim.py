import csv
import logging
from dataclasses import replace

import numpy as np
import pytest

from wpirc import SolveStatus, SweepConfig, eq_solve, run_sweep, sample_channel, solve, write_csv
import wpirc.sim
import wpirc.solver
from wpirc.sim import CSV_COLUMNS, H_VARIANCE, SweepRow, trial_seed
from wpirc.solver import SolverError

from conftest import make_params


class TestSampleChannel:
    def test_deterministic_in_seed(self):
        params = make_params(n_subcarriers=8, n_antennas=3)
        a = sample_channel(12345, params, 10.0, 5.0)
        b = sample_channel(12345, params, 10.0, 5.0)
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.radar_snr, b.radar_snr)
        np.testing.assert_array_equal(a.comm_snr, b.comm_snr)
        c = sample_channel(12346, params, 10.0, 5.0)
        assert not np.array_equal(a.h, c.h)

    def test_empirical_normalization_exact(self):
        params = make_params(n_subcarriers=16, n_antennas=2)
        chan = sample_channel(7, params, 10.0, 3.0)
        assert np.mean(chan.radar_snr) == pytest.approx(10.0, rel=1e-12)
        assert np.mean(chan.comm_snr) == pytest.approx(10 ** 0.3, rel=1e-12)

    def test_ensemble_normalization_matches_on_average(self):
        params = make_params(n_subcarriers=512, n_antennas=2)
        means = [
            np.mean(sample_channel(s, params, 0.0, 0.0, normalization="ensemble").radar_snr)
            for s in range(40)
        ]
        assert np.mean(means) == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("normalization", ["emprical", "Empirical", ""])
    def test_unknown_normalization_rejected(self, normalization):
        with pytest.raises(ValueError, match="normalization must be"):
            sample_channel(0, make_params(), 10.0, 10.0, normalization)

    @pytest.mark.parametrize(
        "snr_db", [(np.inf, 10.0), (10.0, -np.inf), (np.nan, 10.0), (4000.0, 10.0)]
    )
    def test_non_finite_snr_db_rejected(self, snr_db):
        with pytest.raises(ValueError, match="finite"):
            sample_channel(0, make_params(), *snr_db)

    @pytest.mark.parametrize("normalization", ["empirical", "ensemble"])
    def test_snr_overflowing_on_a_subcarrier_rejected(self, normalization):
        # 10^308 is finite, but not times the largest of 128 gains
        params = make_params(n_subcarriers=128)
        with pytest.raises(ValueError, match="finite"):
            sample_channel(0, params, 3080.0, 10.0, normalization)

    def test_h_variance_law_of_large_numbers(self):
        # ~1e5 gain samples across many draws; per-entry variance is 0.2
        params = make_params(n_subcarriers=1, n_antennas=50)
        power = [
            np.abs(sample_channel(s, params, 0.0, 0.0).h) ** 2 for s in range(2000)
        ]
        assert np.mean(np.concatenate(power)) == pytest.approx(H_VARIANCE, abs=0.01)


class TestRunSweep:
    def small_config(self, **kw):
        base = make_params(n_subcarriers=4, n_antennas=2, rate_floor=20.0)
        defaults = dict(
            base=base,
            radar_snr_db=10.0,
            comm_snr_db=10.0,
            sweep_variable="mi_floor",
            sweep_values=(10.0, 20.0, 30.0),
            trials=2,
            master_seed=99,
            schemes=("op", "eq"),
        )
        defaults.update(kw)
        return SweepConfig(**defaults)

    def test_cardinality(self):
        rows = run_sweep(self.small_config())
        assert len(rows) == 3 * 2 * 2

    def test_rows_in_canonical_order(self):
        rows = run_sweep(self.small_config())
        keys = [(r.sweep_value, r.trial, r.scheme) for r in rows]
        assert keys == sorted(keys)

    def test_paired_dominance_and_monotonicity(self):
        rows = run_sweep(self.small_config())
        by_key = {(r.scheme, r.sweep_value, r.trial): r for r in rows}
        for value in (10.0, 20.0, 30.0):
            for trial in range(2):
                op = by_key[("op", value, trial)]
                eq = by_key[("eq", value, trial)]
                if op.status == eq.status == "optimal":
                    assert eq.energy >= op.energy * (1 - 1e-9)
        # per (trial, scheme): energy and tau1 nondecreasing, tau2 nonincreasing
        for scheme in ("op", "eq"):
            for trial in range(2):
                seq = [by_key[(scheme, v, trial)] for v in (10.0, 20.0, 30.0)]
                ok = [r for r in seq if r.status == "optimal"]
                for a, b in zip(ok, ok[1:]):
                    assert b.energy >= a.energy * (1 - 1e-9)
                    assert b.tau1 >= a.tau1 * (1 - 1e-9)
                    assert b.tau2 <= a.tau2 * (1 + 1e-9)

    def test_optimal_rows_meet_their_floor(self):
        rows = run_sweep(self.small_config())
        for r in rows:
            if r.status == "optimal":
                assert r.achieved_mi >= r.sweep_value - 1e-6
                assert r.achieved_rate >= 20.0 - 1e-6

    def test_shared_channel_across_schemes(self):
        rows = run_sweep(self.small_config())
        seeds = {r.trial: set() for r in rows}
        for r in rows:
            seeds[r.trial].add(r.seed)
        assert all(len(s) == 1 for s in seeds.values())
        assert seeds[0] != seeds[1]

    def test_trial_seed_is_stable(self):
        assert trial_seed(99, 0) == trial_seed(99, 0)
        assert trial_seed(99, 0) != trial_seed(99, 1)

    def test_failed_solve_is_logged_with_its_cause(self, monkeypatch, caplog):
        inner_steps = wpirc.solver._inner_steps

        def diverge_at_20_bits(tau2, chan, params, *rest):
            if params.mi_floor == 20.0:
                raise SolverError("multiplier search diverged")
            return (yield from inner_steps(tau2, chan, params, *rest))

        cfg = self.small_config(trials=1)
        monkeypatch.setattr(wpirc.solver, "_inner_steps", diverge_at_20_bits)
        with caplog.at_level(logging.ERROR, logger="wpirc.sim"):
            rows = run_sweep(cfg)
        monkeypatch.undo()
        failed = [(r.scheme, r.sweep_value) for r in rows if r.status == "error"]
        assert failed == [("op", 20.0)]
        (record,) = caplog.records
        assert "multiplier search diverged" in record.getMessage()
        assert record.exc_info[0] is SolverError
        # every other row is what its solve gives alone
        chan = sample_channel(trial_seed(cfg.master_seed, 0), cfg.base, 10.0, 10.0)
        for row in rows:
            params = replace(cfg.base, mi_floor=row.sweep_value)
            if row.status == "error":
                assert np.isnan(row.energy)
                continue
            sol = (solve if row.scheme == "op" else eq_solve)(params, chan)
            assert (row.status, row.energy, row.tau2) == (sol.status.value, sol.energy, sol.tau2)

    def test_trial_whose_channel_overflows_writes_error_rows(self, caplog):
        # SweepConfig bounds the linear SNR times N_c, which covers every
        # gain only under empirical normalization; an ensemble gain above
        # about 1.14 overflows 3082 dB on one subcarrier
        cfg = self.small_config(
            base=make_params(n_subcarriers=1, n_antennas=2, rate_floor=5.0),
            radar_snr_db=3082.0,
            trials=6,
            normalization="ensemble",
        )
        with caplog.at_level(logging.ERROR, logger="wpirc.sim"):
            rows = run_sweep(cfg)
        failed = set()
        for trial in range(cfg.trials):
            seed = trial_seed(cfg.master_seed, trial)
            try:
                sample_channel(seed, cfg.base, 3082.0, 10.0, "ensemble")
            except ValueError:
                failed.add(trial)
        assert failed and len(failed) < cfg.trials
        for row in rows:
            assert (row.status == "error") == (row.trial in failed)
        assert all("channel fields must be finite" in r.getMessage() for r in caplog.records)
        # one record per trial, not one per row
        assert len(caplog.records) == len(failed)
        assert all(r.exc_info[0] is ValueError for r in caplog.records)

    def test_rejects_unsorted_sweep_values(self):
        with pytest.raises(ValueError):
            self.small_config(sweep_values=(30.0, 10.0))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(sweep_values=(1.0, np.nan)),
            dict(sweep_values=(1.0, np.inf)),
            dict(radar_snr_db=np.inf),
            dict(comm_snr_db=np.nan),
            dict(radar_snr_db=3080.0),
        ],
    )
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            self.small_config(**bad)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (dict(trials=0), "trials must be positive"),
            (dict(schemes=()), "schemes must be"),
            (dict(schemes=("op", "opt")), "schemes must be"),
            (dict(sweep_values=(-1.0, 5.0)), "rate floors must be nonnegative"),
        ],
    )
    def test_rejects_invalid_values(self, bad, match):
        with pytest.raises(ValueError, match=match):
            self.small_config(**bad)


class TestWriteCsv:
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_byte_identical_rewrites(self, tmp_path):
        rows = run_sweep(
            TestRunSweep().small_config(sweep_values=(15.0, 25.0), trials=1)
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, p1)
        write_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip(self, tmp_path):
        rows = run_sweep(TestRunSweep().small_config(trials=1))
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == len(rows)
        for row, rec in zip(rows, parsed):
            assert rec["scheme"] == row.scheme
            assert rec["status"] == row.status
            assert int(rec["trial"]) == row.trial
            assert int(rec["seed"]) == row.seed
            for name in ("sweep_value", "energy", "tau1", "tau2", "achieved_mi", "achieved_rate"):
                assert float(rec[name]) == pytest.approx(getattr(row, name), rel=1e-11)

    def test_write_failure_carries_path(self, tmp_path):
        with pytest.raises(OSError, match="missing-dir"):
            write_csv([], tmp_path / "missing-dir" / "out.csv")
