import numpy as np
import pytest

from wpirc import (
    ChannelRealization,
    Solution,
    SolveStatus,
    SystemParams,
    check_constraints,
    comm_rate,
    harvested_energy,
    radar_mi,
    solve,
)
from wpirc.sim import sample_channel

from conftest import make_params


class TestHarvestedEnergy:
    def test_direct_value(self):
        e = harvested_energy([1, 0], [np.sqrt(50), 0], 1e-4, 0.5)
        assert e == pytest.approx(2.5e-3, rel=1e-12)

    def test_orthogonal_beam_harvests_nothing(self):
        assert harvested_energy([1, 0], [0, 3], 1e-4, 0.5) == 0.0

    def test_aligned_beam_attains_cauchy_schwarz_bound(self, rng):
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        w = 2.7 * h
        e = harvested_energy(h, w, 1e-4, 0.8)
        bound = 0.8 * 1e-4 * np.linalg.norm(h) ** 2 * np.linalg.norm(w) ** 2
        assert e == pytest.approx(bound, rel=1e-12)

    def test_phase_rotation_invariance(self, rng):
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for phase in (0.3, 1.7, -2.1):
            rotated = np.exp(1j * phase) * w
            assert harvested_energy(h, rotated, 1e-4, 0.5) == pytest.approx(
                harvested_energy(h, w, 1e-4, 0.5), rel=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            harvested_energy([1, 0], [1, 0, 0], 1e-4, 0.5)


class TestRateEvaluators:
    def test_radar_mi_single_term(self):
        assert radar_mi([4e-4], [0.25], 1e-4, 2.5e5) == pytest.approx(12.5, rel=1e-12)

    def test_comm_rate_single_term(self):
        assert comm_rate([4e-4], [0.25], 1e-4, 2.5e5) == pytest.approx(25.0, rel=1e-12)

    def test_zero_gamma(self):
        assert radar_mi([0.0, 0.0], [1.0, 2.0], 1e-4, 2.5e5) == 0.0
        assert comm_rate([0.0, 0.0], [1.0, 2.0], 1e-4, 2.5e5) == 0.0

    def test_tau2_zero_limit(self):
        assert radar_mi([1e-3], [1.0], 0.0, 2.5e5) == 0.0

    def test_comm_rate_is_twice_radar_mi(self, rng):
        gamma = rng.uniform(0, 1e-3, 8)
        snr = rng.uniform(0, 5, 8)
        assert comm_rate(gamma, snr, 3e-5, 2.5e5) == pytest.approx(
            2 * radar_mi(gamma, snr, 3e-5, 2.5e5), rel=1e-12
        )

    @pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
    def test_perspective_homogeneity(self, rng, c):
        gamma = rng.uniform(0, 1e-3, 16)
        v = rng.uniform(0, 10, 16)
        tau2 = 4e-5
        for fn in (radar_mi, comm_rate):
            assert fn(c * gamma, v, c * tau2, 2.5e5) == pytest.approx(
                c * fn(gamma, v, tau2, 2.5e5), rel=1e-12
            )

    def test_concave_nondecreasing_in_each_gamma(self, rng):
        v = rng.uniform(0.1, 10, 4)
        tau2, df, eps = 5e-5, 2.5e5, 1e-8
        for _ in range(20):
            gamma = rng.uniform(0, 1e-3, 4)
            m = rng.integers(0, 4)
            for fn in (radar_mi, comm_rate):
                f0 = fn(gamma, v, tau2, df)
                up = gamma.copy()
                up[m] += eps
                up2 = gamma.copy()
                up2[m] += 2 * eps
                f1, f2 = fn(up, v, tau2, df), fn(up2, v, tau2, df)
                assert f1 >= f0  # nondecreasing
                assert f2 - 2 * f1 + f0 <= 1e-9 * max(1.0, abs(f0))  # concave

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            radar_mi([-1e-4], [1.0], 1e-4, 2.5e5)
        with pytest.raises(ValueError):
            comm_rate([1e-4], [-1.0], 1e-4, 2.5e5)


class TestSystemParams:
    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            make_params(efficiency=1.5)

    def test_rejects_symbol_longer_than_total(self):
        with pytest.raises(ValueError):
            make_params(symbol_duration=2e-4)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            make_params(n_subcarriers=0)

    @pytest.mark.parametrize("name", ["n_subcarriers", "n_antennas"])
    def test_rejects_non_integral_counts(self, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer, not 4.0"):
            make_params(**{name: 4.0})
        assert getattr(make_params(**{name: np.int64(4)}), name) == 4

    @pytest.mark.parametrize(
        "name",
        ["delta_f", "symbol_duration", "total_time", "power_cap", "efficiency", "mi_floor",
         "rate_floor"],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_float(self, name, value):
        with pytest.raises(ValueError):
            make_params(**{name: value})


class TestChannelRealization:
    @pytest.mark.parametrize("name", ["h", "radar_snr", "comm_snr"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, name, value):
        fields = {"h": np.ones(2, complex), "radar_snr": np.ones(3), "comm_snr": np.ones(3)}
        fields[name][1] = value
        with pytest.raises(ValueError, match="finite"):
            ChannelRealization(**fields)

    def test_accepts_zero_snrs_and_zero_channel(self):
        chan = ChannelRealization(h=np.zeros(2), radar_snr=np.zeros(3), comm_snr=np.zeros(3))
        assert chan.n_subcarriers == 3


class TestCheckConstraints:
    def test_zero_solution_zero_floors(self):
        params = make_params()
        chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 1.0], comm_snr=[1.0, 1.0])
        sol = Solution.empty(SolveStatus.ZERO_DEMAND, params)
        report = check_constraints(params, chan, sol)
        assert report.all_satisfied

    def test_zero_solution_violates_positive_mi_floor(self):
        params = make_params(mi_floor=7.0)
        chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 1.0], comm_snr=[1.0, 1.0])
        sol = Solution.empty(SolveStatus.ZERO_DEMAND, params)
        report = check_constraints(params, chan, sol)
        c1 = report["mi_floor"]
        assert not c1.satisfied
        assert c1.slack == pytest.approx(-7.0)

    def test_solver_output_closure(self):
        # every optimal solve must pass its own feasibility report
        for seed in range(8):
            params = make_params(
                n_subcarriers=4, n_antennas=3, mi_floor=20.0, rate_floor=25.0
            )
            chan = sample_channel(seed, params, 10.0, 10.0)
            sol = solve(params, chan)
            if sol.status is SolveStatus.OPTIMAL:
                assert check_constraints(params, chan, sol, tol=1e-6).all_satisfied


def zero_solution_report(n_subcarriers=2, n_antennas=2):
    """The constraint report of the zero solution, sized by the arguments,
    on a two-antenna, two-subcarrier channel."""
    params = make_params(n_subcarriers=n_subcarriers, n_antennas=n_antennas)
    chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 1.0], comm_snr=[1.0, 1.0])
    return check_constraints(params, chan, Solution.empty(SolveStatus.ZERO_DEMAND, params))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: ChannelRealization(h=np.ones((2, 2)), radar_snr=[1.0], comm_snr=[1.0]),
         ValueError, "one-dimensional"),
        (lambda: ChannelRealization(h=[1.0], radar_snr=[1.0, 1.0], comm_snr=[1.0]),
         ValueError, "equal length"),
        (lambda: ChannelRealization(h=[1.0], radar_snr=[-1.0], comm_snr=[1.0]),
         ValueError, "nonnegative"),
        (lambda: zero_solution_report()["no_such_constraint"], KeyError, "no_such_constraint"),
        (lambda: harvested_energy([1, 0], [1, 0], -1e-4, 0.5), ValueError, "tau1"),
        (lambda: harvested_energy([1, 0], [1, 0], 1e-4, 1.5), ValueError, "eta"),
        (lambda: radar_mi([1e-4, 1e-4], [1.0], 1e-4, 2.5e5), ValueError, "equal length"),
        (lambda: zero_solution_report(n_subcarriers=3), ValueError, "gamma length"),
        (lambda: zero_solution_report(n_antennas=3), ValueError, "beam_vector length"),
    ],
    ids=["channel-ndim", "channel-lengths", "channel-negative", "report-key", "harvest-tau1",
         "harvest-eta", "rate-lengths", "check-gamma", "check-beam"],
)
def test_invalid_input_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()
