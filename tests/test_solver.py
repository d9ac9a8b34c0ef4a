import warnings

import numpy as np
import pytest
from dataclasses import replace
from scipy.optimize import brentq, minimize_scalar

from wpirc import (
    ChannelRealization,
    DualPair,
    SolveStatus,
    check_constraints,
    inner_allocation,
    mrt_covariance,
    radar_mi,
    comm_rate,
    solve,
    subcarrier_gamma,
)
from wpirc.solver import (
    InfeasibleSignalError,
    Link,
    inner_dual_value,
    solve_with_allocation,
)
from wpirc.sim import sample_channel

from conftest import make_params

LN2 = np.log(2.0)
DF = 2.5e5


def _water_level(snr, target_logsum):
    """The single-floor water level of ``snr`` at one target: the floor's
    multiplier at ``scale = tau2 = 1``, where it is the level times ln 2."""
    return Link(snr, 1.0).fill(target_logsum, 1.0)[1] / LN2


def duals_from_levels(A, B, v, w, delta_f=DF):
    """Convert the per-subcarrier water terms A, B back to multipliers."""
    lam_r = A * 2 * LN2 / (delta_f * v) if v > 0 else 0.0
    lam_c = B * LN2 / (delta_f * w) if w > 0 else 0.0
    return DualPair(lam_r, lam_c)


class TestSubcarrierGamma:
    def test_single_constraint_closed_form(self):
        # A = 2, lambda_c = 0, v = 1: x = (A - 1)/v = 1
        duals = DualPair(4 * LN2 / DF, 0.0)
        assert subcarrier_gamma(duals, 1.0, 1.0, 1e-4, DF) == pytest.approx(1e-4, rel=1e-12)

    def test_below_water_level_gives_zero(self):
        # A + B <= 1 keeps the subcarrier silent
        duals = duals_from_levels(0.4, 0.5, v=1.0, w=1.0)
        assert subcarrier_gamma(duals, 1.0, 1.0, 1e-4, DF) == 0.0

    def test_matches_bisection_oracle(self):
        # oracle: scalar bisection on the monotone water equation
        v, w, A, B, tau2 = 2.0, 1.0, 1.5, 1.0, 1.0
        duals = duals_from_levels(A, B, v, w)

        def f(x):
            return A / (1 + x * v) + B / (1 + x * w) - 1.0

        lo, hi = 0.0, 1.0
        while f(hi) > 0:
            hi *= 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                lo = mid
            else:
                hi = mid
        x_oracle = 0.5 * (lo + hi)
        got = subcarrier_gamma(duals, v, w, tau2, DF)
        assert got == pytest.approx(tau2 * x_oracle, abs=1e-12)

    def test_degenerate_single_gain(self):
        # v = 0 collapses to single-constraint water-filling on w
        duals = duals_from_levels(0.0, 3.0, v=0.0, w=2.0)
        got = subcarrier_gamma(duals, 0.0, 2.0, 1e-4, DF)
        # x = (A + B - 1)/w = (3 - 1)/2 = 1
        assert got == pytest.approx(1e-4, rel=1e-12)


def water_level_loop(snr, target_logsum):
    """The per-candidate loop that the vectorized water level replaced."""
    v = np.sort(snr[snr > 0])[::-1]
    prefix = np.cumsum(np.log2(v))
    for k in range(1, v.size + 1):
        exponent = (target_logsum - prefix[k - 1]) / k
        a = np.inf if exponent > 1000.0 else 2.0**exponent
        if a * v[k - 1] >= 1.0 - 1e-14 and (k == v.size or a * v[k] < 1.0):
            return a
    return 2.0 ** ((target_logsum - prefix[-1]) / v.size)


class TestWaterLevel:
    # same candidates and tests; only the power of two may round differently
    RTOL = 1e-13

    def random_snr(self, rng):
        n = int(rng.integers(1, 40))
        snr = 10.0 ** rng.uniform(-6, 6, n)
        snr[rng.random(n) < 0.2] = 0.0
        snr[0] = max(snr[0], 1e-3)
        return snr

    def test_matches_loop_on_random_inputs(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(500):
                snr = self.random_snr(rng)
                target = float(rng.uniform(-100.0, 3000.0))
                assert _water_level(snr, target) == pytest.approx(
                    water_level_loop(snr, target), rel=self.RTOL
                )

    def test_active_set_boundaries(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(50):
                snr = self.random_snr(rng)
                v = np.sort(snr[snr > 0])[::-1]
                prefix = np.cumsum(np.log2(v))
                k = np.arange(1, v.size + 1)
                # targets at which subcarrier k+1 sits exactly at the water line
                edges = prefix[:-1] - k[:-1] * np.log2(v[1:])
                all_active = prefix[-1] + 50.0 * v.size
                one_active = 0.5 * edges[0] if v.size > 1 else 1.0
                overflow = 2e3 * v.size
                for target in (all_active, one_active, *edges, overflow):
                    got = _water_level(snr, float(target))
                    assert got == pytest.approx(water_level_loop(snr, target), rel=self.RTOL)
                assert _water_level(snr, float(all_active)) * v[-1] > 1.0
                one = _water_level(snr, float(one_active))
                assert one * v[0] >= 1.0
                assert v.size == 1 or one * v[1] < 1.0
                assert _water_level(snr, float(overflow)) == np.inf


class TestInnerAllocation:
    def test_zero_floors(self):
        params = make_params(n_subcarriers=3, mi_floor=0.0, rate_floor=0.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=[1, 2, 3], comm_snr=[1, 1, 1])
        res = inner_allocation(5e-5, chan, params)
        assert np.all(res.gamma == 0)
        assert res.duals == DualPair(0.0, 0.0)
        assert res.active == "none"

    def test_single_carrier_closed_form(self):
        # mi floor tight alone: gamma = tau2 (2^(2 R_r / (df tau2)) - 1) / v
        tau2, v = 1e-4, 0.5
        params = make_params(n_subcarriers=1, mi_floor=12.5, rate_floor=0.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=[v], comm_snr=[0.1])
        res = inner_allocation(tau2, chan, params)
        assert res.gamma[0] == pytest.approx(2 * tau2, rel=1e-10)
        assert res.active == "mi"

    def test_two_carrier_grid_oracle(self):
        # exhaustive 2-D grid over (gamma_1, gamma_2) at fixed tau2
        tau2 = 1e-4
        v = np.array([1.0, 0.2])
        w = np.array([0.3, 1.0])
        params = make_params(n_subcarriers=2, mi_floor=30.0, rate_floor=30.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=v, comm_snr=w)
        res = inner_allocation(tau2, chan, params)
        s_solver = float(np.sum(res.gamma))

        g = np.linspace(0, 12 * tau2, 1200)
        mi = 0.5 * DF * tau2 * (
            np.log2(1 + g[:, None] * v[0] / tau2) + np.log2(1 + g[None, :] * v[1] / tau2)
        )
        rate = DF * tau2 * (
            np.log2(1 + g[:, None] * w[0] / tau2) + np.log2(1 + g[None, :] * w[1] / tau2)
        )
        s_grid = g[:, None] + g[None, :]
        mask = (mi >= 30.0) & (rate >= 30.0)
        assert mask.any()
        s_oracle = float(np.min(s_grid[mask]))
        step = g[1] - g[0]
        assert s_solver <= s_oracle + 1e-12
        assert s_oracle - s_solver <= 4 * step

    def test_duals_regenerate_gamma(self):
        # dual-to-primal reconstruction through the scalar water equation
        params = make_params(n_subcarriers=6, mi_floor=40.0, rate_floor=55.0)
        for seed in range(5):
            chan = sample_channel(seed, replace(params, n_antennas=2), 8.0, 6.0)
            res = inner_allocation(4e-5, chan, params)
            for m in range(6):
                regen = subcarrier_gamma(
                    res.duals, chan.radar_snr[m], chan.comm_snr[m], 4e-5, DF
                )
                assert abs(regen - res.gamma[m]) <= 1e-9

    def test_complementary_slackness(self):
        params = make_params(n_subcarriers=4, mi_floor=35.0, rate_floor=20.0)
        chan = sample_channel(3, replace(params, n_antennas=2), 10.0, 10.0)
        res = inner_allocation(5e-5, chan, params)
        mi = radar_mi(res.gamma, chan.radar_snr, 5e-5, DF)
        rate = comm_rate(res.gamma, chan.comm_snr, 5e-5, DF)
        assert res.duals.lambda_r * abs(mi - 35.0) <= 1e-6
        assert res.duals.lambda_c * abs(rate - 20.0) <= 1e-6
        assert res.stationarity_residual <= 1e-9

    def test_dual_gradient_matches_finite_differences(self, rng):
        params = make_params(n_subcarriers=5, mi_floor=30.0, rate_floor=40.0)
        chan = sample_channel(11, replace(params, n_antennas=2), 9.0, 9.0)
        tau2 = 6e-5
        for _ in range(5):
            lr, lc = rng.uniform(1e-6, 1e-4, 2)
            _, grad = inner_dual_value(DualPair(lr, lc), tau2, chan, params)
            eps_r, eps_c = 1e-6 * lr, 1e-6 * lc
            vp, _ = inner_dual_value(DualPair(lr + eps_r, lc), tau2, chan, params)
            vm, _ = inner_dual_value(DualPair(lr - eps_r, lc), tau2, chan, params)
            assert (vp - vm) / (2 * eps_r) == pytest.approx(grad[0], rel=1e-5, abs=1e-8)
            vp, _ = inner_dual_value(DualPair(lr, lc + eps_c), tau2, chan, params)
            vm, _ = inner_dual_value(DualPair(lr, lc - eps_c), tau2, chan, params)
            assert (vp - vm) / (2 * eps_c) == pytest.approx(grad[1], rel=1e-5, abs=1e-8)


class TestMrtCovariance:
    def test_two_antenna_closed_form(self):
        h = np.array([1.0, 1.0])
        q, trace = mrt_covariance(h, 1.0, 0.5)
        np.testing.assert_allclose(q, 0.5 * np.outer(h, h), rtol=1e-12)
        assert trace == pytest.approx(1.0, rel=1e-12)
        # harvest constraint met with equality
        assert 0.5 * np.trace(np.outer(h, h) @ q).real == pytest.approx(1.0, rel=1e-12)

    def test_basis_vector_channel(self):
        q, trace = mrt_covariance([1.0, 0.0, 0.0], 2.0, 1.0)
        expected = np.zeros((3, 3))
        expected[0, 0] = 2.0
        np.testing.assert_allclose(q, expected, atol=1e-15)
        assert trace == 2.0

    def test_zero_demand(self):
        q, trace = mrt_covariance([1.0, 2.0], 0.0, 0.5)
        assert np.all(q == 0) and trace == 0.0

    def test_zero_channel_rejected(self):
        with pytest.raises(InfeasibleSignalError):
            mrt_covariance([0.0, 0.0], 1.0, 0.5)


class TestSolve:
    def test_zero_demand(self):
        params = make_params(mi_floor=0.0, rate_floor=0.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=[1, 1], comm_snr=[1, 1])
        sol = solve(params, chan)
        assert sol.status is SolveStatus.ZERO_DEMAND
        assert sol.energy == 0.0
        assert np.all(sol.gamma == 0)

    def test_scalar_pipeline_oracle(self):
        # N_c = N_t = 1: closed-form demand curve + scalar root search
        r_r, v, eta, p_cap, t_total = 12.0, 0.7, 1.0, 50.0, 1e-4
        params = make_params(
            n_subcarriers=1, n_antennas=1, efficiency=eta, power_cap=p_cap,
            mi_floor=r_r, rate_floor=0.0,
        )
        chan = ChannelRealization(h=[1.0], radar_snr=[v], comm_snr=[0.0])
        sol = solve(params, chan)
        assert sol.status is SolveStatus.OPTIMAL

        def demand(t2):
            return t2 * (2 ** (2 * r_r / (DF * t2)) - 1) / v

        def phi(t2):
            return demand(t2) - eta * 1.0 * p_cap * (t_total - t2)

        t_min = minimize_scalar(
            phi, bounds=(1e-12 * t_total, t_total * (1 - 1e-12)), method="bounded",
            options={"xatol": 1e-15},
        ).x
        assert phi(t_min) < 0
        root = brentq(phi, t_min, t_total * (1 - 1e-12), xtol=1e-18)
        energy_oracle = demand(root) / (eta * 1.0)
        assert sol.energy == pytest.approx(energy_oracle, rel=1e-8)
        assert sol.tau2 == pytest.approx(root, rel=1e-8)

    def test_infeasible_demand(self):
        params = make_params(n_subcarriers=2, mi_floor=1e7, rate_floor=0.0)
        chan = ChannelRealization(h=[0.3, 0.1], radar_snr=[1.0, 1.0], comm_snr=[1.0, 1.0])
        sol = solve(params, chan)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_optimality_structure(self):
        # time budget and energy causality tight, at least one rate floor tight, MRT alignment
        for seed in range(6):
            params = make_params(
                n_subcarriers=4, n_antennas=3, mi_floor=25.0, rate_floor=30.0
            )
            chan = sample_channel(seed, params, 10.0, 10.0)
            sol = solve(params, chan)
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            t = params.total_time
            assert abs(sol.tau1 + sol.tau2 - t) <= 1e-8 * t
            harvested = params.efficiency * sol.tau1 * abs(np.vdot(chan.h, sol.beam_vector)) ** 2
            demand = float(np.sum(sol.gamma))
            assert harvested == pytest.approx(demand, rel=1e-8)
            mi = radar_mi(sol.gamma, chan.radar_snr, sol.tau2, DF)
            rate = comm_rate(sol.gamma, chan.comm_snr, sol.tau2, DF)
            assert (
                abs(mi - params.mi_floor) <= 1e-6 * max(1, params.mi_floor)
                or abs(rate - params.rate_floor) <= 1e-6 * max(1, params.rate_floor)
            )
            align = abs(np.vdot(chan.h, sol.beam_vector))
            bound = np.linalg.norm(chan.h) * np.linalg.norm(sol.beam_vector)
            assert align == pytest.approx(bound, rel=1e-8)
            assert np.linalg.norm(sol.beam_vector) ** 2 <= params.power_cap * (1 + 1e-9)
            assert sol.energy == pytest.approx(np.trace(sol.covariance_bar).real, rel=1e-9)

    def test_energy_monotonicity(self):
        base = make_params(n_subcarriers=4, n_antennas=3, mi_floor=25.0, rate_floor=25.0)
        chan = sample_channel(5, base, 10.0, 10.0)
        e0 = solve(base, chan).energy
        assert solve(replace(base, mi_floor=40.0), chan).energy >= e0 - 1e-15
        assert solve(replace(base, rate_floor=40.0), chan).energy >= e0 - 1e-15
        assert solve(replace(base, efficiency=0.9), chan).energy <= e0 + 1e-15
        assert solve(replace(base, power_cap=100.0), chan).energy <= e0 + 1e-15
        boosted = ChannelRealization(
            h=2.0 * chan.h, radar_snr=chan.radar_snr, comm_snr=chan.comm_snr
        )
        assert solve(base, boosted).energy <= e0 + 1e-15

    def test_allocator_runs_once_per_probe(self):
        # the profile at the optimal tau2 is the root search's last probe
        params = make_params(n_subcarriers=8, n_antennas=3, mi_floor=25.0, rate_floor=30.0)
        chan = sample_channel(1, params, 10.0, 10.0)
        probes = []

        def allocator(t2):
            probes.append(t2)
            res = inner_allocation(t2, chan, params)
            return res.gamma, res.slope

        sol = solve_with_allocation(params, chan, allocator)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.tau2 in probes
        assert len(probes) == len(set(probes))

    def test_inner_demand_nonincreasing_in_tau2(self):
        params = make_params(n_subcarriers=4, mi_floor=20.0, rate_floor=30.0)
        chan = sample_channel(2, replace(params, n_antennas=2), 10.0, 10.0)
        taus = np.linspace(1e-5, 1e-4, 12)
        demands = [float(np.sum(inner_allocation(t, chan, params).gamma)) for t in taus]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(demands, demands[1:]))


TWO_CARRIERS = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 2.0], comm_snr=[2.0, 1.0])


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: DualPair(-1.0, 0.0), "multipliers must be nonnegative"),
        (lambda: subcarrier_gamma(DualPair(1.0, 1.0), 1.0, 1.0, 0.0, 2.5e5), "tau2 must be"),
        (lambda: subcarrier_gamma(DualPair(1.0, 1.0), -1.0, 1.0, 1e-4, 2.5e5), "gains must be"),
        (lambda: inner_allocation(0.0, TWO_CARRIERS, make_params(mi_floor=1.0)), "tau2 must be"),
        (lambda: mrt_covariance([1.0, 0.0], -1.0, 0.5), "demand must be nonnegative"),
        (lambda: solve(make_params(n_antennas=3), TWO_CARRIERS), "n_antennas"),
        (lambda: solve(make_params(n_subcarriers=3), TWO_CARRIERS), "n_subcarriers"),
    ],
    ids=["dual-pair", "gamma-tau2", "gamma-gains", "inner-tau2", "mrt-demand", "solve-antennas",
         "solve-subcarriers"],
)
def test_invalid_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
