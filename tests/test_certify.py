import ast
import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from wpirc import (
    ChannelRealization,
    OracleGrid,
    Solution,
    SolveStatus,
    brute_force_oracle,
    kkt_certificate,
    mrt_covariance,
    rank_one_extract,
    solve,
)
from wpirc import certify
from wpirc.certify import equal_power_demand_bound
from wpirc.sim import sample_channel

from conftest import make_params


def bisection_demand_bound(params, chan, tau2_steps=200):
    """The former equal-power bound, the reference for the Newton one.

    On every grid point it doubles a common energy from ``tau2`` until both
    rate floors hold (giving up after 200 checks), bisects it 80 times, and
    keeps the cheapest budget-feasible point.  The rates are in bits, as in
    ``radar_mi``/``comm_rate``; all grid points run at once.
    """
    nc, df, total_time = params.n_subcarriers, params.delta_f, params.total_time
    tau2 = np.linspace(total_time / tau2_steps, total_time, tau2_steps)

    def ok(g):
        def bits(snr):
            return df * tau2 * np.sum(np.log2(1.0 + g[:, None] * snr / tau2[:, None]), axis=1)

        return (0.5 * bits(chan.radar_snr) >= params.mi_floor) & (
            bits(chan.comm_snr) >= params.rate_floor
        )

    hi = tau2.copy()
    for _ in range(200):
        reached = ok(hi)
        if reached.all():
            break
        hi = np.where(reached, hi, 2.0 * hi)
    lo = np.zeros_like(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        good = ok(mid)
        hi, lo = np.where(good, mid, hi), np.where(good, lo, mid)
    demand = np.where(reached, nc * hi, math.inf)
    hn2 = float(np.vdot(chan.h, chan.h).real)
    fits = demand <= params.efficiency * hn2 * params.power_cap * (total_time - tau2)
    return float(np.min(demand[fits], initial=math.inf))


def criterion_1_instances():
    rng = np.random.default_rng(1)
    for seed in range(50):
        params = make_params(
            n_subcarriers=2,
            n_antennas=2,
            mi_floor=float(rng.uniform(5.0, 40.0)),
            rate_floor=float(rng.uniform(5.0, 40.0)),
        )
        yield params, sample_channel(seed, params, 10.0, 10.0)


def optimal_solution_for(h, demand, params, tau1=5e-5, tau2=5e-5):
    """Assemble a harvest-tight optimal-shaped solution around a channel."""
    q, trace = mrt_covariance(h, demand, params.efficiency)
    beam = rank_one_extract(q, tau1)
    gamma = np.full(params.n_subcarriers, demand / params.n_subcarriers)
    return Solution(
        status=SolveStatus.OPTIMAL,
        beam_vector=beam,
        tau1=tau1,
        tau2=tau2,
        gamma=gamma,
        energy=trace,
        covariance_bar=q,
    )


class TestKktCertificate:
    def test_basis_channel_dual_matrix(self):
        params = make_params(n_subcarriers=1, n_antennas=3, mi_floor=10.0)
        h = np.array([1.0, 0.0, 0.0], dtype=complex)
        chan = ChannelRealization(h=h, radar_snr=[1.0], comm_snr=[1.0])
        sol = optimal_solution_for(h, 1e-4, params)
        cert = kkt_certificate(params, chan, sol)
        assert cert.mu == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(cert.y_matrix, np.diag([0.0, 1.0, 1.0]), atol=1e-12)
        assert cert.rank_y == 2
        assert cert.valid

    def test_y_annihilates_channel(self, rng):
        params = make_params(n_subcarriers=1, n_antennas=4, mi_floor=10.0)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        chan = ChannelRealization(h=h, radar_snr=[1.0], comm_snr=[1.0])
        sol = optimal_solution_for(h, 1e-4, params)
        cert = kkt_certificate(params, chan, sol)
        assert np.linalg.norm(cert.y_matrix @ h) <= 1e-10 * np.linalg.norm(h)
        assert cert.valid

    def test_corrupted_rank_two_covariance_invalid(self):
        params = make_params(n_subcarriers=1, n_antennas=3, mi_floor=10.0)
        h = np.array([1.0, 1.0, 0.0], dtype=complex)
        chan = ChannelRealization(h=h, radar_snr=[1.0], comm_snr=[1.0])
        sol = optimal_solution_for(h, 1e-4, params)
        # replace the covariance by a rank-2 matrix of equal trace
        trace = float(np.trace(sol.covariance_bar).real)
        u1 = np.array([1.0, 0.0, 0.0], dtype=complex)
        u2 = np.array([0.0, 0.0, 1.0], dtype=complex)
        sol.covariance_bar = 0.5 * trace * (np.outer(u1, u1) + np.outer(u2, u2))
        cert = kkt_certificate(params, chan, sol)
        assert cert.complementary_residual > 1e-6 * trace
        assert not cert.valid

    def test_rejects_non_optimal(self):
        params = make_params()
        chan = ChannelRealization(h=[1, 1], radar_snr=[1, 1], comm_snr=[1, 1])
        sol = Solution.empty(SolveStatus.INFEASIBLE, params)
        with pytest.raises(ValueError):
            kkt_certificate(params, chan, sol)

    def test_every_optimal_solve_certifies(self):
        params = make_params(n_subcarriers=6, n_antennas=4, mi_floor=30.0, rate_floor=30.0)
        for seed in range(6):
            chan = sample_channel(seed, params, 10.0, 10.0)
            sol = solve(params, chan)
            if sol.status is SolveStatus.OPTIMAL:
                assert kkt_certificate(params, chan, sol).valid

    def test_single_antenna_optima_certify(self):
        # with N_t = 1, Y = 1 - |h|^2/||h||^2 is rounding noise (1.1e-16 on
        # these seeds); a rank threshold relative to Y's largest eigenvalue
        # counted it as rank one and rejected valid optima
        params = make_params(n_subcarriers=16, n_antennas=1, mi_floor=20.0, rate_floor=20.0)
        for seed in (8, 10, 14):
            chan = sample_channel(seed, params, 10.0, 10.0)
            sol = solve(params, chan)
            assert sol.status is SolveStatus.OPTIMAL
            cert = kkt_certificate(params, chan, sol)
            assert cert.rank_y == 0
            assert cert.valid


class TestRankOneExtract:
    def test_exact_rank_one(self, rng):
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u /= np.linalg.norm(u)
        u *= np.conj(u[0]) / np.abs(u[0])  # first entry positive real
        q = 2.0 * np.outer(u, u.conj())
        w = rank_one_extract(q, 1.0)
        np.testing.assert_allclose(w, np.sqrt(2.0) * u, rtol=1e-10, atol=1e-12)

    def test_zero_matrix(self):
        assert np.all(rank_one_extract(np.zeros((4, 4)), 1.0) == 0)

    def test_perturbed_rank_one_reconstruction(self, rng):
        u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        u /= np.linalg.norm(u)
        q = 2.0 * np.outer(u, u.conj()) + 1e-12 * np.eye(4)
        w = rank_one_extract(q, 1.0)
        err = np.linalg.norm(np.outer(w, w.conj()) - q)
        assert err <= 1e-11

    def test_tau_scaling(self, rng):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        q = np.outer(u, u.conj())
        w = rank_one_extract(q, 4.0)
        np.testing.assert_allclose(4.0 * np.outer(w, w.conj()), q, rtol=1e-10, atol=1e-14)

    def test_non_psd_rejected(self):
        q = np.diag([1.0, -0.5])
        with pytest.raises(ValueError):
            rank_one_extract(q, 1.0)

    def test_mrt_roundtrip_collinear_with_channel(self, rng):
        h = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        q, _ = mrt_covariance(h, 3e-4, 0.5)
        w = rank_one_extract(q, 2e-5)
        cosine = abs(np.vdot(h, w)) / (np.linalg.norm(h) * np.linalg.norm(w))
        assert cosine >= 1 - 1e-10


class TestEqualPowerDemandBound:
    def test_matches_bisection_on_criterion_1_instances(self):
        n_finite = 0
        for params, chan in criterion_1_instances():
            ref = bisection_demand_bound(params, chan)
            assert equal_power_demand_bound(params, chan) == pytest.approx(ref, rel=1e-12)
            n_finite += math.isfinite(ref)
        assert n_finite >= 40

    @pytest.mark.parametrize("steps", [1, 7, 200])
    def test_grid_sizes(self, steps):
        # with one step the only split is tau2 = T, which harvests nothing
        refs = []
        for params, chan in itertools.islice(criterion_1_instances(), 8):
            refs.append(bisection_demand_bound(params, chan, steps))
            got = equal_power_demand_bound(params, chan, tau2_steps=steps)
            assert got == pytest.approx(refs[-1], rel=1e-12)
        assert any(map(math.isfinite, refs)) == (steps > 1)

    @pytest.mark.parametrize("zero", ["mi_floor", "rate_floor"])
    def test_one_floor_exactly_zero(self, zero):
        params = make_params(n_subcarriers=3, mi_floor=30.0, rate_floor=30.0)
        params = replace(params, **{zero: 0.0})
        for seed in range(4):
            chan = sample_channel(seed, params, 10.0, 10.0)
            ref = bisection_demand_bound(params, chan)
            assert math.isfinite(ref)
            assert equal_power_demand_bound(params, chan) == pytest.approx(ref, rel=1e-12)

    def test_zero_snr_subcarriers(self):
        params = make_params(n_subcarriers=3, mi_floor=20.0, rate_floor=25.0)
        base = sample_channel(2, params, 10.0, 10.0)
        radar, comm = base.radar_snr.copy(), base.comm_snr.copy()
        radar[1], comm[0] = 0.0, 0.0
        chan = ChannelRealization(h=base.h, radar_snr=radar, comm_snr=comm)
        ref = bisection_demand_bound(params, chan)
        assert math.isfinite(ref)
        assert equal_power_demand_bound(params, chan) == pytest.approx(ref, rel=1e-12)

    def test_infeasible_instance_is_infinite(self):
        params = make_params(n_subcarriers=2, mi_floor=5e4)
        chan = sample_channel(1, params, 10.0, 10.0)
        assert bisection_demand_bound(params, chan) == math.inf
        assert equal_power_demand_bound(params, chan) == math.inf

    def test_all_zero_snr_under_a_positive_floor_is_infinite(self):
        params = make_params(n_subcarriers=2, mi_floor=10.0, rate_floor=10.0)
        chan = ChannelRealization(h=[1.0, 1.0], radar_snr=[0.0, 0.0], comm_snr=[1.0, 1.0])
        assert bisection_demand_bound(params, chan) == math.inf
        assert equal_power_demand_bound(params, chan) == math.inf

    def test_level_runs_once_per_floor_for_the_whole_grid(self, monkeypatch):
        level = certify._common_gamma
        sizes = []

        def counted(snr, floor, tau2, *rest):
            sizes.append(np.size(tau2))
            return level(snr, floor, tau2, *rest)

        monkeypatch.setattr(certify, "_common_gamma", counted)
        params, chan = next(criterion_1_instances())
        for steps in (1, 7, 200):
            sizes.clear()
            equal_power_demand_bound(params, chan, tau2_steps=steps)
            assert sizes == [steps, steps]


def test_solver_and_benchmark_do_not_load_certify():
    # the package __init__ imports every module, so the probe imports the
    # two modules under a bare package object to see what they pull in, and
    # then certify, which fails there if the three form an import cycle
    probe = (
        "import sys, types\n"
        "pkg = types.ModuleType('wpirc')\n"
        f"pkg.__path__ = [{str(Path(certify.__file__).parent)!r}]\n"
        "sys.modules['wpirc'] = pkg\n"
        "import wpirc.solver, wpirc.benchmark\n"
        "print(sorted(m for m in sys.modules if m.startswith('wpirc.')))\n"
        "import wpirc.certify\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout)
    assert {"wpirc.solver", "wpirc.benchmark"} <= set(loaded)
    assert "wpirc.certify" not in loaded


class TestBruteForceOracle:
    def grid_for(self, params, chan, steps=200):
        gmax = equal_power_demand_bound(params, chan, tau2_steps=steps)
        if not np.isfinite(gmax):
            hn2 = float(np.vdot(chan.h, chan.h).real)
            gmax = params.efficiency * hn2 * params.power_cap * params.total_time
        return OracleGrid(tau2_steps=steps, gamma_steps=steps, gamma_max=gmax)

    def test_zero_demand(self):
        params = make_params(mi_floor=0.0, rate_floor=0.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=[1, 1], comm_snr=[1, 1])
        sol = brute_force_oracle(params, chan, OracleGrid(50, 50, 1.0))
        assert sol.status is SolveStatus.ZERO_DEMAND
        assert sol.energy == 0.0

    def test_solver_dominates_oracle(self):
        for seed in range(5):
            params = make_params(n_subcarriers=2, mi_floor=20.0, rate_floor=25.0)
            chan = sample_channel(seed, params, 10.0, 10.0)
            sol = solve(params, chan)
            ref = brute_force_oracle(params, chan, self.grid_for(params, chan))
            assert sol.status == ref.status
            if sol.status is SolveStatus.OPTIMAL:
                assert sol.energy <= ref.energy * (1 + 1e-9)
                assert abs(sol.energy - ref.energy) <= 0.02 * ref.energy

    def test_infeasible_agreement(self):
        params = make_params(n_subcarriers=2, mi_floor=5e4, rate_floor=0.0)
        chan = sample_channel(1, params, 10.0, 10.0)
        sol = solve(params, chan)
        ref = brute_force_oracle(params, chan, self.grid_for(params, chan, steps=100))
        assert sol.status is SolveStatus.INFEASIBLE
        assert ref.status is SolveStatus.INFEASIBLE

    def test_too_many_subcarriers_rejected(self):
        params = make_params(n_subcarriers=4, mi_floor=1.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=np.ones(4), comm_snr=np.ones(4))
        with pytest.raises(ValueError):
            brute_force_oracle(params, chan, OracleGrid(10, 10, 1.0))
