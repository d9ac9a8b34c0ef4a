import ast
import itertools
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from wpirc.model import LN2, harvest_rate
from wpirc.sim import sample_channel
from wpirc.solver import SolverError, _mrt_solution, _spread_slots, links

from conftest import make_params
from test_time_split import edge_snrs


# a positive floor from 1e-3 to 1e3 bits: below 1e-3 the bisection's 80
# halvings of a level from tau2 stop short of the level itself
edge_floors = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


def bisection_demand_bound(params, chan, tau2_steps=200):
    """The former equal-power bound, the reference for the Newton one.

    On every grid point it doubles a common energy from ``tau2`` until both
    rate floors hold (giving up after 200 checks), bisects it 80 times, and
    keeps the cheapest budget-feasible point.  The rates are in bits, as in
    ``radar_mi``/``comm_rate``, but summed over ``log1p``: ``log2(1 + y)``
    loses ``1e-16 / y`` relative where ``y`` is small, past 1e-12 for
    floors near 1e-3 bits.  All grid points run at once.
    """
    nc, df, total_time = params.n_subcarriers, params.delta_f, params.total_time
    tau2 = np.linspace(total_time / tau2_steps, total_time, tau2_steps)

    def ok(g):
        def bits(snr):
            return df * tau2 * np.sum(np.log1p(g[:, None] * snr / tau2[:, None]), axis=1) / LN2

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


def dense_grid_oracle(params, chan, grid):
    """The former grid oracle, the reference for the row search.

    For every ``tau2`` step it builds the whole ``gamma_steps ** N_c`` grid
    of MI, rate and energy, masks it and takes the first C-order minimum,
    keeping the first step with a strictly smaller one.  The best point's
    ``Solution`` is assembled as the solvers assemble theirs; its beam is
    checked against :func:`rank_one_extract` on its own.
    """
    nc = params.n_subcarriers
    if params.mi_floor == 0.0 and params.rate_floor == 0.0:
        return Solution.empty(SolveStatus.ZERO_DEMAND, params)

    hn2 = float(np.real(np.vdot(chan.h, chan.h)))
    budget_rate = params.efficiency * hn2 * params.power_cap
    total_time = params.total_time
    g_axis = np.linspace(0.0, grid.gamma_max, grid.gamma_steps)
    tau2_axis = np.linspace(total_time / grid.tau2_steps, total_time, grid.tau2_steps)

    def spread(vec, axis):
        shape = [1] * nc
        shape[axis] = -1
        return vec.reshape(shape)

    s_grid = sum(spread(g_axis, i) for i in range(nc))

    best_s = np.inf
    best = None
    for t2 in tau2_axis:
        half = 0.5 * params.delta_f * t2
        mi = sum(
            spread(half * np.log2(1.0 + g_axis * chan.radar_snr[i] / t2), i)
            for i in range(nc)
        )
        rate = sum(
            spread(2.0 * half * np.log2(1.0 + g_axis * chan.comm_snr[i] / t2), i)
            for i in range(nc)
        )
        feasible = (
            (mi >= params.mi_floor)
            & (rate >= params.rate_floor)
            & (s_grid <= budget_rate * (total_time - t2))
        )
        if not feasible.any():
            continue
        masked = np.where(feasible, s_grid, np.inf)
        idx = np.unravel_index(np.argmin(masked), masked.shape)
        if masked[idx] < best_s:
            best_s = float(masked[idx])
            best = (float(t2), g_axis[np.array(idx)])

    if best is None:
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    tau2, gamma = best
    return _mrt_solution(params, chan.h, tau2, gamma, best_s)


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


def oracle_grid(params, chan, tau2_steps=200, gamma_steps=200):
    """The default grid, with the instance's gamma edge fixed in it."""
    grid = OracleGrid(tau2_steps, gamma_steps)
    return replace(grid, gamma_max=grid.gamma_edge(params, chan))


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


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: rank_one_extract(np.eye(2), 0.0), "tau1 must be positive"),
        (lambda: rank_one_extract([[1.0, 1.0], [0.0, 1.0]], 1.0), "Hermitian"),
        (lambda: rank_one_extract(np.diag([-1.0, -0.5]), 1.0), "positive semidefinite"),
        (lambda: kkt_certificate(
            make_params(), ChannelRealization(h=[0, 0], radar_snr=[1, 1], comm_snr=[1, 1]),
            Solution.empty(SolveStatus.OPTIMAL, make_params())), "zero channel"),
    ],
    ids=["tau1", "non-hermitian", "negative-definite", "kkt-zero-channel"],
)
def test_invalid_input_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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

    @pytest.mark.parametrize(
        "size, match",
        [({"n_subcarriers": 8}, "SNR vector length"), ({"n_antennas": 5}, "channel vector length")],
        ids=["subcarriers", "antennas"],
    )
    def test_channel_of_another_size_rejected(self, size, match):
        params = make_params(n_subcarriers=16, n_antennas=3, mi_floor=20.0, rate_floor=20.0)
        chan = sample_channel(0, params, 15.0, 10.0)
        with pytest.raises(ValueError, match=match):
            equal_power_demand_bound(replace(params, **size), chan)

    def test_two_least_power_passes_whatever_the_grid(self, monkeypatch):
        # one pass finds the equal-power slot, one more the grid splits next to it
        passes = []

        def counted(pair, floors, budget_rate, total_time, slot):
            passes.append((floors.shape, np.size(slot)))
            return _spread_slots(pair, floors, budget_rate, total_time, slot)

        monkeypatch.setattr(certify, "_spread_slots", counted)
        params, chan = next(criterion_1_instances())
        for steps in (1, 2, 7, 200, 5000):
            passes.clear()
            assert math.isfinite(equal_power_demand_bound(params, chan, tau2_steps=steps)) == (
                steps > 1
            )
            (first, one), (second, near) = passes
            assert first == (2, 1) and one == 1
            assert second == (2, near) and 1 <= near <= min(3, steps)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        nc=st.sampled_from([1, 2, 3]),
        floors=st.one_of(
            st.tuples(edge_floors, edge_floors),
            st.tuples(edge_floors, st.just(0.0)),
            st.tuples(st.just(0.0), edge_floors),
        ),
        steps=st.sampled_from([1, 2, 3, 7, 200]),
        gain=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_matches_bisection_on_edge_instances(self, data, nc, floors, steps, gain):
        radar = data.draw(st.lists(edge_snrs, min_size=nc, max_size=nc), label="radar")
        comm = data.draw(st.lists(edge_snrs, min_size=nc, max_size=nc), label="comm")
        chan = ChannelRealization(h=[10.0**gain, 0.5j], radar_snr=radar, comm_snr=comm)
        params = make_params(n_subcarriers=nc, mi_floor=floors[0], rate_floor=floors[1])
        ref = bisection_demand_bound(params, chan, steps)
        got = equal_power_demand_bound(params, chan, tau2_steps=steps)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("steps", [2, 3, 7, 200])
    def test_slot_within_rounding_of_a_grid_split(self, steps):
        # rate floors within a few ulps of the bits that spend the whole
        # budget exactly at a grid split: whether that split fits is
        # rounding, and the bound must read what the least powers at every
        # split of the grid give, bit for bit
        params, chan = next(criterion_1_instances())
        pair = links(chan, params.delta_f)
        budget, total_time = harvest_rate(params, chan), params.total_time
        tau2 = np.linspace(total_time / steps, total_time, steps)
        for k in sorted({0, (steps - 1) // 2, steps - 2}):
            power = budget * (total_time - tau2[k]) / tau2[k]
            bits = pair[1].bits(power / params.n_subcarriers, tau2[k])
            for ulps in range(-3, 4):
                rate_floor = bits + ulps * np.spacing(bits)
                floors = np.repeat([[0.0], [rate_floor]], steps, 1)
                demand = tau2 * np.maximum(*_spread_slots(pair, floors, budget, total_time, tau2))
                dense = np.min(demand[demand <= budget * (total_time - tau2)], initial=math.inf)
                trial = replace(params, mi_floor=0.0, rate_floor=rate_floor)
                assert equal_power_demand_bound(trial, chan, tau2_steps=steps) == dense


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
            ref = brute_force_oracle(params, chan, oracle_grid(params, chan))
            assert sol.status == ref.status
            if sol.status is SolveStatus.OPTIMAL:
                assert sol.energy <= ref.energy * (1 + 1e-9)
                assert abs(sol.energy - ref.energy) <= 0.02 * ref.energy

    def test_infeasible_agreement(self):
        params = make_params(n_subcarriers=2, mi_floor=5e4, rate_floor=0.0)
        chan = sample_channel(1, params, 10.0, 10.0)
        sol = solve(params, chan)
        ref = brute_force_oracle(params, chan, oracle_grid(params, chan, 100, 100))
        assert sol.status is SolveStatus.INFEASIBLE
        assert ref.status is SolveStatus.INFEASIBLE

    def test_beam_is_the_leading_eigenvector(self):
        n_optimal = 0
        for params, chan in criterion_1_instances():
            sol = brute_force_oracle(params, chan, oracle_grid(params, chan))
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            n_optimal += 1
            ref = rank_one_extract(sol.covariance_bar, sol.tau1)
            assert np.max(np.abs(sol.beam_vector - ref)) <= 1e-12 * np.linalg.norm(ref)
        assert n_optimal >= 40

    def test_positive_floor_on_an_all_zero_link_is_infeasible(self):
        # the harvest overflows, so no finite gamma axis spans it; no energy
        # meets the MI floor on a link with no positive SNR anyway
        params = make_params(mi_floor=5.0, rate_floor=5.0)
        chan = ChannelRealization(h=[1e200, 1e200], radar_snr=[0.0, 0.0], comm_snr=[1.0, 2.0])
        assert solve(params, chan).status is SolveStatus.INFEASIBLE
        sol = brute_force_oracle(params, chan, OracleGrid(10, 10))
        assert sol.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("seed", range(6))
    def test_default_grid_is_optimal_at_one_subcarrier(self, seed):
        # the equal-power bound is the exact demand of one subcarrier: the
        # default edge widens it, so the grid point there meets the floors
        params = make_params(n_subcarriers=1, n_antennas=5, mi_floor=10.0, rate_floor=12.0)
        chan = sample_channel(seed, params, 10.0, 10.0)
        assert solve(params, chan).status is SolveStatus.OPTIMAL
        ref = brute_force_oracle(params, chan, OracleGrid(200, 200))
        assert ref.status is SolveStatus.OPTIMAL

    def test_too_many_subcarriers_rejected(self):
        params = make_params(n_subcarriers=4, mi_floor=1.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=np.ones(4), comm_snr=np.ones(4))
        with pytest.raises(ValueError):
            brute_force_oracle(params, chan, OracleGrid(10, 10, 1.0))


def assert_same_solution(got, ref):
    assert got.status is ref.status
    assert (got.energy, got.tau1, got.tau2) == (ref.energy, ref.tau1, ref.tau2)
    assert np.array_equal(got.gamma, ref.gamma)
    assert np.array_equal(got.beam_vector, ref.beam_vector)
    assert np.array_equal(got.covariance_bar, ref.covariance_bar)


def assert_matches_dense(params, chan, grid):
    ref = dense_grid_oracle(params, chan, grid)
    assert_same_solution(brute_force_oracle(params, chan, grid), ref)
    return ref


def grid_point_values(params, chan, grid, sol):
    """MI, rate and energy of the oracle's point, as the dense grid has them."""
    total_time = params.total_time
    tau2_axis = np.linspace(total_time / grid.tau2_steps, total_time, grid.tau2_steps)
    g_axis = np.linspace(0.0, grid.gamma_max, grid.gamma_steps)
    t2 = tau2_axis[np.flatnonzero(tau2_axis == sol.tau2)[0]]
    idx = [np.flatnonzero(g_axis == g)[0] for g in sol.gamma]
    half = 0.5 * params.delta_f * t2
    mi = sum(half * np.log2(1.0 + g_axis * s / t2)[i] for s, i in zip(chan.radar_snr, idx))
    rate = sum(2.0 * half * np.log2(1.0 + g_axis * s / t2)[i] for s, i in zip(chan.comm_snr, idx))
    return mi, rate, sum(g_axis[i] for i in idx), t2


def channel(seed, nc, radar, comm):
    """A seeded two-antenna channel with the given SNRs (scalars or vectors)."""
    h = np.random.default_rng(seed).standard_normal((2, 2)) @ np.array([1.0, 1j])
    return ChannelRealization(h=h, radar_snr=np.full(nc, radar), comm_snr=np.full(nc, comm))


class TestOracleMatchesDenseSearch:
    """The row search returns exactly the dense search's ``Solution``."""

    def test_criterion_1_instances(self):
        statuses = []
        for params, chan in criterion_1_instances():
            statuses.append(assert_matches_dense(params, chan, oracle_grid(params, chan)).status)
        assert statuses.count(SolveStatus.OPTIMAL) >= 40
        assert SolveStatus.INFEASIBLE in statuses

    def test_one_subcarrier(self):
        params = make_params(n_subcarriers=1, mi_floor=20.0, rate_floor=25.0)
        for seed in range(4):
            chan = channel(seed, 1, 10.0 ** (seed / 2), 3.0)
            ref = assert_matches_dense(params, chan, oracle_grid(params, chan))
            assert ref.status is SolveStatus.OPTIMAL

    def test_three_subcarriers(self):
        params = make_params(n_subcarriers=3, mi_floor=24.0, rate_floor=30.0)
        for seed in range(4):
            chan = sample_channel(seed, params, 10.0, 10.0)
            ref = assert_matches_dense(params, chan, oracle_grid(params, chan, 40, 40))
            assert ref.status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("zero", ["mi_floor", "rate_floor"])
    @pytest.mark.parametrize("nc", [1, 2, 3])
    def test_one_floor_exactly_zero(self, zero, nc):
        params = make_params(n_subcarriers=nc, mi_floor=15.0, rate_floor=20.0)
        params = replace(params, **{zero: 0.0})
        for seed in range(3):
            chan = sample_channel(seed, params, 10.0, 10.0)
            grid = oracle_grid(params, chan, 40, 40)
            assert assert_matches_dense(params, chan, grid).status is SolveStatus.OPTIMAL

    def test_infeasible_floor(self):
        params = make_params(n_subcarriers=2, mi_floor=5e4, rate_floor=10.0)
        chan = sample_channel(1, params, 10.0, 10.0)
        ref = assert_matches_dense(params, chan, oracle_grid(params, chan))
        assert ref.status is SolveStatus.INFEASIBLE

    def test_best_point_on_the_budget_edge(self):
        # the power cap at which the budget of the best point's time split
        # equals its energy exactly: the point fits there, not an ulp below
        n_edges = 0
        for params, chan in itertools.islice(criterion_1_instances(), 6):
            grid = oracle_grid(params, chan)
            ref = dense_grid_oracle(params, chan, grid)
            _, _, energy, t2 = grid_point_values(params, chan, grid, ref)
            hn2 = float(np.vdot(chan.h, chan.h).real)
            cap = energy / (params.efficiency * hn2 * (params.total_time - t2))
            for cap in (cap, *np.nextafter(cap, [0.0, np.inf])):
                budget = params.efficiency * hn2 * cap * (params.total_time - t2)
                if budget == energy:
                    break
            else:
                continue
            n_edges += 1
            edge = assert_matches_dense(replace(params, power_cap=float(cap)), chan, grid)
            assert_same_solution(edge, ref)
            below = replace(params, power_cap=float(np.nextafter(cap, 0.0)))
            assert assert_matches_dense(below, chan, grid).tau2 != ref.tau2
        assert n_edges >= 4

    @pytest.mark.parametrize("nc", [2, 3])
    def test_floors_on_the_best_points_values(self, nc):
        # floors raised to the MI and rate of the best point, which then
        # meets both with equality and stays the best point; SNRs spread over
        # three decades make its terms unequal, so that on some points the
        # order of the sum decides the last bit
        rng = np.random.default_rng(5)
        params = make_params(n_subcarriers=nc, mi_floor=8.0 * nc, rate_floor=10.0 * nc)
        n_raised = 0
        for seed in range(8):
            chan = channel(seed, nc, *10.0 ** rng.uniform(-1.5, 2.0, (2, nc)))
            grid = oracle_grid(params, chan, 40, 40)
            ref = assert_matches_dense(params, chan, grid)
            if ref.status is not SolveStatus.OPTIMAL:
                continue
            mi, rate, _, _ = grid_point_values(params, chan, grid, ref)
            raised = replace(params, mi_floor=float(mi), rate_floor=float(rate))
            assert_same_solution(assert_matches_dense(raised, chan, grid), ref)
            n_raised += 1
        assert n_raised >= 6

    def test_identical_snrs_break_ties_in_c_order(self):
        # (i, j) and (j, i) cost the same and meet the same floors, so only
        # the tie rule picks the one with the smaller first index
        n_ties = 0
        for seed in range(6):
            params = make_params(n_subcarriers=2, mi_floor=12.0 + seed, rate_floor=18.0)
            chan = channel(seed, 2, 3.0, 2.0)
            ref = assert_matches_dense(params, chan, oracle_grid(params, chan))
            assert ref.status is SolveStatus.OPTIMAL
            n_ties += ref.gamma[0] != ref.gamma[1]
            assert ref.gamma[0] <= ref.gamma[1]
        assert n_ties >= 2

    @pytest.mark.parametrize("tau2_steps", [1, 2, 7, 200])
    @pytest.mark.parametrize("gamma_steps", [1, 2, 7, 200])
    def test_grid_sizes(self, tau2_steps, gamma_steps):
        for params, chan in itertools.islice(criterion_1_instances(), 3):
            assert_matches_dense(params, chan, oracle_grid(params, chan, tau2_steps, gamma_steps))

    def test_zero_snr_subcarrier_and_zero_gamma_max(self):
        params = make_params(n_subcarriers=2, mi_floor=10.0, rate_floor=10.0)
        chan = channel(3, 2, [0.0, 4.0], [2.0, 0.0])
        grid = oracle_grid(params, chan)
        assert assert_matches_dense(params, chan, grid).status is SolveStatus.OPTIMAL
        assert_matches_dense(params, chan, replace(grid, gamma_max=0.0))

    def test_nonmonotone_axis_raises(self, monkeypatch):
        class DippingLog2:
            """numpy, except that log2 dips after its first element."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def log2(x):
                y = np.log2(x)
                y[..., 1] = -1.0
                return y

        params, chan = next(criterion_1_instances())
        grid = oracle_grid(params, chan, 20, 20)
        monkeypatch.setattr(certify, "np", DippingLog2())
        with pytest.raises(SolverError):
            brute_force_oracle(params, chan, grid)


class TestTopDownScan:
    """The oracle scans its time steps from the top down and stops early."""

    def test_stop_test_ends_the_scan(self, monkeypatch):
        # each visited block runs one row search per floor on its steps, and
        # each stop test one per floor on the block's lowest step
        steps = []
        first_meeting = certify._first_meeting

        def spy(prefix, last, floor, guess):
            steps.append(prefix.shape[0])
            return first_meeting(prefix, last, floor, guess)

        monkeypatch.setattr(certify, "_first_meeting", spy)
        block = certify.ORACLE_BLOCK // 200
        n_top = n_infeasible = 0
        for params, chan in criterion_1_instances():
            steps.clear()
            sol = brute_force_oracle(params, chan, oracle_grid(params, chan))
            total_time = params.total_time
            tau2_axis = np.linspace(total_time / 200, total_time, 200)
            if sol.status is SolveStatus.INFEASIBLE:
                assert steps == [block] * (2 * 200 // block)
                n_infeasible += 1
            elif sol.tau2 > tau2_axis[200 - block]:
                assert steps == [block, block, 1, 1]
                n_top += 1
        assert n_top >= 40 and n_infeasible >= 1

    def test_floor_on_a_nearly_flat_term(self):
        # where g s / t is below about 1e-6 a term hardly grows with t, so a
        # floor raised to a grid point's MI at one step is met or missed at
        # the next steps by rounding alone; only the margin of the stop test
        # keeps the scan from ending above that step
        rng = np.random.default_rng(0)
        n_optimal = 0
        for seed in range(40):
            nc = 1 + seed % 2
            snr = 10.0 ** rng.uniform(-12.0, -6.0, nc)
            chan = channel(seed, nc, snr, snr)
            grid = OracleGrid(200, 50, float(10.0 ** rng.uniform(-8.0, -3.0)))
            params = make_params(n_subcarriers=nc, mi_floor=1.0)
            tau2_axis = np.linspace(params.total_time / 200, params.total_time, 200)
            g_axis = np.linspace(0.0, grid.gamma_max, 50)
            point = SimpleNamespace(
                tau2=tau2_axis[rng.integers(200)], gamma=g_axis[rng.integers(1, 50, nc)]
            )
            mi, _, _, _ = grid_point_values(params, chan, grid, point)
            ref = assert_matches_dense(replace(params, mi_floor=float(mi)), chan, grid)
            n_optimal += ref.status is SolveStatus.OPTIMAL
        assert n_optimal >= 35


floor_bits = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=60.0))
# one tau2 and gamma step count per N_c, each giving several tau2 blocks
SCAN_GRIDS = {1: (200, 2000), 2: (200, 200), 3: (60, 30)}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=st.data(),
    nc=st.integers(min_value=1, max_value=3),
    mi_floor=floor_bits,
    rate_floor=floor_bits,
    stretch=st.floats(min_value=1.0, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_top_down_scan_equals_the_dense_search(data, nc, mi_floor, rate_floor, stretch, seed):
    """The early stop never changes the oracle's point, over SNRs from 1e-8
    to 1e6 and gamma axes reaching up to three times the equal-power bound."""
    assume(mi_floor > 0.0 or rate_floor > 0.0)
    snrs = st.lists(st.floats(-8.0, 6.0).map(lambda e: 10.0**e), min_size=nc, max_size=nc)
    params = make_params(n_subcarriers=nc, mi_floor=mi_floor, rate_floor=rate_floor)
    chan = channel(seed, nc, data.draw(snrs), data.draw(snrs))
    grid = oracle_grid(params, chan, *SCAN_GRIDS[nc])
    assert_matches_dense(params, chan, replace(grid, gamma_max=stretch * grid.gamma_max))


class TestOracleGrid:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(tau2_steps=0),
            dict(gamma_steps=0),
            dict(gamma_steps=-3),
            dict(gamma_max=math.inf),
            dict(gamma_max=math.nan),
            dict(gamma_max=-1e-9),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            OracleGrid(**bad)

    def test_gamma_edge(self):
        params, chan = next(criterion_1_instances())
        assert OracleGrid().gamma_max is None
        assert OracleGrid(gamma_max=2e-3).gamma_edge(params, chan) == 2e-3
        bound = equal_power_demand_bound(params, chan, tau2_steps=40)
        assert OracleGrid(40).gamma_edge(params, chan) == bound * (1.0 + 1e-9)

    def test_gamma_edge_without_an_equal_power_point_is_the_harvest(self):
        params = make_params(n_subcarriers=2, mi_floor=5e4)
        chan = sample_channel(1, params, 10.0, 10.0)
        assert equal_power_demand_bound(params, chan) == math.inf
        harvest = params.efficiency * float(np.vdot(chan.h, chan.h).real) * params.power_cap
        assert OracleGrid().gamma_edge(params, chan) == harvest * params.total_time

    def test_smallest_grid(self):
        grid = OracleGrid(tau2_steps=1, gamma_steps=1, gamma_max=0.0)
        params, chan = next(criterion_1_instances())
        assert brute_force_oracle(params, chan, grid).status is SolveStatus.INFEASIBLE


snr_values = st.floats(min_value=-2.0, max_value=3.0).map(lambda e: 10.0**e)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    data=st.data(),
    nc=st.integers(min_value=1, max_value=2),
    mi_floor=st.floats(min_value=0.0, max_value=60.0),
    rate_floor=st.floats(min_value=0.0, max_value=60.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_solver_beats_the_oracle(data, nc, mi_floor, rate_floor, seed):
    """The solver is at least as good as every grid point the oracle sees.

    The oracle's points are feasible points of the problem, so the optimum
    costs no more than its best one; the solver's ``tau2`` may lie up to
    ``TIME_TOL * T`` below the optimal split, hence the 1e-6 slack.  SNRs
    stay in 1e-2..1e3, away from the known limit of the multiplier search
    (floors near 1e-9 bits met on subcarriers with SNRs near 1e-4).
    """
    assume(mi_floor > 0.0 or rate_floor > 0.0)
    snrs = st.lists(snr_values, min_size=nc, max_size=nc)
    params = make_params(n_subcarriers=nc, mi_floor=mi_floor, rate_floor=rate_floor)
    chan = channel(seed, nc, data.draw(snrs), data.draw(snrs))
    sol = solve(params, chan)
    ref = brute_force_oracle(params, chan, oracle_grid(params, chan, 60, 60))
    if ref.status is SolveStatus.OPTIMAL:
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.energy <= ref.energy * (1 + 1e-6)
    if sol.status is SolveStatus.INFEASIBLE:
        assert ref.status is SolveStatus.INFEASIBLE
