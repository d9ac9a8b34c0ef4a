import math
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import assume, given, settings, strategies as st

import wpirc.benchmark
from wpirc import (
    ChannelRealization,
    SolveStatus,
    SolverError,
    check_constraints,
    eq_solve,
    equal_power_demand_bound,
    feasibility_frontier,
    kkt_certificate,
    solve,
)
from wpirc.benchmark import _eq_solve_batch
from wpirc.solver import MAX_ITER, TIME_TOL
from wpirc.sim import sample_channel

from conftest import T_TOTAL, make_params
from test_time_split import reference_eq_solve


def bisection_frontier(params, chan, target, scheme="op", tol_bits=0.1):
    """Reference frontier: doubling then bisection of the floor on the
    solver's status, a lower bound within ``tol_bits``."""
    solve_fn = solve if scheme == "op" else eq_solve
    floor_field = f"{target}_floor"

    def feasible(r):
        trial = replace(params, **{floor_field: r})
        return solve_fn(trial, chan).status is not SolveStatus.INFEASIBLE

    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(MAX_ITER):
        if not feasible(hi):
            break
        lo, hi = hi, hi * 2.0
    else:
        raise SolverError("feasibility frontier exceeds the search cap")
    while hi - lo > tol_bits:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def assert_brackets(params, chan, target, scheme, frontier):
    """The scheme's solver is feasible 1e-6 bits below the frontier and
    infeasible 1e-3 bits above it."""
    solve_fn = solve if scheme == "op" else eq_solve
    floor_field = f"{target}_floor"
    if frontier > 0.0:
        below = solve_fn(replace(params, **{floor_field: max(frontier - 1e-6, 0.0)}), chan)
        assert below.status is not SolveStatus.INFEASIBLE, (scheme, frontier)
    beyond = solve_fn(replace(params, **{floor_field: frontier + 1e-3}), chan)
    assert beyond.status is SolveStatus.INFEASIBLE, (scheme, frontier)


def assert_matches_bisection(params, chan, target, scheme):
    ref = bisection_frontier(params, chan, target, scheme)
    frontier = feasibility_frontier(params, chan, target, scheme)
    assert ref <= frontier <= ref + 0.1 + 1e-6, (scheme, target, ref, frontier)
    assert_brackets(params, chan, target, scheme, frontier)
    return frontier


def frontier_pool(target):
    """The frontier-n16 bench pool (criterion 5's instances are its first
    five); the other floor is 20 bits."""
    other = "rate_floor" if target == "mi" else "mi_floor"
    params = make_params(n_subcarriers=16, n_antennas=3, **{other: 20.0})
    return params, [sample_channel(seed, params, 15.0, 10.0) for seed in range(32)]


class TestEqSolve:
    def test_zero_floors(self):
        params = make_params()
        chan = ChannelRealization(h=[1, 1], radar_snr=[1, 1], comm_snr=[1, 1])
        sol = eq_solve(params, chan)
        assert sol.status is SolveStatus.ZERO_DEMAND
        assert sol.energy == 0.0

    def test_single_carrier_equals_optimal(self):
        # with one subcarrier the two schemes coincide
        params = make_params(n_subcarriers=1, mi_floor=15.0, rate_floor=10.0)
        chan = ChannelRealization(h=[0.8, 0.4], radar_snr=[1.2], comm_snr=[0.9])
        eq = eq_solve(params, chan)
        op = solve(params, chan)
        assert eq.status is SolveStatus.OPTIMAL
        assert eq.energy == pytest.approx(op.energy, rel=1e-8)

    def test_skewed_channel_strict_dominance(self):
        # water-filling concentrates energy on the strong subcarrier
        params = make_params(n_subcarriers=2, mi_floor=15.0, rate_floor=0.0)
        chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 0.01], comm_snr=[1.0, 1.0])
        eq = eq_solve(params, chan)
        op = solve(params, chan)
        assert eq.status is op.status is SolveStatus.OPTIMAL
        assert eq.energy > op.energy * (1 + 1e-6)

    def test_dominance_on_random_instances(self):
        params = make_params(n_subcarriers=6, n_antennas=3, mi_floor=30.0, rate_floor=35.0)
        for seed in range(6):
            chan = sample_channel(seed, params, 10.0, 10.0)
            eq = eq_solve(params, chan)
            op = solve(params, chan)
            if eq.status is op.status is SolveStatus.OPTIMAL:
                assert eq.energy >= op.energy * (1 - 1e-9)

    def test_eq_output_is_feasible_and_certified(self):
        params = make_params(n_subcarriers=5, n_antennas=4, mi_floor=25.0, rate_floor=25.0)
        chan = sample_channel(4, params, 10.0, 10.0)
        sol = eq_solve(params, chan)
        assert sol.status is SolveStatus.OPTIMAL
        assert check_constraints(params, chan, sol, tol=1e-6).all_satisfied
        assert np.allclose(sol.gamma, sol.gamma[0])
        assert kkt_certificate(params, chan, sol).valid

    @pytest.mark.parametrize(
        "floors",
        [(5e-324, 0.0), (0.0, 5e-324), (1e-310, 0.0), (0.0, 1e-310), (0.0, 1e-320), (5e-324, 5e-324)],
    )
    def test_subnormal_floors_keep_a_harvest_slot(self, floors):
        # the least total power underflows to 0 or to a subnormal, where the
        # budget-binding slot B T / (S + B) is T itself and leaves no time to
        # harvest; the slot stops TIME_TOL * T short of T instead, and the
        # floors, met to DUAL_TOL absolutely, read met at zero power
        params = make_params(mi_floor=floors[0], rate_floor=floors[1])
        chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 3.0], comm_snr=[2.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = eq_solve(params, chan)
            (row,) = _eq_solve_batch([params], chan)
        for got in (sol, row):
            assert got.status is SolveStatus.OPTIMAL
            assert 0.0 < got.tau1 and got.tau2 <= T_TOTAL - TIME_TOL * T_TOTAL
            assert check_constraints(params, chan, got).all_satisfied

    def test_each_floor_met_alone_but_not_both(self):
        # each floor holds between the two roots of its concave margin in the
        # total power; here the larger of the two least powers lies past the
        # other floor's interval, so both floors cannot hold at once
        params = make_params()
        chan = sample_channel(7948, params, 14.694645464938588, 4.520173924552942)
        params = replace(params, mi_floor=29.753742917773152, rate_floor=13.899205670157595)
        rows = [params, replace(params, rate_floor=0.0), replace(params, mi_floor=0.0)]
        want = [SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL, SolveStatus.OPTIMAL]
        assert [eq_solve(p, chan).status for p in rows] == want
        assert [sol.status for sol in _eq_solve_batch(rows, chan)] == want
        assert reference_eq_solve(params, chan).status is SolveStatus.INFEASIBLE
        assert solve(params, chan).status is SolveStatus.OPTIMAL


def snr_vector(data, nc):
    """``nc`` SNRs from 1e-6 to 1e6, a drawn share of them (all of them at
    most) set to zero at drawn positions."""
    snr = 10.0 ** np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=nc, max_size=nc)))
    zeros = round(data.draw(st.floats(0.0, 1.0)) * nc)
    snr[data.draw(st.permutations(range(nc)))[:zeros]] = 0.0
    return snr


floor_bits = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0**e))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    data=st.data(),
    nc=st.sampled_from([16, 64]),
    mi_floor=floor_bits,
    rate_floor=floor_bits,
    seed=st.integers(0, 2**16),
)
def test_solve_dominates_eq_on_zero_snr_subcarriers_and_short_harvests(
    data, nc, mi_floor, rate_floor, seed
):
    """Wherever the equal-power scheme is optimal the optimal scheme is too,
    and no more costly; every optimal solve meets the constraints and
    certifies.

    Zero SNRs put subcarriers with one gain or both at zero in the profile,
    and a positive floor over an all-zero SNR vector makes both schemes
    infeasible (infinite demand).  Floors down to 1e-3 bits on SNRs up to
    1e6 put the time split near ``tau2 = T``.  Positive floors stay at or
    above 1e-3 bits, away from the known limit of the multiplier search
    (floors near 1e-9 bits on SNRs near 1e-4)."""
    assume(mi_floor > 0.0 or rate_floor > 0.0)
    params = make_params(n_subcarriers=nc, n_antennas=3, mi_floor=mi_floor, rate_floor=rate_floor)
    h = np.random.default_rng(seed).standard_normal((3, 2)) @ np.array([1.0, 1j])
    chan = ChannelRealization(h=h, radar_snr=snr_vector(data, nc), comm_snr=snr_vector(data, nc))
    op = solve(params, chan)
    eq = eq_solve(params, chan)
    floors = ((mi_floor, chan.radar_snr), (rate_floor, chan.comm_snr))
    if any(floor > 0.0 and not snr.any() for floor, snr in floors):
        assert op.status is eq.status is SolveStatus.INFEASIBLE
    if eq.status is SolveStatus.OPTIMAL:
        assert op.status is SolveStatus.OPTIMAL
        assert op.energy <= eq.energy * (1 + 1e-6)
    if op.status is SolveStatus.OPTIMAL:
        assert check_constraints(params, chan, op, tol=1e-6).all_satisfied
        assert kkt_certificate(params, chan, op).valid


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    data=st.data(),
    nc=st.sampled_from([1, 2, 3, 16]),
    mi_floor=floor_bits,
    rate_floor=floor_bits,
    seed=st.integers(0, 2**16),
)
def test_eq_solve_within_the_grid_bound_and_above_solve(data, nc, mi_floor, rate_floor, seed):
    """Two computations of the equal-power restriction agree: wherever
    ``eq_solve`` is optimal its demand is at most the grid minimum of the
    same restriction on 200 time splits (``equal_power_demand_bound``), and
    its energy is at least the optimal scheme's.
    Floors and SNRs as in the test above."""
    params = make_params(n_subcarriers=nc, n_antennas=3, mi_floor=mi_floor, rate_floor=rate_floor)
    h = np.random.default_rng(seed).standard_normal((3, 2)) @ np.array([1.0, 1j])
    chan = ChannelRealization(h=h, radar_snr=snr_vector(data, nc), comm_snr=snr_vector(data, nc))
    eq = eq_solve(params, chan)
    assume(eq.status is SolveStatus.OPTIMAL)
    assert float(np.sum(eq.gamma)) <= equal_power_demand_bound(params, chan) * (1 + 1e-9)
    op = solve(params, chan)
    assert op.status is SolveStatus.OPTIMAL
    assert eq.energy >= op.energy * (1 - 1e-6)


class TestFeasibilityFrontier:
    def test_zero_efficiency_frontier_is_zero(self):
        params = make_params(n_subcarriers=2, efficiency=0.0)
        chan = ChannelRealization(h=[1, 1], radar_snr=[1, 1], comm_snr=[1, 1])
        assert feasibility_frontier(params, chan, target="mi") == 0.0

    @pytest.mark.parametrize("target, scheme", [("both", "op"), ("mi", "opt")])
    def test_invalid_target_or_scheme_rejected(self, target, scheme):
        params = make_params()
        chan = ChannelRealization(h=[1, 1], radar_snr=[1, 1], comm_snr=[1, 1])
        with pytest.raises(ValueError, match="must be"):
            feasibility_frontier(params, chan, target, scheme)

    @pytest.mark.parametrize(
        "size, match",
        [({"n_subcarriers": 8}, "SNR vector length"), ({"n_antennas": 5}, "channel vector length")],
        ids=["subcarriers", "antennas"],
    )
    def test_channel_of_another_size_rejected(self, size, match):
        params = make_params(n_subcarriers=16, n_antennas=3, rate_floor=20.0)
        chan = sample_channel(0, params, 15.0, 10.0)
        with pytest.raises(ValueError, match=match):
            feasibility_frontier(replace(params, **size), chan, target="mi")

    def test_frontier_nonincreasing_in_other_floor(self):
        params = make_params(n_subcarriers=3, n_antennas=2)
        chan = sample_channel(9, params, 12.0, 12.0)
        frontiers = [
            feasibility_frontier(replace(params, rate_floor=rc), chan, target="mi")
            for rc in (0.0, 20.0, 40.0)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(frontiers, frontiers[1:]))

    def test_op_frontier_dominates_eq(self):
        for seed in range(3):
            params = make_params(n_subcarriers=3, n_antennas=2, rate_floor=10.0)
            chan = sample_channel(seed, params, 12.0, 10.0)
            f_op = feasibility_frontier(params, chan, target="mi", scheme="op")
            f_eq = feasibility_frontier(params, chan, target="mi", scheme="eq")
            assert f_eq <= f_op + 1e-6

    def test_infeasible_beyond_frontier_feasible_below(self):
        params = make_params(n_subcarriers=3, n_antennas=2)
        chan = sample_channel(13, params, 12.0, 12.0)
        frontier = feasibility_frontier(params, chan, target="mi")
        assert frontier > 0
        below = solve(replace(params, mi_floor=frontier - 1e-6), chan)
        beyond = solve(replace(params, mi_floor=frontier + 1e-3), chan)
        assert below.status is SolveStatus.OPTIMAL
        assert beyond.status is SolveStatus.INFEASIBLE

    @pytest.mark.parametrize("scheme", ["op", "eq"])
    @pytest.mark.parametrize("target", ["mi", "rate"])
    def test_matches_bisection_on_the_bench_pool(self, target, scheme):
        params, chans = frontier_pool(target)
        for chan in chans:
            assert_matches_bisection(params, chan, target, scheme)

    def test_binding_other_floor_runs_the_nested_newton(self, monkeypatch):
        params = make_params(n_subcarriers=16, n_antennas=3, rate_floor=200.0)
        chan = sample_channel(0, params, 15.0, 10.0)
        calls = []
        inner = wpirc.benchmark.inner_allocation
        monkeypatch.setattr(
            wpirc.benchmark, "inner_allocation", lambda *a, **k: calls.append(1) or inner(*a, **k)
        )
        frontier = assert_matches_bisection(params, chan, "mi", "op")
        assert frontier == pytest.approx(213.9, abs=0.05)
        assert calls

    @pytest.mark.parametrize("scheme", ["op", "eq"])
    def test_search_that_runs_out_of_evaluations_raises(self, monkeypatch, scheme):
        params, chans = frontier_pool("mi")
        monkeypatch.setattr(wpirc.benchmark, "MAX_ITER", 3)
        with pytest.raises(SolverError, match="frontier search over the time split did not converge"):
            feasibility_frontier(params, chans[0], "mi", scheme)

    def test_binding_newton_that_runs_out_of_steps_raises(self, monkeypatch):
        # at the first probe, tau2 = T/2, the data link's budget water-filling
        # misses the 200-bit MI floor, which the whole budget can still meet
        params = make_params(n_subcarriers=16, n_antennas=3, mi_floor=200.0)
        chan = sample_channel(0, params, 15.0, 10.0)
        monkeypatch.setattr(wpirc.benchmark, "MAX_ITER", 1)
        with pytest.raises(SolverError, match="frontier with both floors binding did not converge"):
            feasibility_frontier(params, chan, "rate", "op")

    def test_no_solve_where_the_other_floor_does_not_bind(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("frontier called a solver")

        for name in ("solve", "eq_solve", "inner_allocation"):
            monkeypatch.setattr(wpirc.benchmark, name, refuse)
        for target in ("mi", "rate"):
            params, chans = frontier_pool(target)
            for chan in chans[:8]:
                for scheme in ("op", "eq"):
                    assert feasibility_frontier(params, chan, target, scheme) > 0.0

    @pytest.mark.parametrize("target", ["mi", "rate"])
    def test_unreachable_other_floor_gives_zero(self, target):
        params, chans = frontier_pool(target)
        chan = chans[1]
        other = "rate" if target == "mi" else "mi"
        reach = {s: feasibility_frontier(params, chan, other, s) for s in ("op", "eq")}
        assert reach["eq"] < reach["op"] - 1.0
        # beyond both schemes' reach, then beyond eq's alone
        for floor, zero in ((reach["op"] + 1.0, ("op", "eq")), (0.5 * sum(reach.values()), ("eq",))):
            trial = replace(params, **{f"{other}_floor": floor})
            for scheme in ("op", "eq"):
                frontier = feasibility_frontier(trial, chan, target, scheme)
                solve_fn = solve if scheme == "op" else eq_solve
                at_zero = solve_fn(replace(trial, **{f"{target}_floor": 0.0}), chan)
                assert (frontier == 0.0) is (scheme in zero)
                assert (at_zero.status is SolveStatus.INFEASIBLE) is (scheme in zero)
                if scheme not in zero:
                    assert_matches_bisection(trial, chan, target, scheme)

    @pytest.mark.parametrize("target", ["mi", "rate"])
    def test_other_floor_zero(self, target):
        params = make_params(n_subcarriers=16, n_antennas=3)
        for seed in range(3):
            chan = sample_channel(seed, params, 15.0, 10.0)
            for scheme in ("op", "eq"):
                assert_matches_bisection(params, chan, target, scheme)

    def test_single_subcarrier(self):
        params = make_params(n_subcarriers=1, n_antennas=3, rate_floor=20.0)
        for seed in range(3):
            chan = sample_channel(seed, params, 15.0, 10.0)
            for target in ("mi", "rate"):
                trial = params if target == "mi" else replace(params, rate_floor=0.0, mi_floor=20.0)
                f_op = assert_matches_bisection(trial, chan, target, "op")
                f_eq = assert_matches_bisection(trial, chan, target, "eq")
                assert f_eq == pytest.approx(f_op, abs=1e-6)

    def test_zero_snr_subcarriers(self):
        params = make_params(n_subcarriers=4, n_antennas=2, rate_floor=20.0)
        chan = ChannelRealization(
            h=[1.0, 0.5], radar_snr=[0.0, 30.0, 3.0, 10.0], comm_snr=[5.0, 0.0, 10.0, 1.0]
        )
        for target in ("mi", "rate"):
            trial = params if target == "mi" else replace(params, rate_floor=0.0, mi_floor=20.0)
            for scheme in ("op", "eq"):
                assert_matches_bisection(trial, chan, target, scheme)

    @pytest.mark.parametrize(
        "target, other_floor, snr_db, seed, expected",
        [("rate", 200.0, (0.0, 20.0), 2, 3548.73), ("mi", 9721.0, (20.0, 40.0), 1, 1189.30)],
        ids=["right-edge", "left-edge"],
    )
    def test_maximum_on_an_edge_of_the_other_floors_interval(
        self, target, other_floor, snr_db, seed, expected
    ):
        # the eq frontier peaks where the other floor stops holding; there
        # the floor 1e-6 bits below it holds on a time-split interval
        # narrower than TIME_TOL * T unless the search steps back inside
        other = "mi_floor" if target == "rate" else "rate_floor"
        params = make_params(n_subcarriers=64, n_antennas=3, **{other: other_floor})
        chan = sample_channel(seed, params, *snr_db)
        frontier = assert_matches_bisection(params, chan, target, "eq")
        assert frontier == pytest.approx(expected, abs=0.01)

    def test_search_stops_on_the_concavity_bound(self, monkeypatch):
        counts = []
        search = wpirc.benchmark._concave_max

        def counted(f, total_time):
            counts.append(0)

            def g(t):
                counts[-1] += 1
                return f(t)

            return search(g, total_time)

        monkeypatch.setattr(wpirc.benchmark, "_concave_max", counted)
        for target in ("mi", "rate"):
            params, chans = frontier_pool(target)
            for chan in chans[:8]:
                for scheme in ("op", "eq"):
                    feasibility_frontier(params, chan, target, scheme)
        assert max(counts) <= 12

    def test_one_search_per_frontier(self, monkeypatch):
        # the search over the target's curve also decides whether the other
        # floor can be met at all: no second search on that floor's curve
        calls = []
        search = wpirc.benchmark._concave_max

        def counted(f, total_time):
            calls.append(f)
            return search(f, total_time)

        monkeypatch.setattr(wpirc.benchmark, "_concave_max", counted)
        for target in ("mi", "rate"):
            params, chans = frontier_pool(target)
            for chan in chans:
                for scheme in ("op", "eq"):
                    calls.clear()
                    feasibility_frontier(params, chan, target, scheme)
                    assert len(calls) == 1

    def test_other_floor_at_its_reachable_maximum(self):
        # the other floor alone takes the whole budget at the edge of its
        # time-split interval, where the target's multiplier vanishes
        params = make_params(n_subcarriers=2)
        chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 1.0], comm_snr=[1.0, 3.0])
        free = feasibility_frontier(params, chan, "mi")
        reach = feasibility_frontier(params, chan, "rate")
        frontier = feasibility_frontier(replace(params, rate_floor=reach), chan, "mi")
        assert 0.0 <= frontier <= free

    def test_frontier_where_the_other_floor_sits_at_its_reach(self):
        # solve is optimal at a rate floor of 1.0 bit with this MI floor, so
        # the rate frontier is at least about that much; the MI floor alone
        # takes the whole budget wherever it holds, so every binding Newton
        # ends on the edge of its domain, where the data multiplier vanishes
        params = make_params(n_subcarriers=16)
        chan = sample_channel(86, params, 3.990816186715037, -2.6736028294699157)
        reach = feasibility_frontier(params, chan, "mi", "op")  # 130.785 bits
        params = replace(params, mi_floor=reach)
        assert solve(replace(params, rate_floor=1.0), chan).status is SolveStatus.OPTIMAL
        frontier = feasibility_frontier(params, chan, "rate", "op")
        assert frontier >= 0.8
        assert_brackets(params, chan, "rate", "op", frontier)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    data=st.data(),
    n_subcarriers=st.sampled_from([1, 2, 3, 16]),
    target=st.sampled_from(["mi", "rate"]),
    share=st.one_of(
        st.just(0.0),
        st.floats(0.0, 0.01, exclude_min=True),
        st.floats(0.01, 0.99),
        st.floats(1.01, 1.5),
    ),
)
def test_frontier_brackets_the_solvers(data, n_subcarriers, target, share):
    """Both schemes' solvers are feasible 1e-6 bits below the frontier and
    infeasible 1e-3 bits above it, and eq never beats op.

    SNRs span 1e-2..1e3 and the other floor is 0 or a share of its op
    reach (the other target's frontier at floor 0) up to 1.5 times it; the
    shares below 1 % run down to subnormal floors.  Kept out: shares within
    1 % of 1, where the other floor's time-split interval shrinks to a
    point and the frontier and the solvers disagree at the level of their
    tolerances.  The SNR range keeps the known-limit region of the
    multiplier searches (floors near 1e-9 bits on SNRs near 1e-4) out as
    well."""
    snrs = st.lists(st.floats(1e-2, 1e3), min_size=n_subcarriers, max_size=n_subcarriers)
    chan = ChannelRealization(h=[1.0, 0.5], radar_snr=data.draw(snrs), comm_snr=data.draw(snrs))
    params = make_params(n_subcarriers=n_subcarriers)
    other = "rate" if target == "mi" else "mi"
    reach = feasibility_frontier(params, chan, other, "op")
    params = replace(params, **{f"{other}_floor": share * reach})
    frontier = {}
    for scheme in ("op", "eq"):
        frontier[scheme] = feasibility_frontier(params, chan, target, scheme)
        assert math.isfinite(frontier[scheme])
        assert_brackets(params, chan, target, scheme, frontier[scheme])
    assert frontier["eq"] <= frontier["op"] + 1e-6
