"""The Newton time-split search against the search it replaced.

``golden_brentq_root`` is the former outer search, kept here as the
reference: a golden-section descent to a point with a nonpositive margin,
a brentq to the largest root, and a step back to its feasible side.
``brentq_common_gamma`` is the former equal-power level, a doubling bracket
and a brentq on the rate.  Both evaluate the margin or the rate many more
times than the Newton iterations that took their place.  ``envelope_slope``
is the former demand slope, two log sums over the profile, which the
inner allocation's homogeneity slope replaced.
"""
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from wpirc import (
    ChannelRealization,
    SolveStatus,
    comm_rate,
    eq_solve,
    feasibility_frontier,
    inner_allocation,
    radar_mi,
    rank_one_extract,
    solve,
)
import wpirc.solver
from wpirc.benchmark import _equal_power_kernel
from wpirc.model import LN2
from wpirc.sim import sample_channel
from wpirc.solver import MAX_ITER, TIME_TOL, Link, solve_with_allocation

from conftest import T_TOTAL, make_params
from test_multiplier_search import SHAPES, shape_instance


def _common_gamma(snr, floor, tau2, delta_f, half):
    """The equal-power level of one link at ``floor`` and ``tau2``, and its slope."""
    return Link(snr, (0.5 if half else 1.0) * delta_f).level(floor, tau2)


def _equal_power_allocation(tau2, chan, params, start=None):
    """Equal-power profile at ``tau2``, the slope of its total, and the
    next probe's start (always None)."""
    kernel = _equal_power_kernel(chan, params.delta_f)
    return kernel([(params, tau2, start)])[0]


XTOL = TIME_TOL * T_TOTAL
ENERGY_RTOL = 1e-6


def golden_brentq_root(phi, total_time):
    """Largest root of the convex margin ``phi`` on (0, T), or None.

    Returns the root with how far the step back moved it below brentq's
    answer, a multiple of ``TIME_TOL * T``.
    """
    t_hi = total_time * (1.0 - 1e-9)
    if phi(t_hi) <= 0.0:
        lo, up = t_hi, total_time
    else:
        lo = golden_nonpositive(phi, total_time * 1e-12, t_hi)
        if lo is None:
            return None
        up = t_hi
    xtol = TIME_TOL * total_time
    root = brentq(phi, lo, up, xtol=xtol, rtol=1e-15, maxiter=MAX_ITER)
    for steps in range(MAX_ITER):
        if phi(root) <= 0.0:
            return root, steps * xtol
        root -= xtol
    raise AssertionError("failed to land on the feasible side of the time split")


def golden_nonpositive(phi, a, b):
    """Golden-section search for any point with phi <= 0 on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = phi(c), phi(d)
    for _ in range(MAX_ITER):
        if fc <= 0.0:
            return c
        if fd <= 0.0:
            return d
        if b - a <= TIME_TOL * max(b, 1e-300):
            return None
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = phi(d)
    return None


def brentq_common_gamma(snr, floor, tau2, delta_f, half, max_iter=1000):
    """Smallest common energy meeting one floor, by bracket and brentq."""
    if floor <= 0.0:
        return 0.0
    rate_fn = radar_mi if half else comm_rate

    def gap(g):
        return rate_fn(np.full(snr.size, g), snr, tau2, delta_f) - floor

    hi = tau2
    for _ in range(max_iter):
        if gap(hi) >= 0.0:
            break
        hi *= 2.0
    else:
        return math.inf
    return brentq(gap, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=max_iter)


def reference_solve(params, chan, scheme):
    """Status, tau2, energy and the step back of tau2 by the old searches."""
    hn2 = float(np.real(np.vdot(chan.h, chan.h)))
    budget_rate = params.efficiency * hn2 * params.power_cap
    if budget_rate == 0.0:
        return SolveStatus.INFEASIBLE, 0.0, 0.0, 0.0

    def demand(t2):
        if scheme == "op":
            return float(np.sum(inner_allocation(t2, chan, params).gamma))
        g_r = brentq_common_gamma(chan.radar_snr, params.mi_floor, t2, params.delta_f, True)
        g_c = brentq_common_gamma(chan.comm_snr, params.rate_floor, t2, params.delta_f, False)
        return params.n_subcarriers * max(g_r, g_c)

    def phi(t2):
        return demand(t2) - budget_rate * (params.total_time - t2)

    found = golden_brentq_root(phi, params.total_time)
    if found is None:
        return SolveStatus.INFEASIBLE, 0.0, 0.0, 0.0
    tau2, back = found
    return SolveStatus.OPTIMAL, tau2, demand(tau2) / (params.efficiency * hn2), back


def assert_matches_reference(params, chan, scheme):
    sol = (solve if scheme == "op" else eq_solve)(params, chan)
    status, tau2, energy, back = reference_solve(params, chan, scheme)
    assert sol.status is status
    # each lies within TIME_TOL * T below the root (up to rounding), once
    # the reference's step back to the feasible side is undone
    assert abs(sol.tau2 - tau2) <= 1.001 * XTOL + back
    assert sol.energy == pytest.approx(energy, rel=ENERGY_RTOL)
    return sol


# floors scaled so that each shape has feasible and infeasible instances
SCALES = {"sweep-n128": (1.0, 8.0), "solve-n1024": (1.0, 1.5), "frontier-n16": (1.0, 24.0)}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_matches_old_search_on_workload_shapes(shape):
    statuses = set()
    for seed in range(8):
        params, chan = shape_instance(shape, seed)
        for k in SCALES[shape]:
            scaled = replace(params, mi_floor=k * params.mi_floor, rate_floor=k * params.rate_floor)
            for scheme in ("op", "eq"):
                statuses.add(assert_matches_reference(scaled, chan, scheme).status)
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


@pytest.mark.parametrize("scheme", ["op", "eq"])
def test_near_tangent_instance(scheme):
    # power_cap bisected to the feasibility boundary: the margin's minimum
    # approaches zero and the feasible time splits shrink to a point
    params, chan = shape_instance("frontier-n16", 3)
    lo, hi = 1e-3, 1e3  # infeasible, feasible
    while hi / lo - 1.0 > 1e-13:
        mid = math.sqrt(lo * hi)
        trial = replace(params, power_cap=mid)
        if reference_solve(trial, chan, scheme)[0] is SolveStatus.OPTIMAL:
            hi = mid
        else:
            lo = mid
    for cap, status in ((lo, SolveStatus.INFEASIBLE), (hi, SolveStatus.OPTIMAL)):
        sol = assert_matches_reference(replace(params, power_cap=cap), chan, scheme)
        assert sol.status is status


@pytest.mark.parametrize("scheme", ["op", "eq"])
def test_root_within_a_nanosecond_of_the_frame_end(scheme):
    # a tiny floor: the demand at T is below what the budget gathers in
    # T * 1e-9, so the root lies in [T (1 - 1e-9), T]
    params = make_params(n_subcarriers=1, mi_floor=1e-6)
    chan = ChannelRealization(h=[1.0, 1.0], radar_snr=[10.0], comm_snr=[0.0])
    sol = assert_matches_reference(params, chan, scheme)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.tau2 >= T_TOTAL * (1 - 1e-9) * (1 - 1e-15)


FOUR_CARRIERS = ChannelRealization(
    h=[0.9, 0.5], radar_snr=[2.0, 1.0, 0.7, 5.0], comm_snr=[1.5, 3.0, 0.2, 0.4]
)
EDGE_CASES = {
    "single carrier": (
        dict(n_subcarriers=1, mi_floor=15.0, rate_floor=10.0),
        ChannelRealization(h=[0.8, 0.4], radar_snr=[1.2], comm_snr=[0.9]),
    ),
    "zero-snr subcarriers": (
        dict(n_subcarriers=4, mi_floor=25.0, rate_floor=30.0),
        ChannelRealization(
            h=[0.9, 0.5], radar_snr=[2.0, 0.0, 0.7, 5.0], comm_snr=[1.5, 3.0, 0.0, 0.4]
        ),
    ),
    "mi floor zero": (dict(n_subcarriers=4, mi_floor=0.0, rate_floor=40.0), FOUR_CARRIERS),
    "rate floor zero": (dict(n_subcarriers=4, mi_floor=40.0, rate_floor=0.0), FOUR_CARRIERS),
}


@pytest.mark.parametrize("scheme", ["op", "eq"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_match_old_search(case, scheme):
    fields, chan = EDGE_CASES[case]
    params = make_params(**fields)
    assert assert_matches_reference(params, chan, scheme).status is SolveStatus.OPTIMAL
    raised = replace(params, mi_floor=40 * params.mi_floor, rate_floor=40 * params.rate_floor)
    assert assert_matches_reference(raised, chan, scheme).status is SolveStatus.INFEASIBLE


def op_allocator(params, chan, calls):
    def allocator(t2, start):
        calls.append(t2)
        res = inner_allocation(t2, chan, params, start)
        return res.gamma, res.slope, res.duals

    return allocator


def eq_allocator(params, chan, calls):
    def allocator(t2, start):
        calls.append(t2)
        return _equal_power_allocation(t2, chan, params, start)

    return allocator


@pytest.mark.parametrize("make_allocator", [op_allocator, eq_allocator])
def test_infeasible_large_instance_decided_at_once(make_allocator):
    # solve-n1024's one infeasible instance: the margin already falls at T
    params, chan = shape_instance("solve-n1024", 29)
    calls = []
    sol = solve_with_allocation(params, chan, make_allocator(params, chan, calls))
    assert sol.status is SolveStatus.INFEASIBLE
    assert len(calls) <= 3


def central_difference(total, t2, rel_step=1e-4):
    h = rel_step * t2
    return (total(t2 + h) - total(t2 - h)) / (2 * h)


@pytest.mark.parametrize(
    "floors, active",
    [((0.0, 0.0), "none"), ((25.0, 0.0), "mi"), ((0.0, 30.0), "rate"), ((25.0, 30.0), "both")],
)
def test_demand_slope_matches_finite_difference(floors, active):
    params = make_params(n_subcarriers=8, n_antennas=3, mi_floor=floors[0], rate_floor=floors[1])
    chan = sample_channel(1, params, 10.0, 10.0)
    for t2 in (0.2 * T_TOTAL, 0.7 * T_TOTAL):
        res = inner_allocation(t2, chan, params)
        assert res.active == active
        fd = central_difference(
            lambda t: float(np.sum(inner_allocation(t, chan, params).gamma)), t2
        )
        assert res.slope == pytest.approx(fd, rel=1e-5)


def envelope_slope(res, tau2, chan, params):
    """Slope ``d sum(gamma) / d tau2`` of the inner allocation's optimum.

    By the envelope theorem it is the ``tau2``-derivative of the Lagrangian
    at the optimal profile and duals.  A floor term ``tau2 log1p(y)`` with
    ``y = gamma snr / tau2`` has derivative ``log1p(y) - y / (1 + y)`` in
    ``tau2``, so the slope is ``-lambda_r (delta_f / 2) sum[...]_v / ln 2 -
    lambda_c delta_f sum[...]_w / ln 2``.  An unreachable floor (infinite
    residual, infinite demand) has slope ``-inf``.
    """
    if math.isinf(res.stationarity_residual):
        return -math.inf
    x = res.gamma / tau2

    def floor_slope(snr):
        y = x * snr
        return float(np.sum(np.log1p(y) - y / (1.0 + y))) / LN2

    df = params.delta_f
    return -(
        res.duals.lambda_r * 0.5 * df * floor_slope(chan.radar_snr)
        + res.duals.lambda_c * df * floor_slope(chan.comm_snr)
    )


# a subcarrier's SNR: 1e-6 to 1e6, or zero for an exponent below -6
edge_snrs = st.floats(min_value=-7.0, max_value=6.0).map(lambda e: 0.0 if e < -6.0 else 10.0**e)
# a floor: 1e-3 to 1e3 bits, or zero for an exponent below -3; this keeps
# out the known limit of floors near 1e-9 bits on SNRs near 1e-4
edge_floors = st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 0.0 if e < -3.0 else 10.0**e)


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    data=st.data(),
    n=st.sampled_from([1, 2, 3, 16, 64]),
    mi_floor=edge_floors,
    rate_floor=edge_floors,
    tau2_exp=st.floats(min_value=-6.0, max_value=0.0),
)
def test_homogeneity_slope_matches_the_envelope_slope(data, n, mi_floor, rate_floor, tau2_exp):
    v = np.array(data.draw(st.lists(edge_snrs, min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(edge_snrs, min_size=n, max_size=n)))
    params = make_params(n_subcarriers=n, mi_floor=mi_floor, rate_floor=rate_floor)
    chan = ChannelRealization(h=[1.0, 1.0], radar_snr=v, comm_snr=w)
    tau2 = T_TOTAL * 10.0**tau2_exp * (1 - 1e-9)
    res = inner_allocation(tau2, chan, params)
    ref = envelope_slope(res, tau2, chan, params)
    if ref == -math.inf:
        assert res.slope == -math.inf
        return
    # the outer search steps on the margin slope, the demand slope plus B
    budget = params.efficiency * 2.0 * params.power_cap
    assert abs(res.slope - ref) <= 1e-9 * (abs(ref) + budget)


def test_equal_power_slope_on_both_sides_of_the_floor_tie():
    params, chan = shape_instance("frontier-n16", 0)

    def levels(t2):
        df = params.delta_f
        return (
            _common_gamma(chan.radar_snr, params.mi_floor, t2, df, True),
            _common_gamma(chan.comm_snr, params.rate_floor, t2, df, False),
        )

    tie = brentq(lambda t2: math.log(levels(t2)[0][0] / levels(t2)[1][0]), 1e-6, 1e-5)
    slopes = []
    for t2 in (0.95 * tie, 1.05 * tie):
        (g_r, _), (g_c, _) = levels(t2)
        gamma, slope, _ = _equal_power_allocation(t2, chan, params)
        assert gamma[0] == max(g_r, g_c)
        fd = central_difference(
            lambda t: float(np.sum(_equal_power_allocation(t, chan, params)[0])),
            t2,
        )
        assert slope == pytest.approx(fd, rel=1e-5)
        slopes.append((g_r > g_c, slope))
    assert slopes[0][0] != slopes[1][0]  # the binding floor changes at the tie
    # at the tie the slope is a subgradient: between the one-sided slopes
    _, at_tie, _ = _equal_power_allocation(tie, chan, params)
    one_sided = [params.n_subcarriers * lv[1] for lv in levels(tie)]
    assert min(one_sided) <= at_tie <= max(one_sided)


def test_common_level_matches_brentq(rng):
    n_unreachable = 0
    for _ in range(300):
        n = int(rng.integers(1, 40))
        snr = 10.0 ** rng.uniform(-6, 6, n)
        snr[rng.random(n) < 0.2] = 0.0
        snr[0] = max(snr[0], 1e-3)
        floor = 10.0 ** rng.uniform(-2, 3)
        tau2 = T_TOTAL * 10.0 ** rng.uniform(-4, 0)
        half = bool(rng.random() < 0.5)
        gamma, _ = _common_gamma(snr, floor, tau2, 2.5e5, half)
        assert gamma == pytest.approx(brentq_common_gamma(snr, floor, tau2, 2.5e5, half), rel=1e-12)
        if gamma == math.inf:
            n_unreachable += 1
            continue
        # the level meets the floor: sum log1p(x s) >= target
        target = (2.0 if half else 1.0) * floor * math.log(2.0) / (2.5e5 * tau2)
        assert float(np.sum(np.log1p(gamma / tau2 * snr))) >= target * (1 - 1e-14)
    assert 0 < n_unreachable < 30


def u0_start_iterations(snr, floor, tau2, half):
    """Newton steps the equal-power level takes from ``u0`` alone."""
    s = snr[snr > 0]
    target = (2.0 if half else 1.0) * floor * math.log(2.0) / (2.5e5 * tau2)
    u = (target - float(np.sum(np.log(s)))) / s.size
    if not u + math.log(float(np.max(s))) < math.log(sys.float_info.max):
        return 0
    for n in range(1, 201):
        xs = math.exp(u) * s
        gap = float(np.sum(np.log1p(xs))) - target
        if not gap > 0.0:
            return n
        step = gap / float(np.sum(xs / (1.0 + xs)))
        u -= step
        if step <= 1e-8:
            return n
    raise AssertionError("no convergence from u0")


class CountingNumpy:
    """numpy, with a count of ``log1p`` calls: one per Newton step."""

    def __init__(self):
        self.log1p_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log1p(self, *args, **kwargs):
        self.log1p_calls += 1
        return np.log1p(*args, **kwargs)


def test_tighter_level_start_never_takes_more_steps(rng, monkeypatch):
    counter = CountingNumpy()
    monkeypatch.setattr(wpirc.solver, "np", counter)
    steps, u0_steps = [], []
    for _ in range(300):
        n = int(rng.integers(1, 40))
        snr = 10.0 ** rng.uniform(-6, 6, n)
        snr[rng.random(n) < 0.2] = 0.0
        snr[0] = max(snr[0], 1e-3)
        floor = 10.0 ** rng.uniform(-2, 3)
        tau2 = T_TOTAL * 10.0 ** rng.uniform(-4, 0)
        half = bool(rng.random() < 0.5)
        before = counter.log1p_calls
        _common_gamma(snr, floor, tau2, 2.5e5, half)
        steps.append(counter.log1p_calls - before)
        u0_steps.append(u0_start_iterations(snr, floor, tau2, half))
    assert all(a <= b for a, b in zip(steps, u0_steps))
    assert sum(steps) < sum(u0_steps)


@pytest.mark.parametrize("n", [1, 2, 16, 1024])
def test_level_over_an_array_matches_each_scalar_call(rng, n):
    # every element of a vectorized call stops on its own rule, so it runs
    # exactly the iteration that a scalar call at its tau2 runs
    for trial in range(4):
        snr = 10.0 ** rng.uniform(-3, 3, n)
        snr[rng.random(n) < 0.1] = 0.0
        snr[0] = max(snr[0], 1e-3)
        floor, half = 10.0 ** rng.uniform(0, 3), bool(trial % 2)
        tau2 = T_TOTAL * 10.0 ** rng.uniform(-4, 0, 200)
        gamma, slope = _common_gamma(snr, floor, tau2, 2.5e5, half)
        one_by_one = [_common_gamma(snr, floor, t, 2.5e5, half) for t in tau2]
        assert gamma.tolist() == [g for g, _ in one_by_one]
        assert slope.tolist() == [d for _, d in one_by_one]


def unreachable_mi_floor(case):
    """An MI floor of 500 bits that no finite energy meets, and the time
    split to probe: at ``1e-12 T`` its water level passes the float range,
    and over an all-zero radar SNR vector no level meets it at all."""
    params, chan = shape_instance("frontier-n16", 0)
    params = replace(params, mi_floor=500.0)
    if case == "overflow":
        return params, chan, 1e-12 * T_TOTAL
    return params, replace(chan, radar_snr=np.zeros_like(chan.radar_snr)), 0.5 * T_TOTAL


@pytest.mark.parametrize("case", ["overflow", "zero-link"])
def test_unreachable_equal_power_floor_is_infinite_demand(case):
    params, chan, t2 = unreachable_mi_floor(case)
    gamma, slope = _common_gamma(chan.radar_snr, 500.0, t2, 2.5e5, True)
    assert gamma == math.inf and slope == -math.inf
    total, slope, _ = _equal_power_allocation(t2, chan, params)
    assert np.all(total == math.inf) and slope == -math.inf


@pytest.mark.parametrize("case", ["overflow", "zero-link"])
def test_unreachable_inner_floor_has_infinite_demand_and_slope(case):
    params, chan, t2 = unreachable_mi_floor(case)
    res = inner_allocation(t2, chan, params)
    assert res.stationarity_residual == math.inf
    assert float(np.sum(res.gamma)) == math.inf
    assert res.slope == -math.inf


def test_eq_frontier_with_far_probes():
    # frontier-n16 instance 30: a Newton probe of the eq frontier lands at a
    # time split where the common level is about 1e298 * tau2, far past the
    # 2**200 * tau2 that the old level's doubling bracket could reach
    params = make_params(n_subcarriers=16, n_antennas=3, rate_floor=20.0)
    chan = sample_channel(30, params, 15.0, 10.0)
    frontier = feasibility_frontier(params, chan, target="mi", scheme="eq")
    assert frontier == pytest.approx(524.25, abs=0.2)


@pytest.mark.parametrize("n_antennas", [1, 3, 5])
def test_closed_form_beam_matches_eigenvector(n_antennas):
    params = make_params(n_subcarriers=8, n_antennas=n_antennas, mi_floor=25.0, rate_floor=30.0)
    chans = [sample_channel(seed, params, 10.0, 10.0) for seed in range(4)]
    # a channel whose first entries vanish moves the phase reference
    h = chans[0].h.copy()
    h[: n_antennas - 1] = 0.0
    chans.append(ChannelRealization(h=h, radar_snr=chans[0].radar_snr, comm_snr=chans[0].comm_snr))
    n_optimal = 0
    for chan in chans:
        for sol in (solve(params, chan), eq_solve(params, chan)):
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            n_optimal += 1
            ref = rank_one_extract(sol.covariance_bar, sol.tau1)
            assert np.max(np.abs(sol.beam_vector - ref)) <= 1e-12 * np.linalg.norm(ref)
    assert n_optimal >= 4
