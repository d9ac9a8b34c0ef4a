"""The warm starts of the time-split probes against cold references.

Each probe of the time-split search starts from what the probe before it
returned: the ``op`` multiplier search from a Newton step predicted at the
new ``tau2`` (``_warm_start``), and each ``eq`` level from the tangent of
the level before (``Link.level``).  ``cold_solve`` answers every probe from
scratch instead, as the search did before it carried any start: the inner
allocation with no start, and the levels with no tangent.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpirc.solver
from wpirc import ChannelRealization, SolveStatus, eq_solve, inner_allocation, solve
from wpirc.benchmark import _equal_power_kernel
from wpirc.solver import TIME_TOL, Link, solve_with_allocation

from conftest import T_TOTAL, make_params
from test_multiplier_search import shape_instance


def cold_solve(params, chan, scheme):
    """``solve`` or ``eq_solve`` with no start at any probe."""
    if scheme == "op":

        def allocator(t2, start):
            res = inner_allocation(t2, chan, params)
            return res.gamma, res.slope, None

    else:
        kernel = _equal_power_kernel(chan, params.delta_f)

        def allocator(t2, start):
            return kernel([(params, t2, None)])[0]

    return solve_with_allocation(params, chan, allocator)


snrs = st.one_of(
    st.just(0.0), st.floats(min_value=-60.0, max_value=60.0).map(lambda db: 10.0 ** (db / 10.0))
)
# floors from 0.1 bits up: item 5 of the roadmap (floors near 1e-9 bits on
# SNRs near 1e-4) is a known limit of the multiplier search, warm or cold
floors = st.floats(min_value=-1.0, max_value=3.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2, 16]),
    data=st.data(),
    gain=st.floats(min_value=-1.0, max_value=1.0),
    floor_pair=st.one_of(
        st.tuples(floors, floors), st.tuples(floors, st.just(0.0)), st.tuples(st.just(0.0), floors)
    ),
    scheme=st.sampled_from(["op", "eq"]),
)
def test_warm_search_matches_the_cold_one(n, data, gain, floor_pair, scheme):
    radar = data.draw(st.lists(snrs, min_size=n, max_size=n), label="radar")
    comm = data.draw(st.lists(snrs, min_size=n, max_size=n), label="comm")
    chan = ChannelRealization(h=[10.0**gain + 0j], radar_snr=radar, comm_snr=comm)
    mi_floor, rate_floor = floor_pair
    params = make_params(n_subcarriers=n, n_antennas=1, mi_floor=mi_floor, rate_floor=rate_floor)
    warm = (solve if scheme == "op" else eq_solve)(params, chan)
    cold = cold_solve(params, chan, scheme)
    assert warm.status is cold.status
    if warm.status is SolveStatus.OPTIMAL:
        assert warm.energy == pytest.approx(cold.energy, rel=1e-8, abs=0.0)
        assert abs(warm.tau2 - cold.tau2) <= 2 * TIME_TOL * T_TOTAL


def test_warm_probes_do_not_start_at_the_last_duals(monkeypatch):
    # the previous probe's duals at the new tau2 give a residual and a
    # Jacobian that are known without a profile evaluation, so a warm
    # multiplier search spends its first one elsewhere
    requests, results = [], []
    jacobian, inner = wpirc.solver._floor_jacobian, wpirc.solver.inner_allocation

    def spy_jacobian(lambda_r, lambda_c, *rest):
        requests.append((float(lambda_r[0, 0]), float(lambda_c[0, 0])))
        return jacobian(lambda_r, lambda_c, *rest)

    def spy_inner(*args):
        first = len(requests)
        results.append((first, inner(*args)))
        return results[-1][1]

    monkeypatch.setattr(wpirc.solver, "_floor_jacobian", spy_jacobian)
    monkeypatch.setattr(wpirc.solver, "inner_allocation", spy_inner)
    warm_both = 0
    # a predicted slot leaves one probe after the first on most channels
    for seed in range(24):
        params, chan = shape_instance("solve-n1024", seed)
        requests.clear()
        results.clear()
        assert solve(params, chan).status is SolveStatus.OPTIMAL
        for (_, prev), (first, res) in zip(results, results[1:]):
            if res.active == "both":
                warm_both += 1
                assert requests[first] != (prev.duals.lambda_r, prev.duals.lambda_c)
    assert warm_both >= 16


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    snr=st.lists(st.floats(min_value=-60.0, max_value=60.0), min_size=1, max_size=16),
    floor=st.floats(min_value=-3.0, max_value=4.0),
    tau2=st.floats(min_value=-6.0, max_value=0.0),
    below=st.floats(min_value=1e-12, max_value=10.0),
    half=st.booleans(),
)
def test_a_third_bound_below_the_root_still_meets_the_floor(snr, floor, tau2, below, half):
    link = Link(10.0 ** (np.array(snr) / 10.0), (0.5 if half else 1.0) * 2.5e5)
    floor, tau2 = 10.0**floor, T_TOTAL * 10.0**tau2
    gamma, slope, (u, target, grad) = link.level(floor, tau2)
    # a tangent through a point ``below`` left of the root at its target
    start = (u - below, target, grad)
    warm_gamma, warm_slope, _ = link.level(floor, tau2, start)
    assert warm_gamma == pytest.approx(gamma, rel=1e-12)
    assert warm_slope == pytest.approx(slope, rel=1e-9)
    if 0.0 < gamma < math.inf:
        assert link.bits(warm_gamma / tau2, tau2) >= floor * (1.0 - 1e-12)
