"""The warm starts of the time-split probes against cold references.

Each ``op`` probe of the time-split search starts its multiplier search
from a Newton step predicted at the new ``tau2`` from what the probe
before it returned (``_warm_start``).  ``cold_solve`` answers every probe
from scratch instead, as the search did before it carried any start.  For
``eq``, which has no time-split search, it is the search over the cold
equal-power levels that ``eq_solve`` ran before (``reference_eq_solve``).
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wpirc.solver
from wpirc import ChannelRealization, SolveStatus, eq_solve, inner_allocation, solve
from wpirc.solver import TIME_TOL, solve_with_allocation

from conftest import T_TOTAL, make_params
from test_multiplier_search import shape_instance
from test_slot_prediction import no_prediction
from test_time_split import reference_eq_solve


def cold_solve(params, chan, scheme):
    """``solve`` with no start at any probe, or the former ``eq_solve``."""
    if scheme == "eq":
        return reference_eq_solve(params, chan)

    def allocator(t2, start):
        res = inner_allocation(t2, chan, params)
        return res.gamma, res.slope, None

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
    # multiplier search spends its first one elsewhere.  A solve whose
    # prediction the dual bound certifies makes one probe, so the probes
    # here are those of the search from T, without a prediction
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
    monkeypatch.setattr(wpirc.solver, "_predicted_slot", no_prediction)
    warm_both = 0
    for seed in range(24):
        params, chan = shape_instance("solve-n1024", seed)
        requests.clear()
        results.clear()
        assert solve(params, chan).status is SolveStatus.OPTIMAL
        for (_, prev), (first, res) in zip(results, results[1:]):
            if res.active == "both":
                warm_both += 1
                assert requests[first] != (prev.duals.lambda_r, prev.duals.lambda_c)
    # at least three warm probes after the first on each channel
    assert warm_both >= 3 * 24
