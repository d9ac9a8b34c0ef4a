"""The predicted start of the ``op`` time-split search.

Where both floors bind at ``T``, ``solve`` first predicts the slot by a
Newton search in the scaled multipliers at ``tau2 = 1``
(``_predicted_slot``).  The time-split search then starts next to the
prediction and keeps its certificates.  Where the optimum binds one floor
alone the search has no root and declines.  ``t_start_solve`` is the
search without a prediction, from ``T``, as it ran before.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wpirc.solver
from wpirc import ChannelRealization, SolveStatus, inner_allocation, solve
from wpirc.model import harvest_rate
from wpirc.sim import sample_channel, trial_seed
from wpirc.solver import (
    TIME_TOL,
    _predicted_slot,
    _single_floor,
    _solve_batch,
    _warm_start,
    links,
)

from conftest import DF, T_TOTAL, make_params
from test_multiplier_search import shape_instance


def no_prediction(params, chan, pair):
    return None
    yield  # a generator, as _predicted_slot is


def t_start_solve(monkeypatch, params, chan):
    with monkeypatch.context() as patch:
        patch.setattr(wpirc.solver, "_predicted_slot", no_prediction)
        return solve(params, chan)


def same_bits(a, b):
    assert a.status is b.status
    if a.status is SolveStatus.OPTIMAL:
        assert (a.tau2, a.energy) == (b.tau2, b.energy)
        assert a.gamma.tobytes() == b.gamma.tobytes()
        assert a.beam_vector.tobytes() == b.beam_vector.tobytes()


def margin(params, chan, tau2):
    """The time-split margin and its slope at ``tau2``."""
    res = inner_allocation(tau2, chan, params)
    budget_rate = harvest_rate(params, chan)
    total = float(np.sum(res.gamma))
    return total - budget_rate * (params.total_time - tau2), res.slope + budget_rate


def count_profile_evaluations(monkeypatch):
    calls = [0]
    jacobian = wpirc.solver._floor_jacobian

    def counted(*args):
        calls[0] += 1
        return jacobian(*args)

    monkeypatch.setattr(wpirc.solver, "_floor_jacobian", counted)
    return calls


def test_prediction_halves_the_profile_evaluations(monkeypatch):
    # 14 per solve from T on these channels; the prediction, started at the
    # deficit-scaled single-floor multipliers, and one probe of one
    # evaluation leave about 5
    calls = count_profile_evaluations(monkeypatch)
    for seed in range(8):
        params, chan = shape_instance("solve-n1024", seed)
        assert solve(params, chan).status is SolveStatus.OPTIMAL
    assert calls[0] / 8 <= 6


@pytest.mark.parametrize("seed", range(4))
def test_predicted_slot_matches_the_search_from_t(monkeypatch, seed):
    params, chan = shape_instance("solve-n1024", seed)
    first = wpirc.solver._run(
        _predicted_slot(params, chan, links(chan, params.delta_f)),
        wpirc.solver._jacobian_kernel(chan, params.delta_f),
    )
    reference = t_start_solve(monkeypatch, params, chan)
    tau2, predicted = first
    assert predicted.active == "both"
    # the prediction lies within half a step of the slot, and the warm
    # start from it is the inner allocation's duals there
    assert abs(tau2 - reference.tau2) <= TIME_TOL * T_TOTAL
    inner = inner_allocation(tau2, chan, params)
    start = _warm_start(predicted, tau2, params)
    assert start.lambda_r == pytest.approx(inner.duals.lambda_r, rel=1e-9)
    assert start.lambda_c == pytest.approx(inner.duals.lambda_c, rel=1e-9)
    sol = solve(params, chan)
    assert sol.energy == pytest.approx(reference.energy, rel=1e-8, abs=0.0)
    assert abs(sol.tau2 - reference.tau2) <= TIME_TOL * T_TOTAL


def predict_at(monkeypatch, tau2):
    """Patch ``_predicted_slot`` to predict ``tau2``, with the inner
    allocation there as the start; return the list of predictions made."""
    made = []

    def predict(params, chan, pair):
        made.append(tau2)
        return tau2, inner_allocation(tau2, chan, params)
        yield  # a generator, as _predicted_slot is

    monkeypatch.setattr(wpirc.solver, "_predicted_slot", predict)
    return made


@pytest.mark.parametrize("where", ["inside the interval", "left of the smaller root"])
def test_a_prediction_that_certifies_nothing_gives_the_search_from_t(monkeypatch, where):
    for seed in range(3):
        params, chan = shape_instance("sweep-n128", seed)
        reference = t_start_solve(monkeypatch, params, chan)
        assert reference.status is SolveStatus.OPTIMAL
        if where == "inside the interval":
            tau2 = reference.tau2 - 0.01 * T_TOTAL
        else:
            tau2 = 1e-3 * T_TOTAL
        # what the first probe sees: inside, a margin below zero; left of
        # the smaller root, a margin that falls or is not finite
        phi, slope = margin(params, chan, tau2 - 0.5 * TIME_TOL * T_TOTAL)
        if where == "inside the interval":
            assert phi < 0.0
        else:
            assert phi > 0.0 and not (slope > 0.0 and phi < math.inf)
        made = predict_at(monkeypatch, tau2)
        same_bits(solve(params, chan), reference)
        (batch,) = _solve_batch([params], chan)
        same_bits(batch, reference)
        assert made == [tau2, tau2]
        monkeypatch.undo()


def test_infeasible_channel_stays_infeasible():
    # channel 29 of the solve-n1024 workload: both floors bind at T, but
    # no slot meets both within the budget
    params, chan = shape_instance("solve-n1024", 29)
    assert solve(params, chan).status is SolveStatus.INFEASIBLE
    (batch,) = _solve_batch([params], chan)
    assert batch.status is SolveStatus.INFEASIBLE


def single_floor_row(seed, index):
    """A ``sweep-n128`` row: master seed ``seed``, MI floor ``index`` of the
    10 floors 30...250 bits."""
    params, _ = shape_instance("sweep-n128", 0)
    params = replace(params, mi_floor=float(np.linspace(30.0, 250.0, 10)[index]))
    return params, sample_channel(trial_seed(seed, 0), params, 10.0, 10.0)


# the sweep-n128 rows that bind both floors at T and one floor alone at
# the optimum
@pytest.mark.parametrize("seed, index", [(15, 7), (19, 8), (23, 7)])
def test_a_single_floor_optimum_is_not_predicted(monkeypatch, seed, index):
    params, chan = single_floor_row(seed, index)
    assert inner_allocation(T_TOTAL, chan, params).active == "both"
    calls = count_profile_evaluations(monkeypatch)
    first = wpirc.solver._run(
        _predicted_slot(params, chan, links(chan, params.delta_f)),
        wpirc.solver._jacobian_kernel(chan, params.delta_f),
    )
    assert first is None
    # the reduced search declines after three steps at the cap that lower
    # one multiplier, well before PREDICT_CALLS
    assert calls[0] <= 5
    reference = t_start_solve(monkeypatch, params, chan)
    same_bits(solve(params, chan), reference)
    (batch,) = _solve_batch([params], chan)
    same_bits(batch, reference)
    assert inner_allocation(reference.tau2, chan, params).active in ("mi", "rate")


def oracle_row(seed):
    """Config ``seed`` of the ``oracle-n2`` workload: N_c 2, N_t 2, 10 dB
    / 10 dB, floors from U(5, 40) bits."""
    mi_floor, rate_floor = np.random.default_rng(1).uniform(5.0, 40.0, (32, 2))[seed]
    params = make_params(n_subcarriers=2, n_antennas=2, mi_floor=mi_floor, rate_floor=rate_floor)
    return params, sample_channel(seed, params, 10.0, 10.0)


# the oracle-n2 configs whose deficit-scaled start has a profile on fewer
# than two subcarriers: a singular Jacobian, from which the search
# declines (7) or halves its way to a decline (3, 28)
@pytest.mark.parametrize("seed", [3, 7, 28])
def test_a_start_on_one_subcarrier_restarts_at_the_single_floor_multipliers(monkeypatch, seed):
    params, chan = oracle_row(seed)
    pair = links(chan, params.delta_f)
    kernel = wpirc.solver._jacobian_kernel(chan, params.delta_f)
    single, lam_r1, lam_c1, mi, rate = _single_floor(T_TOTAL, pair, params)
    assert single is None
    mu_r, mu_c = lam_r1 * (1.0 - mi / params.mi_floor), lam_c1 * (1.0 - rate / params.rate_floor)
    assert np.count_nonzero(wpirc.solver._gamma_profile(mu_r, mu_c, 1.0, kernel)) < 2
    calls = count_profile_evaluations(monkeypatch)
    first = wpirc.solver._run(_predicted_slot(params, chan, pair), kernel)
    # one evaluation more than a search from the single-floor multipliers
    assert first is not None and calls[0] <= 7
    reference = t_start_solve(monkeypatch, params, chan)
    sol = solve(params, chan)
    assert sol.status is reference.status is SolveStatus.OPTIMAL
    assert sol.energy == pytest.approx(reference.energy, rel=1e-8, abs=0.0)
    assert abs(sol.tau2 - reference.tau2) <= 2 * TIME_TOL * T_TOTAL


snrs = st.floats(min_value=-10.0, max_value=20.0).map(lambda db: 10.0 ** (db / 10.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([16, 64, 128]),
    data=st.data(),
    levels=st.tuples(st.floats(min_value=-1.0, max_value=1.5), st.floats(-1.0, 1.5)),
    budget=st.floats(min_value=0.0, max_value=3.0),
)
def test_two_floor_prediction_matches_the_search_from_t(n, data, levels, budget):
    radar = np.array(data.draw(st.lists(snrs, min_size=n, max_size=n), label="radar"))
    comm = np.array(data.draw(st.lists(snrs, min_size=n, max_size=n), label="comm"))
    # floors that the profile of two positive multipliers meets at T with
    # equality bind both there; at level 0 each multiplier alone puts the
    # water level at an SNR of 1
    lam_r = 2.0 * math.log(2.0) / DF * 10.0 ** levels[0]
    lam_c = math.log(2.0) / DF * 10.0 ** levels[1]
    kernel = wpirc.solver._Kernel(radar, comm, DF)
    x = wpirc.solver._gamma_profile(lam_r, lam_c, T_TOTAL, kernel) / T_TOTAL
    shape = ChannelRealization(h=[1.0 + 0j], radar_snr=radar, comm_snr=comm)
    radar_link, comm_link = links(shape, DF)
    params = make_params(
        n_subcarriers=n,
        n_antennas=1,
        mi_floor=radar_link.bits(x, T_TOTAL),
        rate_floor=comm_link.bits(x, T_TOTAL),
    )
    # a harvest rate 1...1000 times the power at T: from no slot that
    # meets both floors to a slot near T
    gain = math.sqrt(10.0**budget * float(np.sum(x)) / (params.efficiency * params.power_cap))
    chan = ChannelRealization(h=[gain + 0j], radar_snr=radar, comm_snr=comm)
    assume(inner_allocation(T_TOTAL, chan, params).active == "both")
    sol = solve(params, chan)
    reference = t_start_solve(pytest.MonkeyPatch(), params, chan)
    assert sol.status is reference.status
    if sol.status is SolveStatus.OPTIMAL:
        assert sol.energy == pytest.approx(reference.energy, rel=1e-8, abs=0.0)
        assert abs(sol.tau2 - reference.tau2) <= 2 * TIME_TOL * T_TOTAL
    (batch,) = _solve_batch([params], chan)
    same_bits(batch, sol)


def one_floor_slot(link, floor, budget_rate, total_time):
    """The largest slot at which ``link``'s floor alone is met within the
    budget, with its powers, or ``None``: Newton steps in the total power
    ``S`` on the concave ``scale B T G(S) - floor (S + B)``, from the
    powers that meet the floor at ``T``, with the budget binding at
    ``tau2 = B T / (S + B)``."""
    total = float(np.add.reduce(link.fill(floor, total_time)[0]))
    scale = link.scale * budget_rate * total_time
    for _ in range(200):
        g, grad, x = link.pour(total)
        slope = scale * grad - floor
        step = (floor * (total + budget_rate) - scale * g) / slope if slope > 0.0 else math.nan
        if not math.isfinite(step):
            return None
        if step <= 1e-13 * total:
            return budget_rate * total_time / (total + budget_rate), x
        total += step
    return None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("floor", ["mi_floor", "rate_floor"])
def test_single_floor_optimum_is_the_one_floor_slot(monkeypatch, seed, floor):
    params, chan = shape_instance("sweep-n128", seed)
    alone = replace(params, **{"rate_floor" if floor == "mi_floor" else "mi_floor": 0.0})
    radar, comm = pair = links(chan, params.delta_f)
    link = radar if floor == "mi_floor" else comm
    # with one floor, no prediction is made and no profile is evaluated
    calls = count_profile_evaluations(monkeypatch)
    first = wpirc.solver._run(
        _predicted_slot(alone, chan, pair), wpirc.solver._jacobian_kernel(chan, params.delta_f)
    )
    assert first is None
    sol = solve(alone, chan)
    assert calls[0] == 0
    tau2, x = one_floor_slot(link, getattr(params, floor), harvest_rate(params, chan), T_TOTAL)
    # the search stops within one step of TIME_TOL * T below the root,
    # give or take its rounding
    assert abs(tau2 - sol.tau2) <= 2 * TIME_TOL * T_TOTAL
    assert link.bits(x, tau2) == pytest.approx(getattr(params, floor), rel=1e-12)
    assert inner_allocation(sol.tau2, chan, alone).active == floor.split("_")[0]


def test_single_floor_out_of_reach_is_infeasible():
    params, chan = shape_instance("sweep-n128", 0)
    radar, _ = links(chan, params.delta_f)
    budget_rate = harvest_rate(params, chan)
    # more bits than any split can buy: at most scale tau2 sum log2(1 + B T
    # s / tau2) with all the budget on every subcarrier, rising in tau2
    reach = radar.scale * T_TOTAL * float(np.sum(np.log2(1.0 + budget_rate * radar.snr)))
    alone = replace(params, mi_floor=1.01 * reach, rate_floor=0.0)
    assert one_floor_slot(radar, alone.mi_floor, budget_rate, T_TOTAL) is None
    assert solve(alone, chan).status is SolveStatus.INFEASIBLE
    (batch,) = _solve_batch([alone], chan)
    assert batch.status is SolveStatus.INFEASIBLE
