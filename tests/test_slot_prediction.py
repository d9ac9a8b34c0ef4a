"""The predicted start of the ``op`` time-split search.

Where both floors bind at ``T``, ``solve`` first predicts the slot: from
each floor's own slot where the other floor holds there, else from a
Newton search in the scaled multipliers at ``tau2 = 1``
(``_predicted_slot``).  The time-split search then starts next to the
prediction and keeps its certificates.  ``t_start_solve`` is the search
without a prediction, from ``T``, as it ran before.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

import wpirc.solver
from wpirc import SolveStatus, inner_allocation, solve
from wpirc.model import harvest_rate
from wpirc.sim import sample_channel, trial_seed
from wpirc.solver import (
    TIME_TOL,
    _one_floor_slot,
    _predicted_slot,
    _solve_batch,
    _warm_start,
    links,
)

from conftest import T_TOTAL
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
    # 14 per solve from T on these channels; the prediction and one probe
    # of one evaluation leave about 7
    calls = count_profile_evaluations(monkeypatch)
    for seed in range(8):
        params, chan = shape_instance("solve-n1024", seed)
        assert solve(params, chan).status is SolveStatus.OPTIMAL
    assert calls[0] / 8 <= 10


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


def near_single_floor_row():
    # a sweep-n128 row that binds both floors at T and the MI floor alone
    # at the optimum (master seed 15, MI floor 201.1 bits)
    params, _ = shape_instance("sweep-n128", 0)
    params = replace(params, mi_floor=float(np.linspace(30.0, 250.0, 10)[7]))
    return params, sample_channel(trial_seed(15, 0), params, 10.0, 10.0)


def test_one_floor_slot_that_meets_the_other_floor_is_predicted_free(monkeypatch):
    params, chan = near_single_floor_row()
    assert inner_allocation(T_TOTAL, chan, params).active == "both"
    calls = count_profile_evaluations(monkeypatch)
    first = wpirc.solver._run(
        _predicted_slot(params, chan, links(chan, params.delta_f)),
        wpirc.solver._jacobian_kernel(chan, params.delta_f),
    )
    assert calls[0] == 0 and first[1] is None
    sol = solve(params, chan)
    assert calls[0] == 0
    reference = t_start_solve(monkeypatch, params, chan)
    assert sol.energy == pytest.approx(reference.energy, rel=1e-8, abs=0.0)
    assert abs(sol.tau2 - reference.tau2) <= TIME_TOL * T_TOTAL
    assert inner_allocation(sol.tau2, chan, params).active == "mi"


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("floor", ["mi_floor", "rate_floor"])
def test_one_floor_slot_is_the_single_floor_optimum(seed, floor):
    params, chan = shape_instance("sweep-n128", seed)
    alone = replace(params, **{"rate_floor" if floor == "mi_floor" else "mi_floor": 0.0})
    radar, comm = links(chan, params.delta_f)
    link = radar if floor == "mi_floor" else comm
    tau2, x = _one_floor_slot(link, getattr(params, floor), harvest_rate(params, chan), T_TOTAL)
    sol = solve(alone, chan)
    # the search stops within one step of TIME_TOL * T below the root,
    # give or take its rounding
    assert abs(tau2 - sol.tau2) <= 2 * TIME_TOL * T_TOTAL
    assert link.bits(x, tau2) == pytest.approx(getattr(params, floor), rel=1e-12)


def test_one_floor_slot_out_of_reach_is_none():
    params, chan = shape_instance("sweep-n128", 0)
    radar, _ = links(chan, params.delta_f)
    budget_rate = harvest_rate(params, chan)
    # more bits than any split can buy: at most scale tau2 sum log2(1 + B T
    # s / tau2) with all the budget on every subcarrier, rising in tau2
    reach = radar.scale * T_TOTAL * float(np.sum(np.log2(1.0 + budget_rate * radar.snr)))
    floor = 1.01 * reach
    assert _one_floor_slot(radar, floor, budget_rate, T_TOTAL) is None
