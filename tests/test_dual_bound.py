"""The dual bound that ends a predicted ``op`` time-split search at its
first probe.

After maximum-ratio beamforming the problem is convex in ``(gamma, tau2)``,
so its Lagrange dual at any multipliers bounds the least energy from below
(``_dual_bound``, at the duals of an inner allocation).  A predicted search
probes ``TIME_TOL * T / 2`` left of the predicted slot first and returns
there when the margin is not positive and the bound is within what one
``TIME_TOL * T`` step of the slot is worth; elsewhere the search goes on
from that probe or from ``T``.  The reference is the two-probe corrector
that ran before the bound: a first probe ``TIME_TOL * T / 2`` right of
the predicted slot, then the Newton steps, with no bound.
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
from wpirc.sim import trial_seed, sample_channel
from wpirc.solver import (
    DUAL_TOL,
    TIME_TOL,
    _dual_bound,
    _predicted_slot,
    _solve_batch,
    links,
    solve_with_allocation,
)

from conftest import T_TOTAL, make_params
from test_multiplier_search import shape_instance
from test_slot_prediction import predict_at, same_bits


def spy_probes(monkeypatch):
    """Patch ``_outer_steps`` to record, per search, its prediction and the
    slots it probes; return the list of ``(first, probes)``."""
    searches = []
    outer = wpirc.solver._outer_steps

    def spied(params, chan, answer, first=None):
        probes = []
        searches.append((first, probes))

        def counted(params, tau2, start):
            probes.append(tau2)
            return answer(params, tau2, start)

        return (yield from outer(params, chan, counted, first))

    monkeypatch.setattr(wpirc.solver, "_outer_steps", spied)
    return searches


def no_bound(inner, params, budget_rate):
    return -math.inf


def corrector(monkeypatch, run, *args):
    """``run(*args)`` by the two-probe corrector: no bound, and the
    prediction moved one ``TIME_TOL * T`` step right, so the first probe
    lies ``TIME_TOL * T / 2`` right of the predicted slot."""
    predict = wpirc.solver._predicted_slot

    def right(params, chan, pair):
        first = yield from predict(params, chan, pair)
        return None if first is None else (first[0] + TIME_TOL * params.total_time, first[1])

    with monkeypatch.context() as patch:
        patch.setattr(wpirc.solver, "_dual_bound", no_bound)
        patch.setattr(wpirc.solver, "_predicted_slot", right)
        return run(*args)


def sweep_trial(seed):
    """The rows and channel of one criterion-4 sweep trial (``sweep-n128``)."""
    base = make_params(n_subcarriers=128, n_antennas=5, rate_floor=150.0)
    chan = sample_channel(trial_seed(seed, 0), base, 10.0, 10.0)
    return [replace(base, mi_floor=float(m)) for m in np.linspace(30.0, 250.0, 10)], chan


def assert_corrector_slot(got, want):
    assert got.status is want.status
    if got.status is SolveStatus.OPTIMAL:
        assert abs(got.tau2 - want.tau2) <= 1e-15 * T_TOTAL
        assert got.energy == pytest.approx(want.energy, rel=1e-12, abs=0.0)


def converged_probes(searches):
    """The number of probes of each search whose prediction converged
    (the reduced multiplier search, which gives a start)."""
    return [len(probes) for first, probes in searches if first is not None and first[1] is not None]


def test_solve_makes_one_probe_where_the_prediction_converged(monkeypatch):
    instances = [shape_instance("solve-n1024", seed) for seed in range(96)]
    wants = [corrector(monkeypatch, solve, *instance) for instance in instances]
    searches = spy_probes(monkeypatch)
    for instance, want in zip(instances, wants):
        assert_corrector_slot(solve(*instance), want)
    probes = converged_probes(searches)
    assert len(probes) == 95 and set(probes) == {1}


@pytest.mark.parametrize("seed", range(24))
def test_sweep_rows_make_one_probe_where_the_prediction_converged(monkeypatch, seed):
    rows, chan = sweep_trial(seed)
    wants = corrector(monkeypatch, _solve_batch, rows, chan)
    searches = spy_probes(monkeypatch)
    for sol, want in zip(_solve_batch(rows, chan), wants, strict=True):
        assert_corrector_slot(sol, want)
    assert len(searches) == len(rows)
    probes = converged_probes(searches)
    assert probes and set(probes) == {1}


def test_prediction_left_of_the_slot_runs_the_corrector(monkeypatch):
    # 1e-8 T left of the slot the margin is negative but the gap is about
    # ten steps' worth: the search starts again from T, as the corrector's
    # does after its probe there, bit for bit
    for seed in range(3):
        params, chan = shape_instance("sweep-n128", seed)
        slot = solve(params, chan).tau2
        predict_at(monkeypatch, slot - 1e-8 * T_TOTAL)
        want = corrector(monkeypatch, solve, params, chan)
        searches = spy_probes(monkeypatch)
        same_bits(solve(params, chan), want)
        (batch,) = _solve_batch([params], chan)
        same_bits(batch, want)
        assert [probes[1] for _, probes in searches] == [T_TOTAL, T_TOTAL]
        monkeypatch.undo()


def test_prediction_right_of_the_slot_goes_on_from_its_probe(monkeypatch):
    # 1e-8 T right of the slot the margin is positive, which no bound can
    # make a solution: the Newton steps go on from that probe, bit for bit
    # as without the bound
    for seed in range(3):
        params, chan = shape_instance("sweep-n128", seed)
        slot = solve(params, chan).tau2
        predict_at(monkeypatch, slot + 1e-8 * T_TOTAL)
        with monkeypatch.context() as patch:
            patch.setattr(wpirc.solver, "_dual_bound", no_bound)
            want = solve(params, chan)
        searches = spy_probes(monkeypatch)
        same_bits(solve(params, chan), want)
        (batch,) = _solve_batch([params], chan)
        same_bits(batch, want)
        for _, probes in searches:
            assert len(probes) > 1 and probes[1] < probes[0]
        monkeypatch.undo()


def test_answer_without_an_inner_allocation_searches_from_t():
    # an allocator that hands on its duals alone gives no bound: after the
    # first probe the search runs as without the prediction, bit for bit
    params, chan = shape_instance("sweep-n128", 0)
    probes = []

    def allocator(t2, start):
        probes.append(t2)
        res = inner_allocation(t2, chan, params)
        return res.gamma, res.slope, res.duals

    first = wpirc.solver._run(
        _predicted_slot(params, chan, links(chan, params.delta_f)),
        wpirc.solver._jacobian_kernel(chan, params.delta_f),
    )
    sol = solve_with_allocation(params, chan, allocator, first)
    predicted, probes[:] = probes[:], []
    same_bits(sol, solve_with_allocation(params, chan, allocator))
    assert predicted[1:] == probes


def test_floors_met_loosely_do_not_certify_a_probe_left_of_the_slot():
    # a both-floor inner allocation may end with a residual up to 1e3
    # DUAL_TOL.  An MI short by that much lowers sum(gamma) by lambda_r
    # times it, here some 300 times what one TIME_TOL * T step is worth, so
    # a gap on sum(gamma) itself would certify a probe ten steps left of
    # the slot.  Moved to the floors, the gap still reads the ten steps
    params, chan = shape_instance("sweep-n128", 0)
    slot = solve(params, chan).tau2
    short = 0.999e3 * DUAL_TOL * max(1.0, params.mi_floor)
    probes = []

    def loose(t2, start):
        # the same duals and slope, with the MI and energy of a profile
        # that falls short of the MI floor by `short`, to first order
        probes.append(t2)
        res = inner_allocation(t2, chan, params)
        energy = float(np.sum(res.gamma))
        gamma = res.gamma * (1.0 - res.duals.lambda_r * short / energy)
        residual = short / max(1.0, params.mi_floor)
        res = replace(res, gamma=gamma, mi=res.mi - short, stationarity_residual=residual)
        return gamma, res.slope, res

    first = (slot - 10.0 * TIME_TOL * T_TOTAL, None)
    sol = solve_with_allocation(params, chan, loose, first)
    assert sol.status is SolveStatus.OPTIMAL
    assert len(probes) > 1 and probes[1] == T_TOTAL
    assert sol.tau2 - probes[0] > TIME_TOL * T_TOTAL


snrs = st.floats(min_value=-40.0, max_value=40.0).map(lambda db: 10.0 ** (db / 10.0))
floors = st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=3.0).map(lambda e: 10.0**e))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=16),
    data=st.data(),
    gain=st.floats(min_value=-1.0, max_value=1.0),
    floor_pair=st.tuples(floors, floors),
)
def test_the_bound_never_exceeds_the_optimum(n, data, gain, floor_pair):
    radar = data.draw(st.lists(snrs, min_size=n, max_size=n), label="radar")
    comm = data.draw(st.lists(snrs, min_size=n, max_size=n), label="comm")
    chan = ChannelRealization(h=[10.0**gain + 0j], radar_snr=radar, comm_snr=comm)
    mi_floor, rate_floor = floor_pair
    params = make_params(n_subcarriers=n, n_antennas=1, mi_floor=mi_floor, rate_floor=rate_floor)
    sol = solve(params, chan)
    assume(sol.status is SolveStatus.OPTIMAL)
    budget_rate = harvest_rate(params, chan)
    # solve meets each floor to DUAL_TOL * max(1, floor), so its energy may
    # lie below the optimum by the floors' multipliers times that: (1 + nu)
    # lambda at its slot, in the scaling of the bound
    here = inner_allocation(sol.tau2, chan, params)
    nu = -here.slope / (budget_rate + here.slope)
    slack = (1.0 + nu) * DUAL_TOL * (
        here.duals.lambda_r * max(1.0, mi_floor) + here.duals.lambda_c * max(1.0, rate_floor)
    )
    optimum = float(np.sum(sol.gamma)) + slack
    bounded = 0
    for tau2 in [*np.linspace(0.05, 1.0, 20) * T_TOTAL, sol.tau2]:
        bound = _dual_bound(inner_allocation(tau2, chan, params), params, budget_rate)
        if bound > -math.inf:
            bounded += 1
            assert bound <= optimum
    assert bounded
