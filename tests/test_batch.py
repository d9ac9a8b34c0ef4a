"""A sweep trial's rows solved in lockstep equal the same rows solved alone.

Every ``op`` entry point runs each row's own time-split search
(``solver._outer_steps``).  In ``_solve_batch`` each row's search runs its
inner allocations itself, and one stacked profile call per round serves
every row's next multiplier step; ``solve`` answers one probe at a time.
``_eq_solve_batch`` runs the Newton iteration on the total power over an
array of the rows' floors, and ``eq_solve`` runs it on one row.  So each
row must come out bit for bit as ``solve``/``eq_solve`` give it, errors
included.
"""
import math
import warnings

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from wpirc import ChannelRealization, Solution, SolveStatus, eq_solve, solve
from wpirc.benchmark import _eq_solve_batch
import wpirc.solver
from wpirc.sim import sample_channel, trial_seed
from wpirc.solver import SolverError, _run_batch, _solve_batch

from conftest import make_params

SCHEMES = [(solve, _solve_batch), (eq_solve, _eq_solve_batch)]


def alone(fn, params, chan):
    try:
        return fn(params, chan)
    except Exception as exc:
        return exc


def assert_same_row(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.status is want.status
    assert (got.energy, got.tau1, got.tau2) == (want.energy, want.tau1, want.tau2)
    for name in ("gamma", "beam_vector", "covariance_bar"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def assert_batch_equals_alone(rows, chan):
    statuses = set()
    for single, batch in SCHEMES:
        for params, got in zip(rows, batch(rows, chan), strict=True):
            want = alone(single, params, chan)
            assert_same_row(got, want)
            statuses.add(getattr(want, "status", "error"))
    return statuses


def floor_grid(n):
    """Zero, single, feasible and infeasible floor pairs for ``n`` subcarriers."""
    mi, rate = 0.5 * n + 10.0, n + 15.0
    return [
        (0.0, 0.0),
        (mi, 0.0),
        (0.0, rate),
        (mi, rate),
        (4.0 * mi, rate),
        (mi, 4.0 * rate),
        (1e4 * mi, rate),
        (mi, 1e4 * rate),
    ]


@pytest.mark.parametrize("n", [1, 16, 128])
def test_grid_rows_equal_their_single_solves(n):
    statuses = set()
    for seed in range(3):
        base = make_params(n_subcarriers=n, n_antennas=3)
        chan = sample_channel(seed, base, 10.0, 10.0)
        rows = [replace(base, mi_floor=m, rate_floor=r) for m, r in floor_grid(n)]
        statuses |= assert_batch_equals_alone(rows, chan)
    assert {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.ZERO_DEMAND} <= statuses


def test_rows_on_an_all_zero_link_are_infeasible_alone_and_in_the_batch():
    # no finite energy meets a positive MI floor over an all-zero radar SNR
    # vector: infinite demand, infeasible; the rows that ask nothing of the
    # radar link still solve
    params = make_params(n_subcarriers=3, rate_floor=30.0)
    chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[0.0, 0.0, 0.0], comm_snr=[5.0, 2.0, 9.0])
    rows = [replace(params, mi_floor=m) for m in (0.0, 10.0, 0.0, 20.0)]
    optimal, infeasible = SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE
    for single, batch in SCHEMES:
        got = batch(rows, chan)
        assert [g.status for g in got] == [optimal, infeasible, optimal, infeasible]
        for params_row, row in zip(rows, got):
            assert_same_row(row, single(params_row, chan))


@pytest.mark.parametrize("seed", range(24))
def test_a_sweep_trial_makes_as_many_kernel_calls_as_its_costliest_row(seed, monkeypatch):
    # the criterion-4 sweep shape: no row waits for another between its
    # time-split probes, so the stacked calls are those of the row that
    # needs the most profile evaluations alone
    base = make_params(n_subcarriers=128, n_antennas=5, rate_floor=150.0)
    chan = sample_channel(trial_seed(seed, 0), base, 10.0, 10.0)
    rows = [replace(base, mi_floor=float(m)) for m in np.linspace(30.0, 250.0, 10)]
    calls = []
    jacobian = wpirc.solver._floor_jacobian
    monkeypatch.setattr(
        wpirc.solver, "_floor_jacobian", lambda *args: calls.append(1) or jacobian(*args)
    )
    alone_calls = []
    for params in rows:
        calls.clear()
        solve(params, chan)
        alone_calls.append(len(calls))
    calls.clear()
    _solve_batch(rows, chan)
    assert len(calls) == max(alone_calls)


floors = st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=4.0).map(lambda e: 10.0**e))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 16, 128]),
    seed=st.integers(min_value=0, max_value=2**16),
    snr_db=st.tuples(st.floats(min_value=-5.0, max_value=20.0), st.floats(min_value=-5.0, max_value=20.0)),
    pairs=st.lists(st.tuples(floors, floors), min_size=1, max_size=5),
)
def test_batch_rows_equal_their_single_solves(n, seed, snr_db, pairs):
    # floors stay at 0 or above 1e-2 bits, away from the known limit of
    # floors near 1e-9 bits on SNRs near 1e-4
    base = make_params(n_subcarriers=n, n_antennas=2)
    chan = sample_channel(seed, base, *snr_db)
    rows = [replace(base, mi_floor=m, rate_floor=r) for m, r in pairs]
    assert_batch_equals_alone(rows, chan)


def test_subnormal_floor_gives_the_equal_power_level_zero():
    params = make_params(n_subcarriers=3, mi_floor=1e-321, rate_floor=500.0)
    chan = ChannelRealization(
        h=[1.0, 0.5], radar_snr=[782.6, 2.0, 2.0], comm_snr=[482.07, 192.58, 266.73]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eq = eq_solve(params, chan)
        op = solve(params, chan)
    assert eq.status is SolveStatus.OPTIMAL and op.status is SolveStatus.OPTIMAL
    # the rate floor sets the level: the MI floor's own is 0
    assert eq.energy == eq_solve(replace(params, mi_floor=0.0), chan).energy
    assert math.isfinite(eq.energy) and eq.energy >= op.energy


@pytest.mark.parametrize("zero", ["efficiency", "h"])
def test_zero_harvest_budget_is_infeasible(zero):
    # B = eta ||h||^2 P is 0: no energy reaches the transmitter at any split
    params = make_params(n_subcarriers=4, mi_floor=10.0, rate_floor=10.0)
    chan = sample_channel(0, params, 10.0, 10.0)
    if zero == "efficiency":
        params = replace(params, efficiency=0.0)
    else:
        chan = replace(chan, h=np.zeros_like(chan.h))
    rows = [params, replace(params, mi_floor=0.0), replace(params, mi_floor=1e4)]
    empty = Solution.empty(SolveStatus.INFEASIBLE, params)
    for single, batch in SCHEMES:
        assert_same_row(single(params, chan), empty)
        for got in batch(rows, chan):
            assert_same_row(got, empty)


class TestRunBatch:
    def test_one_kernel_call_per_round_serves_every_pending_search(self):
        def search(k):
            total = 0
            for i in range(k):
                total += yield (k, i)
            return total

        calls = []

        def kernel(requests):
            calls.append(list(requests))
            return [k * 10 + i for k, i in requests]

        assert _run_batch([search(1), search(3), search(0), search(2)], kernel) == [10, 93, 0, 41]
        assert calls == [[(1, 0), (3, 0), (2, 0)], [(3, 1), (2, 1)], [(3, 2)]]

    def test_kernel_error_is_thrown_only_into_the_searches_whose_requests_raise(self):
        def search(x):
            try:
                y = yield x
            except ValueError as exc:
                return f"caught {exc}"
            return y

        calls = []

        def kernel(requests):
            calls.append(list(requests))
            if any(r < 0 for r in requests):
                raise ValueError("negative")
            return [r * r for r in requests]

        assert _run_batch([search(2), search(-1), search(3)], kernel) == [4, "caught negative", 9]
        # the stacked call, then one call per row
        assert calls == [[2, -1, 3], [2], [-1], [3]]

    def test_exception_returned_as_an_answer_is_thrown_into_its_search_only(self):
        def search(x):
            total = 0
            for _ in range(2):
                try:
                    total += yield x
                except SolverError as exc:
                    return f"caught {exc}"
            return total

        calls = []

        def kernel(requests):
            calls.append(list(requests))
            return [SolverError("diverged") if r < 0 else r * r for r in requests]

        assert _run_batch([search(2), search(-1), search(3)], kernel) == [8, "caught diverged", 18]
        # one call per round, no call row by row
        assert calls == [[2, -1, 3], [2, 3]]

    def test_a_raising_search_leaves_the_others_running(self):
        def search(x):
            y = yield x
            if y == 4:
                raise SolverError("diverged")
            return y

        results = _run_batch([search(1), search(2), search(3)], lambda rs: [r * r for r in rs])
        assert results[0] == 1 and results[2] == 9
        assert isinstance(results[1], SolverError) and str(results[1]) == "diverged"
