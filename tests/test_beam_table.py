"""The channel's beam table, and ``Link.pour`` against its reference.

Every optimal row on a channel has a covariance and a beam that are scalar
multiples of one matrix and one vector, so ``solver._mrt_solution`` scales
the channel's beam table (``solver._Beam``, kept in
``solver._channel_tables``) instead of rebuilding both from ``h``.  The
references below are the arithmetic that built them from ``h`` per row,
and the water-filling of a total power.  The table rounds differently,
so its covariance and beam agree with the reference to rounding (1e-15
relative to their largest entry), its energy bit for bit; ``pour`` does
the same arithmetic, bit for bit.
"""
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wpirc import ChannelRealization, SolveStatus, eq_solve, mrt_covariance, solve
from wpirc.benchmark import _eq_solve_batch
from wpirc.model import LN2
from wpirc.sim import sample_channel
from wpirc.solver import (
    Link,
    _Beam,
    _channel_tables,
    _mrt_solution,
    _solve_batch,
)

from conftest import DF, T_TOTAL, make_params

REL = 1e-15


def reference_mrt(h, total, eta, tau1):
    """Covariance, energy and beam of an optimal row, built from ``h`` as
    each row built them before the table."""
    hn2 = float(np.real(np.vdot(h, h)))
    q = (total / (eta * hn2 * hn2)) * np.outer(h, h.conj())
    q = 0.5 * (q + q.conj().T)
    lead = h[np.flatnonzero(np.abs(h) > 1e-12 * math.sqrt(hn2))[0]]
    scale = math.sqrt(total / (eta * hn2 * hn2 * tau1))
    return q, total / (eta * hn2), (scale * np.conj(lead) / abs(lead)) * h


def reference_pour(link, total):
    """``Link.pour``: the water-filling powers of ``total`` and their bits."""
    log_sum, _, inv_sum, theta, inv = link._sorted
    k = int(np.searchsorted(theta, total))
    a = (total + inv_sum[k - 1]) / k
    return k * math.log2(a) + log_sum[k - 1], 1.0 / (a * LN2), np.maximum(a - inv, 0.0)


def rel_diff(a, b) -> float:
    return float(np.abs(a - b).max() / np.abs(b).max())


def channel(h, n_subcarriers=2) -> ChannelRealization:
    return ChannelRealization(
        h=h, radar_snr=np.ones(n_subcarriers), comm_snr=np.full(n_subcarriers, 2.0)
    )


def assert_matches_reference(sol, chan, params, tau2, total):
    q, energy, beam = reference_mrt(chan.h, total, params.efficiency, params.total_time - tau2)
    assert struct.pack("<d", sol.energy) == struct.pack("<d", energy)
    assert rel_diff(sol.covariance_bar, q) <= REL
    assert rel_diff(sol.beam_vector, beam) <= REL
    public, trace = mrt_covariance(chan.h, total, params.efficiency)
    assert trace == energy
    assert rel_diff(sol.covariance_bar, public) <= REL


# zero entries, entries below the 1e-12 share of the norm that the lead
# search skips, and entries of either sign, on norms from 1e-6 to 1e6
entries = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=1e-13, allow_nan=False, allow_infinity=False),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    h=st.lists(entries, min_size=1, max_size=4),
    magnitude=st.floats(-6.0, 6.0),
    total=st.floats(-8.0, 2.0),
    slot=st.floats(1e-3, 0.999),
    efficiency=st.floats(0.05, 1.0),
)
@example(h=[0.3 - 2j], magnitude=0.0, total=-4.0, slot=0.5, efficiency=0.5)
@example(h=[0j, 1e-14, 1 + 1j, -2.0], magnitude=5.0, total=0.0, slot=0.2, efficiency=0.5)
@example(h=[1.0, 0.5j], magnitude=-6.0, total=-8.0, slot=0.9, efficiency=1.0)
def test_table_rows_match_the_rows_built_from_h(h, magnitude, total, slot, efficiency):
    h = np.array(h, dtype=complex) * 10.0**magnitude
    assume(np.abs(h).max() > 1e-6 * 10.0**magnitude)
    chan = channel(h)
    params = make_params(n_antennas=h.size, efficiency=efficiency)
    tau2, total = slot * T_TOTAL, 10.0**total
    sol = _mrt_solution(params, chan, tau2, np.array([total, 0.0]), total)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.tau1 == T_TOTAL - tau2 and sol.tau2 == tau2
    assert_matches_reference(sol, chan, params, tau2, total)


def optimal_rows(chan, params):
    rows = [replace(params, mi_floor=float(m)) for m in np.linspace(30.0, 250.0, 10)]
    batches = _solve_batch(rows, chan) + _eq_solve_batch(rows, chan)
    assert all(sol.status is SolveStatus.OPTIMAL for sol in batches)
    return batches


def test_rows_of_a_batch_hold_their_own_arrays():
    params = make_params(n_subcarriers=128, n_antennas=5, rate_floor=150.0)
    chan = sample_channel(3, params, 10.0, 10.0)
    sols = optimal_rows(chan, params)
    table = _channel_tables(chan, params.delta_f)[2].unit[1:]
    arrays = [a for sol in sols for a in (sol.beam_vector, sol.covariance_bar, sol.gamma)]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, t) for t in table)
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])
    want = [a.copy() for a in arrays]
    for a in arrays[:3]:
        a[:] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(arrays[3:], want[3:]))
    # the table is untouched: the rows again, on the same table, are as before
    again = optimal_rows(chan, params)
    got = [a for sol in again for a in (sol.beam_vector, sol.covariance_bar, sol.gamma)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def count_tables(monkeypatch):
    built = [0]
    unit = _Beam.__dict__["unit"]
    build = unit.func

    def counted(self):
        built[0] += 1
        return build(self)

    monkeypatch.setattr(unit, "func", counted)
    return built


def test_channels_in_turn_each_get_their_own_beam(monkeypatch):
    params = make_params(n_subcarriers=16, n_antennas=3, mi_floor=40.0, rate_floor=60.0)
    a, b = (sample_channel(seed, params, 10.0, 10.0) for seed in (4, 5))
    built = count_tables(monkeypatch)
    for chan in (a, b, a):
        for sol in (solve(params, chan), eq_solve(params, chan)):
            assert sol.status is SolveStatus.OPTIMAL
            assert_matches_reference(sol, chan, params, sol.tau2, float(np.sum(sol.gamma)))
    # one table per turn, shared by both schemes; the third turn builds a's
    # again, since only the latest channel's tables are kept
    assert built[0] == 3


def test_a_sweep_trial_builds_one_table(monkeypatch):
    params = make_params(n_subcarriers=128, n_antennas=5, rate_floor=150.0)
    chan = sample_channel(0, params, 10.0, 10.0)
    built = count_tables(monkeypatch)
    assert len(optimal_rows(chan, params)) == 20
    assert built[0] == 1


def test_zero_channel_builds_no_table(monkeypatch):
    params = make_params(mi_floor=1.0, rate_floor=1.0)
    chan = channel(np.zeros(2, dtype=complex))
    built = count_tables(monkeypatch)
    assert solve(params, chan).status is SolveStatus.INFEASIBLE
    assert eq_solve(params, chan).status is SolveStatus.INFEASIBLE
    assert built[0] == 0


@pytest.mark.parametrize("total", [1e-9, 1.0, 1e6])
def test_pour_is_the_reference_bit_for_bit(total):
    link = Link(np.array([0.0, 1e-3, 1.0, 30.0]), DF)
    g, grad, x = link.pour(total)
    g_ref, grad_ref, x_ref = reference_pour(link, total)
    assert (g, grad) == (g_ref, grad_ref)
    assert x.tobytes() == x_ref.tobytes()
