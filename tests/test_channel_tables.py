"""One channel's link tables and profile constants, built once and shared.

A ``ChannelRealization`` holds read-only copies of its arrays and is hashed
by identity, so the solver keeps the link pair and profile kernel of the
most recent channel (``solver._channel_tables``) for every entry point:
``solve``'s slot prediction and probes, ``eq_solve``, ``inner_allocation``,
``feasibility_frontier`` and ``equal_power_demand_bound``.  These tests pin
that the shared tables are sound (a channel cannot change under them, and
switching channels gives what fresh channels give, bit for bit), that they
keep no more than one channel alive, and that a solve builds one pair.
"""
import dataclasses
import gc
import struct
import weakref

import numpy as np
import pytest

import wpirc.solver
from wpirc import (
    ChannelRealization,
    SolveStatus,
    eq_solve,
    feasibility_frontier,
    inner_allocation,
    solve,
)
from wpirc.certify import equal_power_demand_bound
from wpirc.sim import sample_channel
from wpirc.solver import Link, _single_floor, links

from conftest import make_params

PARAMS = make_params(n_subcarriers=16, n_antennas=3, mi_floor=40.0, rate_floor=60.0)


def as_bytes(value) -> bytes:
    """The bits of a result: arrays and floats by their bytes, dataclasses
    and sequences by their items."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    if isinstance(value, float):
        return struct.pack("<d", value)
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return b"(" + b",".join(as_bytes(v) for v in value) + b")"
    return repr(value).encode()


def entry_points(chan) -> bytes:
    """Every entry point that reads the channel's tables, on one channel."""
    sol = solve(PARAMS, chan)
    assert sol.status is SolveStatus.OPTIMAL
    inner = inner_allocation(sol.tau2, chan, PARAMS)
    assert inner.active == "both"
    results = [sol, eq_solve(PARAMS, chan), inner, equal_power_demand_bound(PARAMS, chan)]
    for target in ("mi", "rate"):
        results += [feasibility_frontier(PARAMS, chan, target, s) for s in ("op", "eq")]
    return as_bytes(results)


def fresh(chan):
    return ChannelRealization(h=chan.h, radar_snr=chan.radar_snr, comm_snr=chan.comm_snr)


def count_link_pairs(monkeypatch):
    built = [0]
    init = Link.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(Link, "__init__", counted)
    return built


def count_sorts(monkeypatch):
    """Counts ``np.sort`` calls: a solve sorts only for a link's fill tables."""
    sorts = [0]
    sort = np.sort

    def counted(*args, **kwargs):
        sorts[0] += 1
        return sort(*args, **kwargs)

    monkeypatch.setattr(wpirc.solver.np, "sort", counted)
    return sorts


@pytest.mark.parametrize("name", ["h", "radar_snr", "comm_snr"])
def test_channel_arrays_are_read_only_copies(name):
    fields = {"h": np.array([1.0, 0.5j]), "radar_snr": np.ones(3), "comm_snr": np.full(3, 2.0)}
    given = fields[name]
    kept = given.copy()
    chan = ChannelRealization(**fields)
    with pytest.raises(ValueError, match="read-only"):
        getattr(chan, name)[0] = 7.0
    # the caller's array is neither frozen nor shared
    assert given.flags.writeable
    given[0] = 3.0
    np.testing.assert_array_equal(getattr(chan, name), kept)


def test_channels_in_turn_match_fresh_channels(monkeypatch):
    a, b = (sample_channel(seed, PARAMS, 10.0, 10.0) for seed in (0, 1))
    want = [entry_points(fresh(chan)) for chan in (a, b, a)]
    pairs = count_link_pairs(monkeypatch)
    assert [entry_points(chan) for chan in (a, b, a)] == want
    assert want[0] != want[1]
    # one pair per turn, shared by every entry point
    assert pairs[0] == 2 * 3


def test_tables_keep_only_the_latest_channel():
    a, b = (sample_channel(seed, PARAMS, 10.0, 10.0) for seed in (2, 3))
    solve(PARAMS, a)
    dropped = weakref.ref(a)
    del a
    solve(PARAMS, b)
    gc.collect()
    assert dropped() is None
    assert links(b, PARAMS.delta_f) is links(b, PARAMS.delta_f)


def test_large_solve_sorts_each_link_once(monkeypatch):
    params = make_params(n_subcarriers=1024, n_antennas=5, mi_floor=960.0, rate_floor=1200.0)
    chan = sample_channel(0, params, 10.0, 10.0)
    pairs, sorts = count_link_pairs(monkeypatch), count_sorts(monkeypatch)
    assert solve(params, chan).status is SolveStatus.OPTIMAL
    assert (pairs[0], sorts[0]) == (2, 2)


def test_solve_where_one_floor_binds_at_t_builds_one_pair(monkeypatch):
    params = make_params(mi_floor=20.0, rate_floor=5.0)
    chan = sample_channel(0, params, 10.0, 10.0)
    pair = (Link(chan.radar_snr, 0.5 * params.delta_f), Link(chan.comm_snr, params.delta_f))
    assert _single_floor(params.total_time, pair, params)[0] is not None
    built = count_link_pairs(monkeypatch)
    assert solve(params, chan).status is SolveStatus.OPTIMAL
    assert built[0] == 2
