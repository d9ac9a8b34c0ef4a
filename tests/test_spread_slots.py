"""The least total power whose even split meets a floor
(``solver._spread_slots``), the one equal-power level search, against brentq.

``least_root`` is the reference: a bisection on the slope of the concave
margin ``h`` finds its peak, and brentq the root below it.
"""
import math

import numpy as np
import pytest
from scipy.optimize import brentq

import wpirc.solver
from wpirc.model import LN2
from wpirc.solver import Link, _spread_slots

from conftest import DF, T_TOTAL

BUDGET = 40.0  # harvest rate B, J/s


def margin(link, floor, slot, total):
    """``h(S) = coef G(S) - floor max(S + B, c)`` and its slope at the total
    power ``S``, with the even split of ``S`` over the link, ``coef G`` its
    bits times ``B T`` and the cap ``c = B T / slot``."""
    snr = link.snr / link.snr.size
    coef = link.scale / LN2 * BUDGET * T_TOTAL
    cap = BUDGET * T_TOTAL / slot
    y = total * snr
    h = coef * float(np.sum(np.log1p(y))) - floor * max(total + BUDGET, cap)
    slope = coef * float(np.sum(snr / (1.0 + y))) - floor * (total + BUDGET > cap)
    return h, slope


def least_root(link, floor, slot):
    """brentq's least root of ``h``, NaN where its peak is negative, and
    the peak's value (near 0 where ``h`` is near tangent)."""
    hi = 1.0
    while margin(link, floor, slot, hi)[1] > 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if margin(link, floor, slot, mid)[1] > 0.0 else (lo, mid)
    peak = margin(link, floor, slot, hi)[0]
    if peak < 0.0:
        return math.nan, peak
    root = brentq(lambda s: margin(link, floor, slot, s)[0], 0.0, hi, xtol=1e-300, rtol=1e-15)
    return root, peak


def random_pair(rng, n):
    """Sensing and data links over ``n`` SNRs from 1e-6 to 1e6, a fifth of them zero."""
    snr = 10.0 ** rng.uniform(-6.0, 6.0, (2, n))
    snr[rng.random((2, n)) < 0.2] = 0.0
    return Link(snr[0], 0.5 * DF), Link(snr[1], DF)


def random_rows(rng, k):
    """``(2, k)`` floors from 1e-3 to 1e4 bits and ``k`` slot caps, a third at ``T``."""
    floors = 10.0 ** rng.uniform(-3.0, 4.0, (2, k))
    slots = np.where(rng.random(k) < 1 / 3, T_TOTAL, T_TOTAL * 10.0 ** rng.uniform(-3.0, 0.0, k))
    return floors, slots


@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_least_root_matches_brentq(rng, n):
    found = unreachable = 0
    for _ in range(40):
        pair = random_pair(rng, n)
        floors, slots = random_rows(rng, 5)
        total = _spread_slots(pair, floors, BUDGET, T_TOTAL, slots)
        for (i, j), got in np.ndenumerate(total):
            root, peak = least_root(pair[i], floors[i, j], slots[j])
            if abs(peak) < 1e-6 * floors[i, j] * BUDGET:
                continue  # near tangent: the root is ill-conditioned
            if math.isnan(root):
                assert math.isnan(got)
                unreachable += 1
            else:
                assert got == pytest.approx(root, rel=1e-12)
                found += 1
    assert found > 100 and unreachable > 10


class FirstLog1p:
    """numpy, keeping the argument of the first ``log1p`` call: the
    powers ``S0 s`` of the Newton iteration's start."""

    def __init__(self):
        self.first = None

    def __getattr__(self, name):
        return getattr(np, name)

    def log1p(self, x, *args, **kwargs):
        if self.first is None:
            self.first = np.array(x)
        return np.log1p(x, *args, **kwargs)


@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_start_is_below_the_least_root(rng, n, monkeypatch):
    # Jensen: sum log1p(S s) <= N log1p(S sum(s) / N), so h(S0) <= 0
    spy = FirstLog1p()
    monkeypatch.setattr(wpirc.solver, "np", spy)
    for _ in range(40):
        pair = random_pair(rng, n)
        floors, slots = random_rows(rng, 1)
        spy.first = None
        _spread_slots(pair, floors, BUDGET, T_TOTAL, slots)
        for i, y in enumerate(spy.first):
            snr = pair[i].snr / n
            if not snr.any() or np.isnan(y).any():
                continue  # no start: the row reads NaN at once
            start = y[np.argmax(snr)] / snr.max()
            h, _ = margin(pair[i], floors[i, 0], slots[0], start)
            assert h <= 1e-12 * floors[i, 0] * max(start + BUDGET, BUDGET * T_TOTAL / slots[0])
            root, _ = least_root(pair[i], floors[i, 0], slots[0])
            if not math.isnan(root):
                assert start <= root * (1 + 1e-12)


@pytest.mark.parametrize("n", [1, 16, 1024])
def test_each_row_is_what_it_is_alone(rng, n):
    for _ in range(4):
        pair = random_pair(rng, n)
        floors, slots = random_rows(rng, 8)
        floors[0, 1] = floors[1, 2] = 0.0  # a zero floor reads 0 and leaves the pass
        total = _spread_slots(pair, floors, BUDGET, T_TOTAL, slots)
        for (i, j), got in np.ndenumerate(total):
            alone = np.zeros((2, 1))
            alone[i, 0] = floors[i, j]
            (want,) = _spread_slots(pair, alone, BUDGET, T_TOTAL, slots[j])[i]
            assert got.tobytes() == want.tobytes()
        assert total[0, 1] == total[1, 2] == 0.0
