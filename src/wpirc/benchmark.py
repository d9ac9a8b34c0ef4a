"""Equal-power benchmark scheme and the feasibility frontier.

:func:`eq_solve` restricts the energy profile to one common level and
shares the optimal scheme's time-split search.  :func:`feasibility_frontier`
finds the largest floor either scheme can meet as the optimum of one
concave program over the time split, a budget water-filling (or equal
split) inside a bracketed search on its slope, instead of a search over
the floor on the solvers' status.  It returns a lower bound within 1e-9
bits.
"""
from __future__ import annotations

import math
import sys
from dataclasses import replace
from typing import Callable, Generator, Optional

import numpy as np

from .model import LN2, ChannelRealization, Solution, SystemParams
# bound here so that the layer trace (bench/layertrace.py) can count the
# rate evaluations and solves this module makes; it makes none
from .model import comm_rate, radar_mi  # noqa: F401
from .solver import solve  # noqa: F401
from .solver import (
    DEFAULT_OPTIONS,
    SolverError,
    SolverOptions,
    _ask,
    _demand_slope,
    _outer_steps,
    _run_batch,
    inner_allocation,
    solve_with_allocation,
)

__all__ = ["eq_solve", "feasibility_frontier"]

_LOG_MAX = math.log(sys.float_info.max)
_TINY = sys.float_info.min  # smallest normal float


def _common_level(snr: np.ndarray, delta_f: float, half: bool, max_iter: int) -> Callable:
    """Smallest common per-subcarrier energy meeting one rate floor, and its
    slope in ``tau2``, for one link.

    Returns ``level(floor, tau2) -> (gamma, slope)``; the sums over the
    link's SNRs are taken once.  The common level ``x = gamma / tau2``
    solves ``F(u) = sum log1p(e^u s) = target`` in ``u = log x``, with
    ``target = floor ln 2 / (delta_f tau2)``, doubled for the sensing MI
    (``half``) and its 1/2 prefactor.  ``F`` is convex and increasing.
    Over ``s > 0``, ``sum log(e^u s) <= F(u)`` makes ``u0 = (target - sum
    log s) / N+`` an upper bound on the root, and ``log1p(z) >= 2z / (2 +
    z)`` gives ``F >= 2xS / (2 + x s_max)`` with ``S = sum s``, so ``x = 2
    target / (2S - target s_max)`` is one too where it is positive; the
    iteration starts at the smaller.  Newton steps from there fall
    monotonically and every iterate meets the floor.  As ``F'' <= F'``, a
    step of size ``d`` leaves an error under ``d^2 / 2``, so the iteration
    ends after a step under 1e-8, the rounding-level step up from a gap
    just below zero included; ``max_iter`` caps the steps.  A start at
    which ``e^u`` or ``e^u s`` overflows means that no finite energy meets
    the floor: the level is then ``inf``.  A target below ``S`` times the
    smallest normal float, a zero floor's included, has a level below the
    float range: it reads 0, with slope 0.  Implicit differentiation of
    ``F(u) = target`` gives the slope ``x (1 - target / F'(u))``, with
    ``F'`` taken at the returned level.

    ``floor`` and ``tau2`` may be arrays: every element of their broadcast
    runs the same iteration at once and stops on its own rule, and both
    results take its shape.
    """
    s = snr[snr > 0]
    total = float(np.add.reduce(s))
    s_max = float(np.maximum.reduce(s, initial=0.0))
    log_sum = float(np.add.reduce(np.log(s)))
    u_max = _LOG_MAX - math.log(max(s_max, 1.0))  # e^u s overflows past it

    def level(floor, tau2) -> tuple:
        target = (2.0 if half else 1.0) * floor * LN2 / delta_f / np.asarray(tau2, dtype=float)
        shape = np.shape(target)
        if not s.size:
            if np.any(target > 0.0):
                raise SolverError("rate floor demanded over an all-zero SNR vector")
            return np.zeros(shape)[()], np.zeros(shape)[()]
        target = np.reshape(target, -1)
        below = target < _TINY * total
        # the iteration runs on a stand-in where the level reads 0
        target = np.maximum(target, _TINY * total)
        u0 = (target - log_sum) / s.size
        # 1 / x of the second bound where it holds (inv > 0); elsewhere u0 stands
        inv = total / target - 0.5 * s_max
        u = np.minimum(u0, -np.log(inv, out=-u0, where=inv > 0.0))
        finite = u < u_max
        u = np.where(finite, u, 0.0)  # kept harmless while the finite levels iterate
        live = finite
        for _ in range(max_iter):
            xs = np.exp(u)[:, None] * s
            grad = np.add.reduce(xs / (1.0 + xs), 1)
            if not np.count_nonzero(live):
                break
            step = (np.add.reduce(np.log1p(xs), 1) - target) / grad * live
            u -= step
            live = step > 1e-8
        x = np.where(below, 0.0, np.exp(u))
        # a level near the float limit can have a slope past it: that reads -inf
        with np.errstate(over="ignore"):
            gamma = np.where(finite, x, math.inf).reshape(shape) * tau2
            slope = np.where(finite, x * (1.0 - target / grad), -math.inf)
        return gamma[()], slope.reshape(shape)[()]

    return level


def _equal_power_kernel(chan: ChannelRealization, delta_f: float, max_iter: int) -> Callable:
    """The equal-power profile kernel on one channel: for a list of
    ``(tau2, mi_floor, rate_floor)`` requests, one :func:`_common_level`
    call per link, split into one ``(gamma, slope)`` answer per request,
    the profile at ``tau2`` and the slope of its total.

    The common energy is the larger of the two floors' levels; where they
    tie, either floor's slope is a subgradient of the total.
    """
    n = chan.n_subcarriers
    radar_level = _common_level(chan.radar_snr, delta_f, True, max_iter)
    comm_level = _common_level(chan.comm_snr, delta_f, False, max_iter)

    def kernel(requests: list) -> list:
        tau2, mi_floor, rate_floor = np.array(requests).T
        levels = map(max, zip(*radar_level(mi_floor, tau2)), zip(*comm_level(rate_floor, tau2)))
        return [(np.full(n, gamma), n * float(slope)) for gamma, slope in levels]

    return kernel


def eq_solve(
    params: SystemParams,
    chan: ChannelRealization,
    options: SolverOptions = DEFAULT_OPTIONS,
) -> Solution:
    """Solve the restriction with equal energy on every subcarrier.

    Only the power profile is restricted; the time split and the
    beamformer are optimized exactly as in :func:`wpirc.solver.solve`,
    with the Newton levels of :func:`_common_level` as the allocator.
    """
    kernel = _equal_power_kernel(chan, params.delta_f, options.max_bisect)

    def allocator(tau2: float) -> tuple[np.ndarray, float]:
        return kernel([(tau2, params.mi_floor, params.rate_floor)])[0]

    return solve_with_allocation(params, chan, allocator, options)


def _eq_solve_batch(
    rows: list[SystemParams], chan: ChannelRealization, options: SolverOptions = DEFAULT_OPTIONS
) -> list:
    """:func:`eq_solve` for rows that differ only in their floors, on one
    channel, in lockstep (:func:`wpirc.solver._run_batch`): one stacked
    kernel call per round serves every row's time-split probe.  Returns
    each row's ``Solution`` or the exception its solve raised, equal to
    what :func:`eq_solve` returns or raises for that row alone."""

    def search(params: SystemParams) -> Generator:
        return _outer_steps(
            params, chan, lambda t2: _ask((t2, params.mi_floor, params.rate_floor)), options
        )

    kernel = _equal_power_kernel(chan, rows[0].delta_f, options.max_bisect)
    return _run_batch([search(p) for p in rows], kernel)


def _water_filling(
    snr: np.ndarray, half: bool, delta_f: float, budget_rate: float, total_time: float
) -> Callable:
    """Most bits one link carries with the whole energy budget, by ``tau2``.

    At a fixed ``tau2`` the budget allows ``sum x <= X = B (T - tau2) /
    tau2`` on the powers ``x = gamma / tau2``, and water-filling gives
    ``x = max(0, a - 1/s)``.  With the SNRs sorted in decreasing order and
    ``C_k`` the sum of the first ``k`` inverses, ``k`` subcarriers are above
    water when ``X`` exceeds ``theta_j = j / s_j - C_j`` for ``j <= k``, and
    then ``a = (X + C_k) / k``.  The budget's multiplier is ``nu = c
    delta_f / (ln 2 a)``, with ``c`` 1/2 for the sensing MI and 1 for the
    rate, so the envelope slope in ``tau2`` is ``c delta_f / ln 2 *
    sum[log1p(y) - y / (1 + y)] - nu B`` with ``1 + y = a s``.

    Returns ``curve(tau2) -> (bits, slope, x)``; ``snr`` needs a positive
    entry.
    """
    s = np.sort(snr[snr > 0])[::-1]
    inv = np.cumsum(1.0 / s)
    log_sum = np.cumsum(np.log(s))
    theta = np.arange(1, s.size + 1) / s - inv
    inv_snr = np.divide(1.0, snr, out=np.full_like(snr, np.inf), where=snr > 0)
    scale = (0.5 if half else 1.0) * delta_f / LN2

    def curve(t2: float) -> tuple:
        total = budget_rate * (total_time - t2) / t2
        k = int(np.searchsorted(theta, total))  # theta[0] = 0 < total
        a = (total + inv[k - 1]) / k
        logs = k * math.log(a) + log_sum[k - 1]
        slope = scale * (logs - k + (inv[k - 1] - budget_rate) / a)
        return scale * t2 * logs, slope, np.maximum(a - inv_snr, 0.0)

    return curve


def _equal_power(
    snr: np.ndarray, half: bool, delta_f: float, budget_rate: float, total_time: float
) -> Callable:
    """Bits of one link when the whole budget is spread evenly, by ``tau2``.

    Every subcarrier gets the power ``x = k (T - tau2) / tau2`` with ``k =
    B / N_c``, so the bits ``c delta_f tau2 sum log1p(x s) / ln 2`` are the
    perspective of a concave function of an affine one, with slope ``c
    delta_f / ln 2 * sum[log1p(y) - (y + k s) / (1 + y)]`` for ``y = x s``.

    Returns ``curve(tau2) -> (bits, slope, x)``.
    """
    share = budget_rate / snr.size
    scale = (0.5 if half else 1.0) * delta_f / LN2

    def curve(t2: float) -> tuple:
        x = share * (total_time - t2) / t2
        y = x * snr
        logs = np.log1p(y)
        value = scale * t2 * float(np.add.reduce(logs))
        slope = scale * float(np.add.reduce(logs - (y + share * snr) / (1.0 + y)))
        return value, slope, x

    return curve


def _concave_max(f: Callable, total_time: float, options: SolverOptions) -> float:
    """Largest value of a concave function of ``tau2`` on (0, T), from below.

    ``f(t)`` returns the value and its slope.  A value of ``-inf`` marks a
    ``t`` outside the function's domain, an interval, and then the sign of
    the slope says on which side of ``t`` the domain lies.  The slope
    decreases, so the maximum sits where it changes sign: a bracket on that
    point shrinks by regula-falsi steps on the slope, halving the kept end's
    slope when the same end moves twice (Illinois), and by bisection while
    an end's slope is unknown.  By concavity ``f(t*) <= f(t) + |f'(t)| (hi -
    lo)``, so the search stops when that bound falls to 1e-9 bits, or when
    the bracket is narrower than ``time_tol * T``, and returns the best
    value it evaluated (``-inf`` if none was in the domain).  A bracket
    that closes on an edge of the domain returns the value ``time_tol * T``
    inside that edge instead.  ``max_bisect`` caps the evaluations.
    """
    xtol = options.time_tol * total_time
    lo, hi = 0.0, total_time
    d_lo, d_hi = math.inf, -math.inf  # end slopes; infinite where unknown
    moved = 0  # +1 if lo moved last, -1 if hi did
    best = -math.inf
    for _ in range(options.max_bisect):
        if hi - lo <= xtol:
            # a maximum on an edge of the domain (one end off it, the other
            # on it) is taken xtol inside: solve resolves the time split to
            # xtol, so a feasible interval narrower than that reads infeasible
            if math.isinf(d_hi) and math.isfinite(d_lo):
                return f(lo - xtol)[0]
            if math.isinf(d_lo) and math.isfinite(d_hi):
                return f(hi + xtol)[0]
            return best
        t = 0.5 * (lo + hi)
        if math.isfinite(d_lo - d_hi):
            guess = lo + (hi - lo) * d_lo / (d_lo - d_hi)
            t = guess if lo < guess < hi else t
        value, slope = f(t)
        best = max(best, value)
        inside = value > -math.inf
        if inside and abs(slope) * (hi - lo) <= 1e-9:
            return best
        if slope > 0.0:
            lo, d_lo = t, slope if inside else math.inf
            d_hi *= 0.5 if moved > 0 else 1.0
            moved = 1
        else:
            hi, d_hi = t, slope if inside else -math.inf
            d_lo *= 0.5 if moved < 0 else 1.0
            moved = -1
    raise SolverError("frontier search over the time split did not converge")


def feasibility_frontier(
    params: SystemParams,
    chan: ChannelRealization,
    target: str,
    scheme: str = "op",
    options: SolverOptions = DEFAULT_OPTIONS,
) -> float:
    """Largest rate/MI floor (bits) that keeps the instance feasible.

    ``target`` selects which floor is swept ("mi" or "rate"); the other
    floor is left at its configured value.  The frontier is the optimum of
    the concave program ``max target(gamma, tau2)`` subject to the other
    floor and ``sum gamma <= B (T - tau2)`` with ``B = eta ||h||^2 P``:
    both floors are perspectives of ``log``.  So it is ``max V(tau2)``
    over (0, T), with ``V`` the best target at a fixed ``tau2``, concave,
    found by :func:`_concave_max`.

    For ``op``, ``V`` is the target's budget water-filling
    (:func:`_water_filling`) wherever that profile meets the other floor.
    Elsewhere the other floor binds, and ``V`` is the root ``r`` of ``D(r)
    = B (T - tau2)``, with ``D`` the least energy of
    :func:`wpirc.solver.inner_allocation` at floors ``(r, other)``.  ``D``
    is convex and increasing with slope ``lambda`` (the target's
    multiplier), so Newton steps from the water-filling bits, an upper
    bound, fall to the root; implicit differentiation gives ``V' = -(B +
    dD/dtau2) / lambda``.  For ``eq`` the budget binds, every subcarrier
    gets ``B (T - tau2) / N_c`` (:func:`_equal_power`), and ``V`` is that
    profile's target wherever it meets the other floor.  Where even the
    whole budget misses the other floor, ``V = -inf`` and the slope of that
    floor's own curve points to its interval.  The frontier is 0 when the
    other floor is unreachable on its own, which the same maximizer decides
    on that floor's curve.

    The result is a lower bound within 1e-9 bits of the frontier (to the
    inner allocation's tolerance where the other floor binds), unless the
    search ends on the ``time_tol * T`` bracket width: at a maximum on the
    edge of the other floor's interval it is the value ``time_tol * T``
    inside, where ``solve`` and ``eq_solve`` still find a feasible split.
    """
    if target not in ("mi", "rate"):
        raise ValueError("target must be 'mi' or 'rate'")
    if scheme not in ("op", "eq"):
        raise ValueError("scheme must be 'op' or 'eq'")
    mi_target = target == "mi"
    snr_t, snr_o = (chan.radar_snr, chan.comm_snr) if mi_target else (chan.comm_snr, chan.radar_snr)
    other = params.rate_floor if mi_target else params.mi_floor
    budget = params.efficiency * float(np.real(np.vdot(chan.h, chan.h))) * params.power_cap
    if budget == 0.0 or not snr_t.any() or (other > 0.0 and not snr_o.any()):
        return 0.0
    total_time, df = params.total_time, params.delta_f
    make = _water_filling if scheme == "op" else _equal_power
    reach_t = make(snr_t, mi_target, df, budget, total_time)
    reach_o = make(snr_o, not mi_target, df, budget, total_time)
    if other > 0.0 and _concave_max(lambda t2: reach_o(t2)[:2], total_time, options) < other:
        return 0.0
    other_scale = (1.0 if mi_target else 0.5) * df / LN2

    def value(t2: float) -> tuple[float, float]:
        bits, slope, x = reach_t(t2)
        if other_scale * t2 * float(np.add.reduce(np.log1p(x * snr_o))) >= other:
            return bits, slope
        most, toward = reach_o(t2)[:2]
        if scheme == "op" and most >= other:
            binding = binding_frontier(t2, bits, budget * (total_time - t2))
            if binding is not None:
                return binding
        return -math.inf, toward

    def binding_frontier(t2: float, r: float, energy: float) -> Optional[tuple[float, float]]:
        """Newton on ``D(r) = energy`` from the upper bound ``r``; None where
        the target's multiplier vanishes, on the domain's edge: there the
        other floor alone takes the whole budget."""
        start = None
        for _ in range(options.max_bisect):
            trial = replace(params, **{f"{target}_floor": r})
            res = inner_allocation(t2, chan, trial, options, start=start)
            start = res.duals
            lam = start.lambda_r if mi_target else start.lambda_c
            if lam == 0.0:
                return None
            step = (float(np.add.reduce(res.gamma)) - energy) / lam
            r -= step
            if step <= 1e-9 * max(1.0, r):
                return r, -(budget + _demand_slope(res, t2, chan, trial)) / lam
        raise SolverError("frontier with both floors binding did not converge")

    return float(max(_concave_max(value, total_time, options), 0.0))
