"""Equal-power benchmark scheme and the feasibility frontier.

:func:`eq_solve` restricts the energy profile to one common level, which
makes it a concave program in the total power alone.
:func:`feasibility_frontier` finds the largest floor either scheme can
meet as the optimum of one concave program over the time split, a budget
water-filling (or equal split) inside a bracketed search on its slope,
instead of a search over the floor on the solvers' status.  It returns a
lower bound within 1e-9 bits.
"""
from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .model import LN2, ChannelRealization, Solution, SolveStatus, SystemParams, harvest_rate
# bound here so that the layer trace (bench/layertrace.py) can count the
# rate evaluations and solves this module makes; it makes none
from .model import comm_rate, radar_mi  # noqa: F401
from .solver import solve  # noqa: F401
from .solver import (
    DUAL_TOL,
    MAX_ITER,
    TIME_TOL,
    Link,
    SolverError,
    _mrt_solution,
    _spread_slots,
    _validate_instance,
    inner_allocation,
    links,
)

__all__ = ["eq_solve", "feasibility_frontier"]


def eq_solve(
    params: SystemParams,
    chan: ChannelRealization,
) -> Solution:
    """Solve the restriction with equal energy on every subcarrier.

    The time split and the beamformer stay optimal.  With the common power
    ``S / N_c`` and the budget binding, each floor holds from a least total
    power ``S_i`` (:func:`wpirc.solver._spread_slots`) up to the larger
    root of its concave margin, so the optimum is ``S* = max(S_r, S_c)``
    if both floors hold there, each to ``DUAL_TOL * max(1, floor)``.
    """
    return _equal_power_rows([params], chan)[0]


def _eq_solve_batch(rows: list[SystemParams], chan: ChannelRealization) -> list:
    """:func:`eq_solve` for rows that differ only in their floors, on one
    channel, in one pass over the rows' floors, each row bit for bit as
    alone.  Returns each row's ``Solution``, or for every row the exception
    that each row's solve raises alone: only the shared channel can fail."""
    try:
        return _equal_power_rows(rows, chan)
    except Exception as exc:
        return [exc] * len(rows)


def _equal_power_rows(rows: list[SystemParams], chan: ChannelRealization) -> list:
    """The equal-power solutions of rows that differ only in their floors."""
    for params in rows:
        _validate_instance(params, chan)
    params = rows[0]
    total_time, n = params.total_time, params.n_subcarriers
    budget_rate = harvest_rate(params, chan)
    met = [False] * len(rows)
    if budget_rate > 0.0:
        pair = links(chan, params.delta_f)
        floors = np.array([(p.mi_floor, p.rate_floor) for p in rows]).T
        longest = total_time - TIME_TOL * total_time
        total = np.maximum(*_spread_slots(pair, floors, budget_rate, total_time, longest))
        slot = np.minimum(budget_rate * total_time / (total + budget_rate), longest)
        x = total / n
        met = np.isfinite(total)
        with np.errstate(over="ignore"):  # x s past the float range: infinite bits
            for link, floor in zip(pair, floors):
                bits = link.scale / LN2 * slot * np.add.reduce(np.log1p(x[:, None] * link.snr), 1)
                met &= bits >= floor - DUAL_TOL * np.maximum(1.0, floor)
    solutions = []
    for i, p in enumerate(rows):
        if p.mi_floor == 0.0 and p.rate_floor == 0.0:
            solutions.append(Solution.empty(SolveStatus.ZERO_DEMAND, p))
        elif not met[i]:
            solutions.append(Solution.empty(SolveStatus.INFEASIBLE, p))
        else:
            tau2 = float(slot[i])
            gamma = np.full(n, tau2 * float(x[i]))
            solutions.append(_mrt_solution(p, chan, tau2, gamma, float(np.sum(gamma))))
    return solutions


def _concave_max(f: Callable, total_time: float) -> float:
    """Largest value of a concave function of ``tau2`` on (0, T), from below.

    ``f(t)`` returns the value and its slope.  A value of ``-inf`` marks a
    ``t`` outside the function's domain, an interval, and then the sign of
    the slope says on which side of ``t`` the domain lies.  The slope
    decreases, so the maximum sits where it changes sign: a bracket on that
    point shrinks by regula-falsi steps on the slope, halving the kept end's
    slope when the same end moves twice (Illinois), and by bisection while
    an end's slope is unknown.  By concavity ``f(t*) <= f(t) + |f'(t)| (hi -
    lo)``, so the search stops when that bound falls to 1e-9 bits, or when
    the bracket is narrower than ``TIME_TOL * T``, and returns the best
    value it evaluated (``-inf`` if none was in the domain).  A bracket
    that closes on an edge of the domain returns the value ``TIME_TOL * T``
    inside that edge instead.  ``MAX_ITER`` caps the evaluations.
    """
    xtol = TIME_TOL * total_time
    lo, hi = 0.0, total_time
    d_lo, d_hi = math.inf, -math.inf  # end slopes; infinite where unknown
    moved = 0  # +1 if lo moved last, -1 if hi did
    best = -math.inf
    for _ in range(MAX_ITER):
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
    (:meth:`wpirc.solver.Link.pour`) wherever that profile meets the other
    floor.  Elsewhere the other floor binds, and ``V`` is the root ``r`` of
    ``D(r) = B (T - tau2)``, with ``D`` the least energy of
    :func:`wpirc.solver.inner_allocation` at floors ``(r, other)``.  ``D``
    is convex and increasing with slope ``lambda`` (the target's
    multiplier), so Newton steps from the water-filling bits, an upper
    bound, fall to the root; implicit differentiation gives ``V' = -(B +
    dD/dtau2) / lambda``.  For ``eq`` the budget binds, every subcarrier
    gets ``B (T - tau2) / N_c`` (:meth:`wpirc.solver.Link.spread`), and
    ``V`` is that profile's target wherever it meets the other floor.  Where
    even the whole budget misses the other floor, ``V = -inf`` and the slope
    of that floor's own curve points to its interval.  Where the other
    floor is out of reach, every ``V(tau2)`` is ``-inf``, the search
    returns ``-inf`` and the frontier is 0.

    The result is a lower bound within 1e-9 bits of the frontier (to the
    inner allocation's tolerance where the other floor binds), unless the
    search ends on the ``TIME_TOL * T`` bracket width: at a maximum on the
    edge of the other floor's interval it is the value ``TIME_TOL * T``
    inside, where ``solve`` and ``eq_solve`` still find a feasible split.
    """
    _validate_instance(params, chan)
    if target not in ("mi", "rate"):
        raise ValueError("target must be 'mi' or 'rate'")
    if scheme not in ("op", "eq"):
        raise ValueError("scheme must be 'op' or 'eq'")
    mi_target = target == "mi"
    radar, comm = links(chan, params.delta_f)
    link_t, link_o = (radar, comm) if mi_target else (comm, radar)
    other = params.rate_floor if mi_target else params.mi_floor
    budget = harvest_rate(params, chan)
    if budget == 0.0 or not link_t.snr.any() or (other > 0.0 and not link_o.snr.any()):
        return 0.0
    total_time = params.total_time
    allocate = Link.pour if scheme == "op" else Link.spread

    def reach(link: Link, t2: float) -> tuple:
        """The link's bits ``scale t2 G(X)`` with the whole budget at ``t2``,
        poured or spread, their slope and the powers: an array where
        poured, the common power where spread.  The total power ``X = B (T -
        t2) / t2`` has ``dX/dt2 = -(X + B) / t2``."""
        total = budget * (total_time - t2) / t2
        g, grad, x = allocate(link, total)
        return link.scale * t2 * g, link.scale * (g - (total + budget) * grad), x

    def value(t2: float) -> tuple[float, float]:
        bits, slope, x = reach(link_t, t2)
        if link_o.bits(x, t2) >= other:
            return bits, slope
        most, toward, _ = reach(link_o, t2)
        if scheme == "op" and most >= other:
            binding = binding_frontier(t2, bits, budget * (total_time - t2))
            if binding is not None:
                return binding
        return -math.inf, toward

    def binding_frontier(t2: float, r: float, energy: float) -> Optional[tuple[float, float]]:
        """Newton on ``D(r) = energy`` from the upper bound ``r``.  Where the
        target's multiplier vanishes the other floor alone meets ``r``: within
        the budget that is the domain's edge, where the other floor alone
        takes the whole budget, ``V`` is the target it reaches and its slope
        is infinite; over the budget it is None."""
        start = None
        for _ in range(MAX_ITER):
            trial = replace(params, **{f"{target}_floor": r})
            res = inner_allocation(t2, chan, trial, start=start)
            start = res.duals
            lam = start.lambda_r if mi_target else start.lambda_c
            spent = float(np.add.reduce(res.gamma))
            if lam == 0.0:
                if spent > energy:
                    return None
                reached = res.mi if mi_target else res.rate
                return reached, math.copysign(math.inf, -(budget + res.slope))
            step = (spent - energy) / lam
            r -= step
            if step <= 1e-9 * max(1.0, r):
                return r, -(budget + res.slope) / lam
        raise SolverError("frontier with both floors binding did not converge")

    return float(max(_concave_max(value, total_time), 0.0))
