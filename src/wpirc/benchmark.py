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
from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from .model import ChannelRealization, Solution, SystemParams, harvest_rate
# bound here so that the layer trace (bench/layertrace.py) can count the
# rate evaluations and solves this module makes; it makes none
from .model import comm_rate, radar_mi  # noqa: F401
from .solver import solve  # noqa: F401
from .solver import (
    MAX_ITER,
    TIME_TOL,
    Link,
    SolverError,
    _outer_steps,
    _run_batch,
    inner_allocation,
    links,
    solve_with_allocation,
)

__all__ = ["eq_solve", "feasibility_frontier"]

def _equal_power_kernel(chan: ChannelRealization, delta_f: float) -> Callable:
    """The equal-power scheme's answers to time-split probes on one channel:
    for a list of ``(params, tau2, start)`` probes, one
    :meth:`wpirc.solver.Link.level` call per link at each probe's floors,
    split into one ``(gamma, slope, None)`` answer per probe, the profile at
    ``tau2`` and the slope of its total.

    The common energy is the larger of the two floors' levels; where they
    tie, either floor's slope is a subgradient of the total.
    """
    n = chan.n_subcarriers
    radar, comm = links(chan, delta_f)

    def kernel(probes: list) -> list:
        tau2, mi_floor, rate_floor = np.array(
            [(t2, p.mi_floor, p.rate_floor) for p, t2, _ in probes]
        ).T
        radar_levels = zip(*radar.level(mi_floor, tau2))
        levels = map(max, radar_levels, zip(*comm.level(rate_floor, tau2)))
        return [(np.full(n, gamma), n * float(slope), None) for gamma, slope in levels]

    return kernel


def eq_solve(
    params: SystemParams,
    chan: ChannelRealization,
) -> Solution:
    """Solve the restriction with equal energy on every subcarrier.

    Only the power profile is restricted; the time split and the
    beamformer are optimized exactly as in :func:`wpirc.solver.solve`,
    with the Newton levels of :meth:`wpirc.solver.Link.level` as the
    allocator.
    """
    kernel = _equal_power_kernel(chan, params.delta_f)
    return solve_with_allocation(params, chan, lambda t2, start: kernel([(params, t2, start)])[0])


def _eq_solve_batch(rows: list[SystemParams], chan: ChannelRealization) -> list:
    """:func:`eq_solve` for rows that differ only in their floors, on one
    channel, in lockstep (:func:`wpirc.solver._run_batch`): one stacked
    kernel call per round serves every row's time-split probe.  Returns
    each row's ``Solution`` or the exception its solve raised, equal to
    what :func:`eq_solve` returns or raises for that row alone."""
    searches = [_outer_steps(params, chan) for params in rows]
    return _run_batch(searches, _equal_power_kernel(chan, rows[0].delta_f))


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
        poured or spread, their slope and the powers; the total power ``X =
        B (T - t2) / t2`` has ``dX/dt2 = -(X + B) / t2``."""
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
        """Newton on ``D(r) = energy`` from the upper bound ``r``; None where
        the target's multiplier vanishes, on the domain's edge: there the
        other floor alone takes the whole budget."""
        start = None
        for _ in range(MAX_ITER):
            trial = replace(params, **{f"{target}_floor": r})
            res = inner_allocation(t2, chan, trial, start=start)
            start = res.duals
            lam = start.lambda_r if mi_target else start.lambda_c
            if lam == 0.0:
                return None
            step = (float(np.add.reduce(res.gamma)) - energy) / lam
            r -= step
            if step <= 1e-9 * max(1.0, r):
                return r, -(budget + res.slope) / lam
        raise SolverError("frontier with both floors binding did not converge")

    return float(max(_concave_max(value, total_time), 0.0))
