"""Equal-power benchmark scheme and feasibility-frontier probe."""
from __future__ import annotations

import math
import sys
from dataclasses import replace

import numpy as np

from .model import LN2, ChannelRealization, Solution, SolveStatus, SystemParams
# bound here so that the layer trace (bench/layertrace.py) can count the
# rate evaluations this module makes; the Newton level makes none
from .model import comm_rate, radar_mi  # noqa: F401
from .solver import (
    DEFAULT_OPTIONS,
    SolverError,
    SolverOptions,
    solve,
    solve_with_allocation,
)

__all__ = ["eq_solve", "feasibility_frontier"]

_LOG_MAX = math.log(sys.float_info.max)


def _common_gamma(
    snr: np.ndarray, floor: float, tau2, delta_f: float, half: bool, max_iter: int
) -> tuple:
    """Smallest common per-subcarrier energy meeting one rate floor, and its
    slope in ``tau2``.

    The common level ``x = gamma / tau2`` solves ``F(u) = sum log1p(e^u s)
    = target`` in ``u = log x``, with ``target = floor ln 2 / (delta_f
    tau2)``, doubled for the sensing MI and its 1/2 prefactor.  ``F`` is
    convex and increasing.  Over ``s > 0``, ``sum log(e^u s) <= F(u)`` makes
    ``u0 = (target - sum log s) / N+`` an upper bound on the root, and
    ``log1p(z) >= 2z / (2 + z)`` gives ``F >= 2xS / (2 + x s_max)`` with
    ``S = sum s``, so ``x = 2 target / (2S - target s_max)`` is one too
    where it is positive; the iteration starts at the smaller.  Newton
    steps from there fall monotonically and every iterate meets the floor.
    As ``F'' <= F'``, a step of size ``d`` leaves an error under ``d^2 / 2``,
    so the iteration ends after a step under 1e-8, the rounding-level step
    up from a gap just below zero included; ``max_iter`` caps the steps.
    A start at which ``e^u`` or ``e^u s`` overflows means that no finite
    energy meets the floor: the level is then ``inf``.  Implicit
    differentiation of ``F(u) = target`` gives the slope ``x (1 - target /
    F'(u))``, with ``F'`` taken at the returned level.

    ``tau2`` may be an array: every element runs the same iteration at once
    and stops on its own rule, and both results take its shape.
    """
    t2 = np.asarray(tau2, dtype=float)
    if floor <= 0.0:
        return np.zeros_like(t2)[()], np.zeros_like(t2)[()]
    s = snr[snr > 0]
    if s.size == 0:
        raise SolverError("rate floor demanded over an all-zero SNR vector")
    flat = t2.reshape(-1)
    target = (2.0 if half else 1.0) * floor * LN2 / delta_f / flat
    s_max = float(np.maximum.reduce(s))
    u0 = (target - float(np.add.reduce(np.log(s)))) / s.size
    # 1 / x of the second bound where it holds (inv > 0); elsewhere u0 stands
    inv = float(np.add.reduce(s)) / target - 0.5 * s_max
    u = np.minimum(u0, -np.log(inv, out=-u0, where=inv > 0.0))
    finite = u < _LOG_MAX - max(math.log(s_max), 0.0)
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
    x = np.exp(u)
    # a level near the float limit can have a slope past it: that reads -inf
    with np.errstate(over="ignore"):
        gamma = np.where(finite, flat * x, math.inf)
        slope = np.where(finite, x * (1.0 - target / grad), -math.inf)
    return gamma.reshape(t2.shape)[()], slope.reshape(t2.shape)[()]


def _equal_power_allocation(
    tau2: float, chan: ChannelRealization, params: SystemParams, options: SolverOptions
) -> tuple[np.ndarray, float]:
    """Equal-power profile at ``tau2`` and the slope of its total.

    The common energy is the larger of the two floors' levels; where they
    tie, either floor's slope is a subgradient of the total.
    """
    df, cap = params.delta_f, options.max_bisect
    gamma, slope = max(
        _common_gamma(chan.radar_snr, params.mi_floor, tau2, df, True, cap),
        _common_gamma(chan.comm_snr, params.rate_floor, tau2, df, False, cap),
    )
    n = params.n_subcarriers
    return np.full(n, gamma), n * float(slope)


def eq_solve(
    params: SystemParams,
    chan: ChannelRealization,
    options: SolverOptions = DEFAULT_OPTIONS,
) -> Solution:
    """Solve the restriction with equal energy on every subcarrier.

    Only the power profile is restricted; the time split and the
    beamformer are optimized exactly as in :func:`wpirc.solver.solve`,
    with the Newton levels of :func:`_common_gamma` as the allocator.
    """

    def allocator(tau2: float) -> tuple[np.ndarray, float]:
        return _equal_power_allocation(tau2, chan, params, options)

    return solve_with_allocation(params, chan, allocator, options)


def feasibility_frontier(
    params: SystemParams,
    chan: ChannelRealization,
    target: str,
    scheme: str = "op",
    tol_bits: float = 0.1,
    options: SolverOptions = DEFAULT_OPTIONS,
) -> float:
    """Largest rate/MI floor (bits) that keeps the instance feasible.

    ``target`` selects which floor is swept ("mi" or "rate"); the other
    floor is left at its configured value.  Found by doubling then
    bisecting on the solver's feasibility status.
    """
    if target not in ("mi", "rate"):
        raise ValueError("target must be 'mi' or 'rate'")
    if scheme not in ("op", "eq"):
        raise ValueError("scheme must be 'op' or 'eq'")
    solve_fn = solve if scheme == "op" else eq_solve
    floor_field = "mi_floor" if target == "mi" else "rate_floor"

    def feasible(r: float) -> bool:
        trial = replace(params, **{floor_field: r})
        return solve_fn(trial, chan, options).status is not SolveStatus.INFEASIBLE

    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(options.max_bisect):
        if not feasible(hi):
            break
        lo, hi = hi, hi * 2.0
    else:
        raise SolverError("feasibility frontier exceeds the search cap")
    while hi - lo > tol_bits:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
