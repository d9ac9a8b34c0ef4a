"""Minimum-energy solver: water-filling inner allocation, analytic
maximum-ratio beamforming, and an outer Newton search on the time split.

The problem is reduced in two stages.  For a fixed transmit slot ``tau2``
the cheapest per-subcarrier energy profile ``gamma`` is found by solving
the two-constraint water-filling problem in its Lagrangian dual (one
multiplier per rate floor).  The beamforming block then collapses to the
maximum-ratio direction, leaving a scalar convex feasibility function of
``tau2`` whose largest root gives the optimal time split; the duals of the
inner allocation give its slope.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Generator, Optional

import numpy as np

from .model import (
    LN2,
    ChannelRealization,
    Solution,
    SolveStatus,
    SystemParams,
    comm_rate,
    harvest_rate,
    radar_mi,
)

__all__ = [
    "DualPair",
    "InnerResult",
    "SolverError",
    "subcarrier_gamma",
    "inner_allocation",
    "inner_dual_value",
    "mrt_covariance",
    "solve",
    "solve_with_allocation",
]


class SolverError(RuntimeError):
    """Raised when an iterative stage fails to converge."""


@dataclass(frozen=True)
class DualPair:
    """Multipliers of the sensing and data-rate floors."""

    lambda_r: float
    lambda_c: float

    def __post_init__(self) -> None:
        if self.lambda_r < 0 or self.lambda_c < 0:
            raise ValueError("multipliers must be nonnegative")


@dataclass
class InnerResult:
    gamma: np.ndarray
    duals: DualPair
    stationarity_residual: float
    active: str  # "none" | "mi" | "rate" | "both"
    slope: float  # d sum(gamma) / d tau2


MAX_ITER = 200  # iteration cap of every search
DUAL_TOL = 1e-10  # absolute, on normalized constraint residuals
TIME_TOL = 1e-9  # relative to total_time


def _gamma_profile(lambda_r, lambda_c, v, w, tau2, delta_f) -> np.ndarray:
    """Stationary per-subcarrier energies for fixed multipliers.

    Solves ``1 = A/(1 + x v) + B/(1 + x w)`` for ``x = gamma / tau2`` on
    each subcarrier, with ``A = lambda_r delta_f v / (2 ln 2)`` and
    ``B = lambda_c delta_f w / ln 2``; the positive root exists exactly
    when ``A + B > 1`` and is otherwise clamped to zero.  The multipliers
    and ``tau2`` may be scalars or ``(k, 1)`` columns, one row of profiles
    each; every subcarrier is computed alone, so a row does not depend on
    the others.
    """
    A = lambda_r * delta_f * v / (2.0 * LN2)
    B = lambda_c * delta_f * w / LN2
    c = 1.0 - A - B
    active = c < 0.0
    both = active & (v > 0) & (w > 0)
    # one gain zero: its term vanishes, and 1 = A/(1 + x v) or B/(1 + x w)
    single = active & ~both & (v + w > 0)

    a = v * w
    b = v + w - A * w - B * v
    # sqrt(b^2 - 4ac) > |b| where both floors act, no overflow
    root = np.hypot(b, 2.0 * np.sqrt(np.maximum(-a * c, 0.0)))
    # larger quadratic root, in the form without cancellation for the sign
    # of b (b + root cancels when b < 0, at high water levels)
    up = b >= 0.0
    x = np.zeros(c.shape)
    np.divide(-2.0 * c, b + root, out=x, where=both & up)
    np.divide(root - b, 2.0 * a, out=x, where=both & ~up)
    np.divide(-c, v + w, out=x, where=single)
    return tau2 * np.maximum(x, 0.0)


def subcarrier_gamma(
    duals: DualPair, v: float, w: float, tau2: float, delta_f: float
) -> float:
    """Water-filling energy of a single subcarrier with gains ``v``, ``w``."""
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    if v < 0 or w < 0:
        raise ValueError("gains must be nonnegative")
    out = _gamma_profile(
        duals.lambda_r, duals.lambda_c, np.array([v]), np.array([w]), tau2, delta_f
    )
    return float(out[0])


_LOG_MAX = math.log(sys.float_info.max)
_TINY = sys.float_info.min  # smallest normal float


class Link:
    """One link's floor and the allocations that meet or maximize it.

    A floor is ``bits = scale tau2 sum log2(1 + x_m s_m)`` over the link's
    SNRs ``s`` and the powers ``x = gamma / tau2``, a perspective of a
    concave function, with ``scale = delta_f / 2`` for the sensing MI and
    ``delta_f`` for the data rate (:func:`links`).  The tables are built on
    first use and kept: one sorted table for :meth:`fill` and :meth:`pour`,
    and the unsorted sums of :meth:`level`, so a level never sorts.
    """

    def __init__(self, snr: np.ndarray, scale: float) -> None:
        self.snr = snr
        self.scale = scale

    @cached_property
    def _sorted(self) -> tuple:
        """Tables of :meth:`fill` and :meth:`pour`: with the positive SNRs
        ``s_k`` in decreasing order, the sums ``L_k`` of their first ``k``
        log2, ``theta_k = L_k - k log2 s_k``, the sums ``C_k`` of the first
        ``k`` inverses and ``k / s_k - C_k``; and ``1 / s`` in the link's
        order (inf at 0)."""
        pos = self.snr > 0
        s = np.sort(self.snr[pos])[::-1]
        log_s = np.log2(s)
        log_sum = np.cumsum(log_s)
        k = np.arange(1, s.size + 1)
        inv_sum = np.cumsum(1.0 / s)
        inv = np.divide(1.0, self.snr, out=np.full_like(self.snr, np.inf), where=pos)
        return log_sum, log_sum - k * log_s, inv_sum, k / s - inv_sum, inv

    @cached_property
    def _level_sums(self) -> tuple:
        """The positive SNRs in their own order, their sum, largest value
        and sum of logs, and the ``u`` past which ``e^u s`` overflows."""
        s = self.snr[self.snr > 0]
        s_max = float(np.maximum.reduce(s, initial=0.0))
        log_sum = float(np.add.reduce(np.log(s)))
        return s, float(np.add.reduce(s)), s_max, log_sum, _LOG_MAX - math.log(max(s_max, 1.0))

    def bits(self, x, tau2: float) -> float:
        """The floor's bits at the powers ``x`` (an array or one common value)."""
        # log1p keeps the floor accurate when x s is far below 1
        return self.scale / LN2 * tau2 * float(np.add.reduce(np.log1p(x * self.snr)))

    def fill(self, floor: float, tau2: float) -> tuple[np.ndarray, float]:
        """Least powers that meet ``floor`` at ``tau2``, and its multiplier.

        Exact single-floor water-filling: ``x = max(0, a - 1/s)`` with the
        water level ``a`` at which ``sum over active of log2(a s_m)`` equals
        the target ``t = floor / (scale tau2)``, active set ``{m : a s_m >
        1}``.  The ``k`` strongest subcarriers are active at ``a = 2**((t -
        L_k) / k)``, which puts the k-th above water and the (k+1)-th not
        exactly when ``theta_k <= t < theta_(k+1)``, a nondecreasing sequence
        from ``theta_1 = 0``.  The floor's multiplier is ``a ln 2 / scale``.
        A level past ``2**1000``, or none (no positive SNR, ``k = 0``), is
        unreachable: the multiplier and every power read ``inf``.
        """
        log_sum, theta, _, _, inv = self._sorted
        target = floor / (self.scale * tau2)
        # below theta_1 = 0 no level is consistent: all subcarriers count as active
        k = int(np.searchsorted(theta, target, side="right")) or log_sum.size
        if not k or (exponent := (target - float(log_sum[k - 1])) / k) > 1000.0:
            return np.full_like(self.snr, math.inf), math.inf
        level = 2.0**exponent
        return np.maximum(level - inv, 0.0), level * LN2 / self.scale

    def level(self, floor, tau2) -> tuple:
        """Smallest common per-subcarrier energy meeting ``floor``, and its
        slope in ``tau2``.

        The common power ``x = gamma / tau2`` solves ``F(u) = sum log1p(e^u
        s) = target`` in ``u = log x``, with ``target = floor ln 2 / (scale
        tau2)``.  ``F`` is convex and increasing.  Over ``s > 0``, ``sum
        log(e^u s) <= F(u)`` makes ``u0 = (target - sum log s) / N+`` an
        upper bound on the root, and ``log1p(z) >= 2z / (2 + z)`` gives ``F
        >= 2xS / (2 + x s_max)`` with ``S = sum s``, so ``x = 2 target / (2S
        - target s_max)`` is one too where it is positive; the iteration
        starts at the smaller.  Newton steps from there fall monotonically
        and every iterate meets the floor.  As ``F'' <= F'``, a step of size
        ``d`` leaves an error under ``d^2 / 2``, so the iteration ends after
        a step under 1e-8, the rounding-level step up from a gap just below
        zero included; ``MAX_ITER`` caps the steps.  A start at which ``e^u``
        or ``e^u s`` overflows means that no finite energy meets the floor:
        the level is then ``inf``, with slope ``-inf``, as it is for a
        positive target on a link with no positive SNR.  A target below
        ``S`` times the smallest normal float, a zero floor's included, has a
        level below the float range: it reads 0, with slope 0.  Implicit
        differentiation of ``F(u) = target`` gives the slope ``x (1 - target
        / F'(u))``, with ``F'`` taken at the returned level.

        ``floor`` and ``tau2`` may be arrays: every element of their
        broadcast runs the same iteration at once and stops on its own rule,
        and both results take its shape.
        """
        s, total, s_max, log_sum, u_max = self._level_sums
        target = floor * LN2 / self.scale / np.asarray(tau2, dtype=float)
        shape = np.shape(target)
        if not s.size:
            unreachable = target > 0.0
            gamma = np.where(unreachable, math.inf, 0.0)
            return gamma[()], np.where(unreachable, -math.inf, 0.0)[()]
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
        for _ in range(MAX_ITER):
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

    def pour(self, total: float) -> tuple[float, float, np.ndarray]:
        """Water-filling of the total power ``total > 0``: ``(G, dG/dtotal,
        x)`` with ``G = sum log2(1 + x s)``; the link needs a positive SNR.

        The powers are ``x = max(0, a - 1/s)`` with ``sum x = total``.  The
        ``k`` strongest subcarriers are above water when ``total`` exceeds
        ``k / s_k - C_k``, and then ``a = (total + C_k) / k``, ``G = k log2 a
        + L_k`` and ``dG/dtotal = 1 / (a ln 2)``.
        """
        log_sum, _, inv_sum, theta, inv = self._sorted
        k = int(np.searchsorted(theta, total))  # theta[0] = 0 < total
        a = (total + inv_sum[k - 1]) / k
        return k * math.log2(a) + log_sum[k - 1], 1.0 / (a * LN2), np.maximum(a - inv, 0.0)

    def spread(self, total: float) -> tuple[float, float, float]:
        """The even split of the total power ``total``: ``(G, dG/dtotal,
        x)`` with the power ``x = total / N_c`` on every subcarrier and ``G
        = sum log2(1 + x s)``."""
        n = self.snr.size
        x = total / n
        y = x * self.snr
        grad = float(np.add.reduce(self.snr / (1.0 + y))) / (n * LN2)
        return float(np.add.reduce(np.log1p(y))) / LN2, grad, x


def links(chan: ChannelRealization, delta_f: float) -> tuple[Link, Link]:
    """The sensing and data links of a channel."""
    return Link(chan.radar_snr, 0.5 * delta_f), Link(chan.comm_snr, delta_f)


def inner_allocation(
    tau2: float,
    chan: ChannelRealization,
    params: SystemParams,
    start: Optional[DualPair] = None,
) -> InnerResult:
    """Minimize total transmit-phase energy subject to both rate floors.

    Returns the optimal ``gamma`` together with the dual pair that
    regenerates it through :func:`subcarrier_gamma`, and the slope of the
    least energy in ``tau2`` (:func:`_inner_result`).  The two
    single-constraint cases are solved in closed form first; only when
    both floors bind does the safeguarded Newton search of
    :func:`_both_floor_multipliers` run, starting from ``start`` (for
    example the duals of a nearby ``tau2``) when it is given.
    """
    steps = _inner_steps(tau2, links(chan, params.delta_f), params, start)
    return _run(steps, _jacobian_kernel(chan, params.delta_f))


def _inner_steps(
    tau2: float,
    pair: tuple[Link, Link],
    params: SystemParams,
    start: Optional[DualPair],
) -> Generator[tuple, tuple, InnerResult]:
    """:func:`inner_allocation` as a search that yields its profile
    evaluations (:func:`_jacobian_kernel`), on the channel's sensing and
    data links (:func:`links`)."""
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    radar, comm = pair
    r_r, r_c = params.mi_floor, params.rate_floor

    if r_r == 0.0 and r_c == 0.0:
        return _inner_result(np.zeros_like(radar.snr), 0.0, 0.0, 0.0, 0.0, tau2, params, "none")

    tol_r = DUAL_TOL * max(1.0, r_r)
    tol_c = DUAL_TOL * max(1.0, r_c)

    # an infinite multiplier means no finite profile meets that floor: its
    # all-inf profile gets infinite bits on both links (inf * 0 SNR is NaN)
    lam_r1 = lam_c1 = 0.0
    if r_r > 0.0:
        x, lam_r1 = radar.fill(r_r, tau2)
        rate = comm.bits(x, tau2) if lam_r1 < math.inf else math.inf
        if rate >= r_c - tol_c:
            mi = radar.bits(x, tau2) if lam_r1 < math.inf else math.inf
            return _inner_result(tau2 * x, lam_r1, 0.0, mi, rate, tau2, params, "mi")
    if r_c > 0.0:
        x, lam_c1 = comm.fill(r_c, tau2)
        mi = radar.bits(x, tau2) if lam_c1 < math.inf else math.inf
        if mi >= r_r - tol_r:
            rate = comm.bits(x, tau2) if lam_c1 < math.inf else math.inf
            return _inner_result(tau2 * x, 0.0, lam_c1, mi, rate, tau2, params, "rate")

    lam_r, lam_c, gamma, mi, rate = yield from _both_floor_multipliers(
        tau2, r_r, r_c, lam_r1, lam_c1, start
    )
    result = _inner_result(gamma, lam_r, lam_c, mi, rate, tau2, params, "both")
    if (res := result.stationarity_residual) > 1e3 * DUAL_TOL:
        raise SolverError(f"inner allocation did not converge (residual {res:.3e})")
    return result


def _inner_result(gamma, lam_r, lam_c, mi, rate, tau2, params, active) -> InnerResult:
    """The inner allocation's result from its profile, multipliers, MI and
    rate, with the KKT residual and the slope of the least energy in ``tau2``.

    The least energy ``D(r_r, r_c, tau2)`` is positively homogeneous of
    degree 1, since both floors are perspectives, and ``dD/dr`` is each
    floor's multiplier, so by Euler's theorem ``dD/dtau2 = (D - lambda_r
    r_r - lambda_c r_c) / tau2``.  With the MI and rate the profile reaches
    in place of the floors, this equals the envelope theorem's slope
    wherever the profile is stationary.  An unreachable floor (infinite
    residual, infinite demand) has slope ``-inf``.
    """
    duals = DualPair(lam_r, lam_c)
    res = _kkt_residual(duals, mi, rate, params.mi_floor, params.rate_floor)
    if math.isinf(res):
        return InnerResult(gamma, duals, res, active, -math.inf)
    slope = (float(np.add.reduce(gamma)) - lam_r * mi - lam_c * rate) / tau2
    return InnerResult(gamma, duals, res, active, slope)


def _floor_jacobian(lambda_r, lambda_c, v, w, tau2, delta_f) -> tuple:
    """Profiles, sensing MI, data rate, and the slopes of (MI, rate) in the
    multipliers, for ``(k, 1)`` columns of multipliers and ``tau2``.

    Implicit differentiation of ``p + q = 1`` with ``p = A/(1 + x v)`` and
    ``q = B/(1 + x w)`` gives ``dx/dlambda_r = p / (lambda_r D)`` and
    ``dx/dlambda_c = q / (lambda_c D)`` on each active subcarrier, with
    ``D = p v/(1 + x v) + q w/(1 + x w)``.  The returned slopes ``J_rr =
    dMI/dlambda_r``, ``J_rc = dMI/dlambda_c = drate/dlambda_r`` and ``J_cc
    = drate/dlambda_c`` form the negative Hessian of
    :func:`inner_dual_value`, which is positive semidefinite.  Every result
    but the ``(k, N_c)`` profiles is a ``(k, 1)`` column.
    """
    gamma = _gamma_profile(lambda_r, lambda_c, v, w, tau2, delta_f)
    x = gamma / tau2
    xv, xw = x * v, x * w
    ev, ew = 1.0 + xv, 1.0 + xw
    p_per = delta_f * v / (2.0 * LN2 * ev)  # p / lambda_r
    q_per = delta_f * w / (LN2 * ew)  # q / lambda_c
    d = lambda_r * p_per * v / ev + lambda_c * q_per * w / ew
    # the slopes sum over the active subcarriers only
    inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=x > 0.0)

    def total(terms):
        return np.add.reduce(terms, axis=-1, keepdims=True)

    # log1p keeps the floors accurate when x v or x w is far below 1
    mi = 0.5 * delta_f * tau2 * total(np.log1p(xv)) / LN2
    rate = delta_f * tau2 * total(np.log1p(xw)) / LN2
    j_rr = tau2 * total(p_per * p_per * inv_d)
    j_rc = tau2 * total(p_per * q_per * inv_d)
    j_cc = tau2 * total(q_per * q_per * inv_d)
    return gamma, mi, rate, j_rr, j_rc, j_cc


def _jacobian_kernel(chan: ChannelRealization, delta_f: float) -> Callable[[list], list]:
    """The optimal scheme's profile kernel on one channel: for a list of
    ``(lambda_r, lambda_c, tau2)`` requests, one stacked
    :func:`_floor_jacobian` call, split into one ``(gamma, mi, rate, j_rr,
    j_rc, j_cc)`` answer per request."""
    v, w = chan.radar_snr, chan.comm_snr

    def kernel(requests: list) -> list:
        lambda_r, lambda_c, tau2 = np.array(requests).T[..., None]
        gamma, *floors = _floor_jacobian(lambda_r, lambda_c, v, w, tau2, delta_f)
        return list(zip(gamma, *(f.ravel().tolist() for f in floors)))

    return kernel


def _log_mid(lo: float, hi: float, top: float) -> float:
    """Bisection point of ``(lo, hi)`` in log scale.  With ``lo = 0`` each
    call squares ``hi / top``, so a root many decades below the initial
    bound ``top`` is bracketed in a few steps."""
    return math.sqrt(lo * hi) if lo > 0.0 else hi * min(0.5, hi / top)


def _log_step(lam: float, step: float) -> float:
    """``lam + step`` taken in ``log(lam)``: positive, and exact where the
    floors grow like ``log(lam)`` (high SNR)."""
    ratio = step / lam
    return lam * math.exp(ratio) if ratio < 700.0 else math.inf


def _both_floor_multipliers(
    tau2: float,
    r_r: float,
    r_c: float,
    lam_r1: float,
    lam_c1: float,
    start: Optional[DualPair],
) -> Generator[tuple, tuple, tuple]:
    """Multipliers at which both floors hold with equality, with the
    profile, MI and rate there.

    A Newton search on ``(MI, rate) = (r_r, r_c)`` in log-multipliers,
    safeguarded by brackets.  The root lies in ``(0, lam_r1) x (0,
    lam_c1)``, the single-floor multipliers: adding the other multiplier
    only raises every water level.  Let ``c(lambda_r)`` be the data
    multiplier that meets the rate floor for a given ``lambda_r``; it
    decreases in ``lambda_r``, and ``MI(lambda_r, c(lambda_r))`` increases.
    So a point where MI falls short while the rate floor holds (or the
    reverse) bounds ``lambda_r`` from below (above), and any point bounds
    ``c`` at its own ``lambda_r``.

    From a bracketing point, and from any point while the Newton steps keep
    lowering the normalized residual, the full 2-D step is taken with
    ``lambda_r`` confined to its bracket (log-scale bisection when the step
    leaves it) and ``lambda_c`` moved to the linearized data floor.
    Otherwise ``lambda_c`` alone steps towards ``c(lambda_r)`` within its
    bracket, which reaches a bracketing point.  The search stops when both
    Newton corrections are below 1e-13 relative, or one step after each
    floor is met to ``DUAL_TOL * max(1, floor)`` or has its multiplier
    settled to that precision.  ``MAX_ITER`` caps the iterations, one
    profile evaluation each, yielded as a ``(lambda_r, lambda_c, tau2)``
    request to :func:`_jacobian_kernel`.
    """
    nan = math.nan
    top_r, top_c = 2.0 * lam_r1, 2.0 * lam_c1  # the bounds, widened for rounding
    lo_r, hi_r = 0.0, top_r
    lo_c, hi_c = 0.0, top_c  # bracket of c(lam_r) at the current lam_r
    lam_r, lam_c = lam_r1, lam_c1
    if start is not None:
        if 0.0 < start.lambda_r < lam_r1:
            lam_r = start.lambda_r
        if 0.0 < start.lambda_c < lam_c1:
            lam_c = start.lambda_c
    tol_r = DUAL_TOL * max(1.0, r_r)  # as in _kkt_residual
    tol_c = DUAL_TOL * max(1.0, r_c)
    newton_res = math.inf  # residual where the last 2-D step started
    polished = False
    for _ in range(MAX_ITER):
        gamma, mi, rate, j_rr, j_rc, j_cc = yield lam_r, lam_c, tau2
        e_r, e_c = mi - r_r, rate - r_c
        det = j_rr * j_cc - j_rc * j_rc
        d_r = (j_rc * e_c - j_cc * e_r) / det if det > 0.0 else nan
        d_c = (j_rc * e_r - j_rr * e_c) / det if det > 0.0 else nan
        # a multiplier is settled when its floor is met to tolerance or
        # its Newton correction is below what a double resolves
        fixed_r, fixed_c = abs(d_r) <= 1e-13 * lam_r, abs(d_c) <= 1e-13 * lam_c
        if (abs(e_r) <= tol_r or fixed_r) and (abs(e_c) <= tol_c or fixed_c):
            if polished or (fixed_r and fixed_c) or not det > 0.0:
                return lam_r, lam_c, gamma, mi, rate
            polished = True  # one more step sharpens the duals quadratically
        res = max(abs(e_r) / tol_r, abs(e_c) / tol_c)

        if e_c > 0.0:
            hi_c = lam_c
        elif e_c < 0.0:
            lo_c = lam_c
        if j_cc > 0.0 and abs(e_c) <= max(tol_c, 1e-13 * lam_c * j_cc):
            # on the data curve (within tolerance, or within what lam_c can
            # resolve, where the sign of e_c is rounding noise): the MI gap
            # of c(lam_r) is e_r corrected to first order for e_c
            short = e_r - j_rc / j_cc * e_c <= 0.0
            over = not short
        else:
            short = e_r <= 0.0 <= e_c
            over = e_c <= 0.0 <= e_r or (e_r >= 0.0 and lam_r > lam_r1)
        if short:
            lo_r = lam_r
        elif over:
            hi_r = lam_r
        elif res >= newton_res:
            new_c = _log_step(lam_c, -e_c / j_cc) if j_cc > 0.0 else nan
            lam_c = new_c if lo_c < new_c < hi_c else _log_mid(lo_c, hi_c, top_c)
            continue
        newton_res = res

        new_r = _log_step(lam_r, d_r) if det > 0.0 else nan
        if not lo_r < new_r < hi_r:
            new_r = _log_mid(lo_r, hi_r, top_r)
        d_r, lam_r = new_r - lam_r, new_r
        # c(lam_r) moves against lam_r: one side of its bracket survives
        if d_r > 0.0:
            lo_c = 0.0
        elif d_r < 0.0:
            hi_c = top_c
        new_c = _log_step(lam_c, -(e_c + j_rc * d_r) / j_cc) if j_cc > 0.0 else nan
        lam_c = new_c if lo_c < new_c < hi_c else _log_mid(lo_c, hi_c, top_c)
    raise SolverError("multiplier search for both rate floors did not converge")


def _kkt_residual(duals: DualPair, mi: float, rate: float, r_r: float, r_c: float) -> float:
    """Normalized primal-feasibility plus complementary-slackness residual."""
    nr = (mi - r_r) / max(1.0, r_r)
    nc = (rate - r_c) / max(1.0, r_c)
    res = max(-nr, -nc, 0.0)
    if duals.lambda_r > 0.0:
        res = max(res, abs(nr))
    if duals.lambda_c > 0.0:
        res = max(res, abs(nc))
    return res


def inner_dual_value(
    duals: DualPair,
    tau2: float,
    chan: ChannelRealization,
    params: SystemParams,
) -> tuple[float, tuple[float, float]]:
    """Dual function of the inner allocation and its gradient.

    The gradient with respect to the two multipliers is the pair of
    constraint gaps ``(mi_floor - MI, rate_floor - rate)`` evaluated at
    the minimizing profile.
    """
    gamma = _gamma_profile(
        duals.lambda_r, duals.lambda_c, chan.radar_snr, chan.comm_snr, tau2, params.delta_f
    )
    mi = radar_mi(gamma, chan.radar_snr, tau2, params.delta_f)
    rate = comm_rate(gamma, chan.comm_snr, tau2, params.delta_f)
    value = (
        float(np.sum(gamma))
        + duals.lambda_r * (params.mi_floor - mi)
        + duals.lambda_c * (params.rate_floor - rate)
    )
    return value, (params.mi_floor - mi, params.rate_floor - rate)


def mrt_covariance(
    h: np.ndarray, total_irc_energy: float, eta: float
) -> tuple[np.ndarray, float]:
    """Minimum-trace covariance delivering a required harvest.

    The rank-one matrix ``S / (eta ||h||^4) * h h^H`` meets the harvest
    demand with equality and minimizes the trace: any feasible covariance
    satisfies ``trace(h h^H Q) <= ||h||^2 trace(Q)``.
    """
    h = np.asarray(h, dtype=complex)
    s = float(total_irc_energy)
    if s < 0:
        raise ValueError("energy demand must be nonnegative")
    nt = h.size
    if s == 0.0:
        return np.zeros((nt, nt), dtype=complex), 0.0
    hn2 = float(np.real(np.vdot(h, h)))
    if hn2 == 0.0 or eta <= 0.0:
        raise ValueError("positive demand with no harvestable channel")
    q = (s / (eta * hn2 * hn2)) * np.outer(h, h.conj())
    q = 0.5 * (q + q.conj().T)
    return q, s / (eta * hn2)


def solve_with_allocation(
    params: SystemParams,
    chan: ChannelRealization,
    allocator: Callable[[float, object], tuple[np.ndarray, float, object]],
) -> Solution:
    """The time-split search :func:`_outer_steps` with one ``allocator``
    call per probe.

    ``allocator(tau2, start)`` returns ``(gamma, slope, start)``: the
    cheapest per-subcarrier energy profile that the scheme allows at that
    transmit-slot length, ``slope = d sum(gamma) / d tau2`` (any
    subgradient where the demand has a kink), and what the next probe
    starts from, for example the duals of the inner allocation.  The first
    probe gets ``start=None``, every later one the ``start`` that the probe
    before returned.  A floor that no finite profile meets is reported as
    infinite demand.
    """
    steps = _outer_steps(params, chan)
    return _run(steps, lambda probes: [allocator(t2, start) for _, t2, start in probes])


def _outer_steps(
    params: SystemParams, chan: ChannelRealization
) -> Generator[tuple, tuple, Solution]:
    """The time-split search of one instance, shared by every scheme and
    entry point: each probe yields ``(params, tau2, start)`` and receives
    ``(gamma, slope, start)``, the scheme's allocation at ``tau2``
    (:func:`solve_with_allocation`), with ``start`` passed on to the next
    probe (``None`` at the first).

    The demand ``sum(gamma)`` is convex in ``tau2``, so the margin ``phi(tau2)
    = sum(gamma) - B (T - tau2)`` is too, with ``B = eta ||h||^2 P``
    (:func:`wpirc.model.harvest_rate`), and the slot is its largest root on
    (0, T).  Newton steps start at ``T``, where the margin is positive.
    Every tangent of a convex function lies below it, so each tangent root
    sits at or right of the largest root and the margin stays positive on
    the iterates until a step crosses it.  A step shorter than ``TIME_TOL *
    T`` is lengthened to that, which crosses a simple root, and the first
    iterate after a step with a nonpositive margin is the slot, its probe
    the profile; there the maximum-ratio covariance meets the harvest
    constraint with equality (:func:`_mrt_solution`).

    The instance is infeasible when the margin is positive on all of (0,
    T].  Each such exit is a certificate, since the tangent at an iterate
    bounds the margin from below left of it: the margin is not finite
    there, or its slope is not positive, or the tangent root is not
    positive.  A near-tangent instance whose steps stall below ``TIME_TOL *
    T`` with a positive margin ends on one of these (or after ``MAX_ITER``
    steps) and counts as infeasible: no feasible interval wider than
    ``TIME_TOL * T`` was passed.
    """
    _validate_instance(params, chan)
    if params.mi_floor == 0.0 and params.rate_floor == 0.0:
        return Solution.empty(SolveStatus.ZERO_DEMAND, params)
    budget_rate = harvest_rate(params, chan)
    if budget_rate == 0.0:
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    total_time = params.total_time
    xtol = TIME_TOL * total_time
    tau2 = total_time
    start = None
    for steps in range(MAX_ITER + 1):
        gamma, slope, start = yield params, tau2, start
        total = float(np.sum(gamma))
        margin = total - budget_rate * (total_time - tau2)
        if steps and margin <= 0.0:
            return _mrt_solution(params, chan.h, tau2, gamma, total)
        slope += budget_rate
        if not (math.isfinite(margin) and slope > 0.0):
            break
        step = max(margin / slope, xtol)
        if step >= tau2:
            break
        tau2 -= step
    return Solution.empty(SolveStatus.INFEASIBLE, params)


def _mrt_solution(params, h, tau2, gamma, total) -> Solution:
    """The optimal point with time split ``tau2 < T`` and profile ``gamma``
    of total ``total``: the maximum-ratio covariance ``c h h^H`` meets the
    harvest with equality, and its beam is ``sqrt(S / (eta ||h||^4 tau1))
    h``, phased as :func:`wpirc.certify.rank_one_extract` phases the
    leading eigenvector, first nonvanishing entry real."""
    hn2 = float(np.real(np.vdot(h, h)))
    tau1 = params.total_time - tau2
    q_bar, trace = mrt_covariance(h, total, params.efficiency)
    lead = h[np.flatnonzero(np.abs(h) > 1e-12 * math.sqrt(hn2))[0]]
    scale = math.sqrt(total / (params.efficiency * hn2 * hn2 * tau1))
    beam = (scale * np.conj(lead) / abs(lead)) * h
    return Solution(
        status=SolveStatus.OPTIMAL,
        beam_vector=beam,
        tau1=tau1,
        tau2=tau2,
        gamma=gamma,
        energy=trace,
        covariance_bar=q_bar,
    )


def _run(steps: Generator, kernel: Callable[[list], list]):
    """Drive one search: answer each request it yields with ``kernel`` (on
    a list of one) until it returns, and return its value."""
    answer = None
    while True:
        try:
            request = steps.send(answer)
        except StopIteration as stop:
            return stop.value
        (answer,) = kernel([request])


def _run_batch(searches: list[Generator], kernel: Callable[[list], list]) -> list:
    """Drive searches in lockstep: each round, every search still running
    gets its answer and yields its next request, and one kernel call
    answers all of them.  Returns each search's value, or the exception it
    raised.  An exception that answers a request is thrown into that
    search (``throw``) alone (:func:`_answers`), so one row's failure
    leaves the others as they would run alone."""
    results: list = [None] * len(searches)
    replies = [(i, None) for i in range(len(searches))]
    while replies:
        asked = []
        for i, answer in replies:
            try:
                if isinstance(answer, Exception):
                    request = searches[i].throw(answer)
                else:
                    request = searches[i].send(answer)
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:
                results[i] = exc
            else:
                asked.append((i, request))
        replies = _answers(asked, kernel) if asked else []
    return results


def _answers(asked: list, kernel: Callable[[list], list]) -> list:
    """``(row, answer)`` for each ``(row, request)``, from one kernel call,
    or from one call per row when the stacked call raises.  An exception is
    the answer of its row alone, whether the kernel returns it for that
    request or raises it on that row's own call."""
    try:
        answers = kernel([request for _, request in asked])
    except Exception as exc:
        if len(asked) == 1:
            return [(asked[0][0], exc)]
        return [reply for pair in asked for reply in _answers([pair], kernel)]
    return [(i, answer) for (i, _), answer in zip(asked, answers)]


def solve(
    params: SystemParams,
    chan: ChannelRealization,
) -> Solution:
    """Jointly optimal time split, subcarrier energies and beamformer.

    Each inner allocation starts its multiplier search from the duals of
    the previous ``tau2`` probe, and gives the slope of the demand for the
    outer Newton step.
    """

    def allocator(t2: float, start: Optional[DualPair]) -> tuple:
        res = inner_allocation(t2, chan, params, start)
        return res.gamma, res.slope, res.duals

    return solve_with_allocation(params, chan, allocator)


def _solve_batch(rows: list[SystemParams], chan: ChannelRealization) -> list:
    """:func:`solve` for rows that differ only in their floors, on one
    channel, in lockstep (:func:`_run_batch`): each round of the rows'
    time-split probes is answered by running their inner allocations in
    lockstep too, one stacked kernel call per round serving every
    multiplier search.  Returns each row's ``Solution`` or the exception
    its solve raised, equal to what :func:`solve` returns or raises for
    that row alone."""
    pair = links(chan, rows[0].delta_f)
    kernel = _jacobian_kernel(chan, rows[0].delta_f)

    def allocations(probes: list) -> list:
        inner = [_inner_steps(t2, pair, params, start) for params, t2, start in probes]
        return [
            res if isinstance(res, Exception) else (res.gamma, res.slope, res.duals)
            for res in _run_batch(inner, kernel)
        ]

    return _run_batch([_outer_steps(params, chan) for params in rows], allocations)


def _validate_instance(params: SystemParams, chan: ChannelRealization) -> None:
    if chan.h.size != params.n_antennas:
        raise ValueError("channel vector length does not match n_antennas")
    if chan.n_subcarriers != params.n_subcarriers:
        raise ValueError("SNR vector length does not match n_subcarriers")
