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
from dataclasses import dataclass
from typing import Callable, Generator, Optional

import numpy as np

from .model import (
    LN2,
    ChannelRealization,
    Solution,
    SolveStatus,
    SystemParams,
    comm_rate,
    radar_mi,
)

__all__ = [
    "DualPair",
    "InnerResult",
    "SolverOptions",
    "SolverError",
    "InfeasibleSignalError",
    "subcarrier_gamma",
    "inner_allocation",
    "inner_dual_value",
    "mrt_covariance",
    "solve",
    "solve_with_allocation",
]


class SolverError(RuntimeError):
    """Raised when an iterative stage fails to converge."""


class InfeasibleSignalError(ValueError):
    """Raised when positive energy is demanded over a zero channel."""


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


@dataclass(frozen=True)
class SolverOptions:
    max_bisect: int = 200
    dual_tol: float = 1e-10  # absolute, on normalized constraint residuals
    time_tol: float = 1e-9  # relative to total_time


DEFAULT_OPTIONS = SolverOptions()


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


def _single_floor_filling(snr: np.ndarray) -> Callable[[float, float], tuple]:
    """Exact single-constraint water-filling of one link, sorted once.

    Returns ``fill(target_logsum, tau2) -> (gamma, a)``: the water level
    ``a`` at which ``sum over active of log2(a * snr_m)`` equals
    ``target_logsum`` with active set ``{m : a * snr_m > 1}``, and the
    optimal profile ``tau2 * max(0, a - 1/snr_m)``.  With the SNRs ``v``
    sorted in decreasing order and ``L_k`` the sum of the first ``k``
    ``log2 v``, the ``k`` strongest subcarriers are active at ``a = 2**((t
    - L_k) / k)``, which puts the k-th above water and the (k+1)-th not
    exactly when ``theta_k <= t < theta_(k+1)`` for ``theta_k = L_k - k
    log2 v_k``, a nondecreasing sequence from ``theta_1 = 0``.  A level
    past ``2**1000`` reads ``inf``.
    """
    pos = snr > 0
    inv = np.divide(1.0, snr, out=np.full_like(snr, np.inf), where=pos)
    log_v = np.log2(np.sort(snr[pos])[::-1])
    log_sum = np.cumsum(log_v)
    theta = log_sum - np.arange(1, log_v.size + 1) * log_v

    def fill(target_logsum: float, tau2: float) -> tuple[np.ndarray, float]:
        if log_v.size == 0:
            raise SolverError("rate floor demanded over an all-zero SNR vector")
        # below theta_1 = 0 no level is consistent: all subcarriers count as active
        k = int(np.searchsorted(theta, target_logsum, side="right")) or log_v.size
        exponent = (target_logsum - float(log_sum[k - 1])) / k
        if exponent > 1000.0:
            return np.where(pos, math.inf, 0.0), math.inf
        level = 2.0**exponent
        return tau2 * np.maximum(level - inv, 0.0), level

    return fill


def _bits(gamma: np.ndarray, snr: np.ndarray, tau2: float, scale: float) -> float:
    """``scale * tau2 * sum log1p(gamma snr / tau2)``: the sensing MI with
    ``scale = delta_f / (2 ln 2)``, the data rate with ``delta_f / ln 2``."""
    return scale * tau2 * float(np.add.reduce(np.log1p(gamma * snr / tau2)))


def inner_allocation(
    tau2: float,
    chan: ChannelRealization,
    params: SystemParams,
    options: SolverOptions = DEFAULT_OPTIONS,
    start: Optional[DualPair] = None,
) -> InnerResult:
    """Minimize total transmit-phase energy subject to both rate floors.

    Returns the optimal ``gamma`` together with the dual pair that
    regenerates it through :func:`subcarrier_gamma`.  The two
    single-constraint cases are solved in closed form first; only when
    both floors bind does the safeguarded Newton search of
    :func:`_both_floor_multipliers` run, starting from ``start`` (for
    example the duals of a nearby ``tau2``) when it is given.
    """
    fill_r, fill_c = _single_floor_filling(chan.radar_snr), _single_floor_filling(chan.comm_snr)
    steps = _inner_steps(tau2, chan, params, options, start, fill_r, fill_c)
    return _run(steps, _jacobian_kernel(chan, params.delta_f))


def _inner_steps(
    tau2: float,
    chan: ChannelRealization,
    params: SystemParams,
    options: SolverOptions,
    start: Optional[DualPair],
    fill_r: Callable,
    fill_c: Callable,
) -> Generator[tuple, tuple, InnerResult]:
    """:func:`inner_allocation` as a search that yields its profile
    evaluations (:func:`_jacobian_kernel`), with the single-floor
    water-fillings of both links given."""
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    v = chan.radar_snr
    w = chan.comm_snr
    r_r, r_c = params.mi_floor, params.rate_floor
    df = params.delta_f
    scale_r, scale_c = 0.5 * df / LN2, df / LN2

    if r_r == 0.0 and r_c == 0.0:
        return InnerResult(np.zeros_like(v), DualPair(0.0, 0.0), 0.0, "none")

    tol_r = options.dual_tol * max(1.0, r_r)
    tol_c = options.dual_tol * max(1.0, r_c)

    # a water level past 2**1000 means no finite profile meets that floor
    lam_r1 = lam_c1 = 0.0
    if r_r > 0.0:
        g1, level_a = fill_r(2.0 * r_r / (df * tau2), tau2)
        lam_r1 = level_a * 2.0 * LN2 / df
        if math.isinf(level_a):
            return InnerResult(g1, DualPair(lam_r1, 0.0), math.inf, "mi")
        rate = _bits(g1, w, tau2, scale_c)
        if rate >= r_c - tol_c:
            duals = DualPair(lam_r1, 0.0)
            res = _kkt_residual(duals, _bits(g1, v, tau2, scale_r), rate, r_r, r_c)
            return InnerResult(g1, duals, res, "mi")
    if r_c > 0.0:
        g2, level_b = fill_c(r_c / (df * tau2), tau2)
        lam_c1 = level_b * LN2 / df
        if math.isinf(level_b):
            return InnerResult(g2, DualPair(0.0, lam_c1), math.inf, "rate")
        mi = _bits(g2, v, tau2, scale_r)
        if mi >= r_r - tol_r:
            duals = DualPair(0.0, lam_c1)
            res = _kkt_residual(duals, mi, _bits(g2, w, tau2, scale_c), r_r, r_c)
            return InnerResult(g2, duals, res, "rate")

    lam_r, lam_c, gamma, mi, rate = yield from _both_floor_multipliers(
        tau2, r_r, r_c, lam_r1, lam_c1, start, options
    )
    duals = DualPair(lam_r, lam_c)
    res = _kkt_residual(duals, mi, rate, r_r, r_c)
    if res > 1e3 * options.dual_tol:
        raise SolverError(f"inner allocation did not converge (residual {res:.3e})")
    return InnerResult(gamma, duals, res, "both")


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
    options: SolverOptions,
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
    floor is met to ``dual_tol * max(1, floor)`` or has its multiplier
    settled to that precision.  ``max_bisect`` caps the iterations, one
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
    tol_r = options.dual_tol * max(1.0, r_r)  # as in _kkt_residual
    tol_c = options.dual_tol * max(1.0, r_c)
    newton_res = math.inf  # residual where the last 2-D step started
    polished = False
    for _ in range(options.max_bisect):
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
        raise InfeasibleSignalError("positive demand with no harvestable channel")
    q = (s / (eta * hn2 * hn2)) * np.outer(h, h.conj())
    q = 0.5 * (q + q.conj().T)
    return q, s / (eta * hn2)


def _largest_phi_root(
    phi: Callable[[float], Generator],
    total_time: float,
    options: SolverOptions,
) -> Generator[object, object, Optional[float]]:
    """Largest root of the convex feasibility margin on (0, T).

    ``phi(t)`` is a search that returns the margin and its slope.  Newton
    steps start at ``T``, where the margin is positive.  Every tangent of a
    convex function lies below it, so each tangent root sits at or right of
    the largest root and the margin stays positive on the iterates until a
    step crosses it.  A step shorter than ``time_tol * T`` is lengthened to
    that, which crosses a simple root, and the first iterate with a
    nonpositive margin is returned.

    Returns None when the margin is positive on all of (0, T].  Each exit
    is a certificate, since the tangent at an iterate bounds the margin
    from below left of it: the margin is not finite there, or its slope is
    not positive, or the tangent root is not positive.  A near-tangent
    instance whose steps stall below ``time_tol * T`` with a positive margin
    ends on one of these (or on the ``max_bisect`` cap) and counts as
    infeasible: no feasible interval wider than ``time_tol * T`` was passed.
    """
    xtol = options.time_tol * total_time
    t = total_time
    value, slope = yield from phi(t)
    for _ in range(options.max_bisect):
        if not (math.isfinite(value) and slope > 0.0):
            return None
        step = max(value / slope, xtol)
        if step >= t:
            return None
        t -= step
        value, slope = yield from phi(t)
        if value <= 0.0:
            return t
    return None


def solve_with_allocation(
    params: SystemParams,
    chan: ChannelRealization,
    allocator: Callable[[float], tuple[np.ndarray, float]],
    options: SolverOptions = DEFAULT_OPTIONS,
) -> Solution:
    """Outer time-split search shared by the optimal and benchmark schemes.

    ``allocator(tau2)`` returns ``(gamma, slope)``: the cheapest
    per-subcarrier energy profile that the scheme allows at that
    transmit-slot length, and ``slope = d sum(gamma) / d tau2`` (any
    subgradient where the demand has a kink).  A floor that no finite
    profile meets is reported as infinite demand.  The demand is convex in
    ``tau2``, so ``phi(tau2) = sum(gamma) - eta ||h||^2 P (T - tau2)`` is
    too, and the optimal slot is its largest root (:func:`_largest_phi_root`,
    one allocator call per probe).  There the harvest constraint is met with
    equality by the maximum-ratio covariance ``c h h^H``, whose beam is
    ``sqrt(S / (eta ||h||^4 tau1)) h`` up to a global phase.

    The search is :func:`_outer_steps`, whose every request is a ``tau2``
    that ``allocator`` answers.
    """
    return _run(_outer_steps(params, chan, _ask, options), lambda ts: [allocator(t) for t in ts])


def _ask(request):
    """A search that yields ``request`` and returns the kernel's answer."""
    return (yield request)


def _outer_steps(
    params: SystemParams,
    chan: ChannelRealization,
    allocation: Callable[[float], Generator],
    options: SolverOptions,
) -> Generator[object, object, Solution]:
    """:func:`solve_with_allocation` as a search: ``allocation(tau2)`` is
    the search for ``(gamma, slope)`` at ``tau2``, and its requests pass
    through."""
    _validate_instance(params, chan)
    if params.mi_floor == 0.0 and params.rate_floor == 0.0:
        return Solution.empty(SolveStatus.ZERO_DEMAND, params)

    h = chan.h
    hn2 = float(np.real(np.vdot(h, h)))
    budget_rate = params.efficiency * hn2 * params.power_cap
    if budget_rate == 0.0:
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    total_time = params.total_time
    probe: tuple[np.ndarray, float] = (np.zeros(0), 0.0)

    def phi(t2: float) -> Generator[object, object, tuple[float, float]]:
        nonlocal probe
        gamma, slope = yield from allocation(t2)
        probe = gamma, float(np.sum(gamma))
        return probe[1] - budget_rate * (total_time - t2), slope + budget_rate

    tau2 = yield from _largest_phi_root(phi, total_time, options)
    if tau2 is None:
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    tau1 = total_time - tau2
    gamma, total = probe  # the search returns its last probe
    q_bar, trace = mrt_covariance(h, total, params.efficiency)
    # the phase of certify.rank_one_extract: first nonvanishing entry real
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
    raised.  A kernel call that raises is made again row by row, and its
    exception is thrown into the search (``throw``) whose own request
    raises it, so one row's failure leaves the others as they would run
    alone."""
    results: list = [None] * len(searches)
    replies = [(i, None, None) for i in range(len(searches))]
    while replies:
        asked = []
        for i, answer, error in replies:
            try:
                if error is None:
                    request = searches[i].send(answer)
                else:
                    request = searches[i].throw(error)
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:
                results[i] = exc
            else:
                asked.append((i, request))
        replies = _answers(asked, kernel) if asked else []
    return results


def _answers(asked: list, kernel: Callable[[list], list]) -> list:
    """``(row, answer, error)`` for each ``(row, request)``, from one kernel
    call, or from one call per row when the stacked call raises."""
    try:
        answers = kernel([request for _, request in asked])
    except Exception as exc:
        if len(asked) == 1:
            return [(asked[0][0], None, exc)]
        return [reply for pair in asked for reply in _answers([pair], kernel)]
    return [(i, answer, None) for (i, _), answer in zip(asked, answers)]


def _demand_slope(
    res: InnerResult, tau2: float, chan: ChannelRealization, params: SystemParams
) -> float:
    """Slope ``d sum(gamma) / d tau2`` of the inner allocation's optimum.

    By the envelope theorem it is the ``tau2``-derivative of the Lagrangian
    at the optimal profile and duals.  A floor term ``tau2 log1p(y)`` with
    ``y = gamma snr / tau2`` has derivative ``log1p(y) - y / (1 + y)`` in
    ``tau2``, so the slope is ``-lambda_r (delta_f / 2) sum[...]_v / ln 2 -
    lambda_c delta_f sum[...]_w / ln 2``.  An unreachable floor (infinite
    residual, infinite demand) has slope ``-inf``.
    """
    if math.isinf(res.stationarity_residual):
        return -math.inf
    x = res.gamma / tau2

    def floor_slope(snr: np.ndarray) -> float:
        y = x * snr
        return float(np.sum(np.log1p(y) - y / (1.0 + y))) / LN2

    df = params.delta_f
    return -(
        res.duals.lambda_r * 0.5 * df * floor_slope(chan.radar_snr)
        + res.duals.lambda_c * df * floor_slope(chan.comm_snr)
    )


def solve(
    params: SystemParams,
    chan: ChannelRealization,
    options: SolverOptions = DEFAULT_OPTIONS,
) -> Solution:
    """Jointly optimal time split, subcarrier energies and beamformer.

    Each inner allocation starts its multiplier search from the duals of
    the previous ``tau2`` probe, and its duals give the slope of the
    demand (:func:`_demand_slope`) for the outer Newton step.
    """
    last = DualPair(0.0, 0.0)

    def allocator(t2: float) -> tuple[np.ndarray, float]:
        nonlocal last
        res = inner_allocation(t2, chan, params, options, start=last)
        last = res.duals
        return res.gamma, _demand_slope(res, t2, chan, params)

    return solve_with_allocation(params, chan, allocator, options)


def _solve_batch(
    rows: list[SystemParams], chan: ChannelRealization, options: SolverOptions = DEFAULT_OPTIONS
) -> list:
    """:func:`solve` for rows that differ only in their floors, on one
    channel, in lockstep (:func:`_run_batch`): each row runs the same
    searches as alone, and one stacked kernel call per round serves every
    row's multiplier search.  Returns each row's ``Solution`` or the
    exception its solve raised, equal to what :func:`solve` returns or
    raises for that row alone."""
    fill_r, fill_c = _single_floor_filling(chan.radar_snr), _single_floor_filling(chan.comm_snr)

    def search(params: SystemParams) -> Generator:
        last = DualPair(0.0, 0.0)

        def allocation(t2: float) -> Generator:
            nonlocal last
            res = yield from _inner_steps(t2, chan, params, options, last, fill_r, fill_c)
            last = res.duals
            return res.gamma, _demand_slope(res, t2, chan, params)

        return _outer_steps(params, chan, allocation, options)

    return _run_batch([search(p) for p in rows], _jacobian_kernel(chan, rows[0].delta_f))


def _validate_instance(params: SystemParams, chan: ChannelRealization) -> None:
    if chan.h.size != params.n_antennas:
        raise ValueError("channel vector length does not match n_antennas")
    if chan.n_subcarriers != params.n_subcarriers:
        raise ValueError("SNR vector length does not match n_subcarriers")
