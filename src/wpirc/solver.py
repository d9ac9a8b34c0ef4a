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
from typing import Callable, Optional

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


def _gamma_profile(
    lambda_r: float,
    lambda_c: float,
    v: np.ndarray,
    w: np.ndarray,
    tau2: float,
    delta_f: float,
) -> np.ndarray:
    """Stationary per-subcarrier energies for fixed multipliers.

    Solves ``1 = A/(1 + x v) + B/(1 + x w)`` for ``x = gamma / tau2`` on
    each subcarrier, with ``A = lambda_r delta_f v / (2 ln 2)`` and
    ``B = lambda_c delta_f w / ln 2``; the positive root exists exactly
    when ``A + B > 1`` and is otherwise clamped to zero.
    """
    A = lambda_r * delta_f * v / (2.0 * LN2)
    B = lambda_c * delta_f * w / LN2
    x = np.zeros_like(v, dtype=float)

    c = 1.0 - A - B
    active = c < 0.0
    both = active & (v > 0) & (w > 0)
    single = active & ~both & ((v > 0) | (w > 0))

    if np.any(both):
        a = v[both] * w[both]
        b = v[both] + w[both] - A[both] * w[both] - B[both] * v[both]
        cb = c[both]
        root = np.hypot(b, 2.0 * np.sqrt(-a * cb))  # sqrt(b^2 - 4ac) > |b|, no overflow
        # larger quadratic root, in the form without cancellation for the
        # sign of b (b + root cancels when b < 0, at high water levels)
        up = b >= 0.0
        xb = np.empty_like(b)
        xb[up] = -2.0 * cb[up] / (b[up] + root[up])
        xb[~up] = (root[~up] - b[~up]) / (2.0 * a[~up])
        x[both] = xb
    if np.any(single):
        gain = np.where(v[single] > 0, v[single], w[single])
        scale = np.where(v[single] > 0, 1.0 - B[single], 1.0 - A[single])
        x[single] = -c[single] / (gain * scale)

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


def _water_level(snr: np.ndarray, target_logsum: float) -> float:
    """Exact single-constraint water level.

    Finds ``a`` such that ``sum over active of log2(a * snr_m)`` equals
    ``target_logsum`` with active set ``{m : a * snr_m > 1}``; the optimal
    per-subcarrier loading is then ``x_m = max(0, a - 1/snr_m)``.
    """
    v = np.sort(snr[snr > 0])[::-1]
    if v.size == 0:
        raise SolverError("rate floor demanded over an all-zero SNR vector")
    exponent = (target_logsum - np.cumsum(np.log2(v))) / np.arange(1, v.size + 1)
    # candidate level with the k strongest subcarriers active (inf past 2**1000)
    a = np.full(v.size, np.inf)
    finite = exponent <= 1000.0
    a[finite] = np.power(2.0, exponent[finite])
    # consistent when the k-th subcarrier is above water and the (k+1)-th is not
    consistent = a * v >= 1.0 - 1e-14
    consistent[:-1] &= a[:-1] * v[1:] < 1.0
    # without a consistent candidate (boundary rounding) all are active
    return float(a[np.argmax(consistent)] if consistent.any() else a[-1])


def _single_constraint_gamma(
    snr: np.ndarray, target_logsum: float, tau2: float
) -> tuple[np.ndarray, float]:
    """Optimal profile and water level for one active rate constraint."""
    a = _water_level(snr, target_logsum)
    x = np.zeros_like(snr)
    pos = snr > 0
    x[pos] = np.maximum(0.0, a - 1.0 / snr[pos])
    return tau2 * x, a


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
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    v = chan.radar_snr
    w = chan.comm_snr
    r_r, r_c = params.mi_floor, params.rate_floor
    df = params.delta_f

    def mi(g):
        return radar_mi(g, v, tau2, df)

    def rate(g):
        return comm_rate(g, w, tau2, df)

    if r_r == 0.0 and r_c == 0.0:
        return InnerResult(np.zeros_like(v), DualPair(0.0, 0.0), 0.0, "none")

    tol_r = options.dual_tol * max(1.0, r_r)
    tol_c = options.dual_tol * max(1.0, r_c)

    # a water level past 2**1000 means no finite profile meets that floor
    lam_r1 = lam_c1 = 0.0
    if r_r > 0.0:
        g1, level_a = _single_constraint_gamma(v, 2.0 * r_r / (df * tau2), tau2)
        lam_r1 = level_a * 2.0 * LN2 / df
        if math.isinf(level_a):
            return InnerResult(g1, DualPair(lam_r1, 0.0), math.inf, "mi")
        if rate(g1) >= r_c - tol_c:
            duals = DualPair(lam_r1, 0.0)
            res = _kkt_residual(duals, g1, mi(g1), rate(g1), r_r, r_c)
            return InnerResult(g1, duals, res, "mi")
    if r_c > 0.0:
        g2, level_b = _single_constraint_gamma(w, r_c / (df * tau2), tau2)
        lam_c1 = level_b * LN2 / df
        if math.isinf(level_b):
            return InnerResult(g2, DualPair(0.0, lam_c1), math.inf, "rate")
        if mi(g2) >= r_r - tol_r:
            duals = DualPair(0.0, lam_c1)
            res = _kkt_residual(duals, g2, mi(g2), rate(g2), r_r, r_c)
            return InnerResult(g2, duals, res, "rate")

    lam_r, lam_c, gamma = _both_floor_multipliers(
        v, w, tau2, df, r_r, r_c, lam_r1, lam_c1, start, options
    )
    duals = DualPair(lam_r, lam_c)
    res = _kkt_residual(duals, gamma, mi(gamma), rate(gamma), r_r, r_c)
    if res > 1e3 * options.dual_tol:
        raise SolverError(f"inner allocation did not converge (residual {res:.3e})")
    return InnerResult(gamma, duals, res, "both")


def _floor_jacobian(
    lambda_r: float,
    lambda_c: float,
    v: np.ndarray,
    w: np.ndarray,
    tau2: float,
    delta_f: float,
) -> tuple[np.ndarray, float, float, float, float, float]:
    """Profile, sensing MI, data rate, and the slopes of (MI, rate) in the
    multipliers.

    Implicit differentiation of ``p + q = 1`` with ``p = A/(1 + x v)`` and
    ``q = B/(1 + x w)`` gives ``dx/dlambda_r = p / (lambda_r D)`` and
    ``dx/dlambda_c = q / (lambda_c D)`` on each active subcarrier, with
    ``D = p v/(1 + x v) + q w/(1 + x w)``.  The returned slopes ``J_rr =
    dMI/dlambda_r``, ``J_rc = dMI/dlambda_c = drate/dlambda_r`` and ``J_cc
    = drate/dlambda_c`` form the negative Hessian of
    :func:`inner_dual_value`, which is positive semidefinite.
    """
    gamma = _gamma_profile(lambda_r, lambda_c, v, w, tau2, delta_f)
    x = gamma / tau2
    on = x > 0.0
    va, wa = v[on], w[on]
    xv, xw = x[on] * va, x[on] * wa
    ev, ew = 1.0 + xv, 1.0 + xw
    p_per = delta_f * va / (2.0 * LN2 * ev)  # p / lambda_r
    q_per = delta_f * wa / (LN2 * ew)  # q / lambda_c
    d = lambda_r * p_per * va / ev + lambda_c * q_per * wa / ew
    # log1p keeps the floors accurate when x v or x w is far below 1
    mi = 0.5 * delta_f * tau2 * float(np.sum(np.log1p(xv))) / LN2
    rate = delta_f * tau2 * float(np.sum(np.log1p(xw))) / LN2
    j_rr = tau2 * float(np.sum(p_per * p_per / d))
    j_rc = tau2 * float(np.sum(p_per * q_per / d))
    j_cc = tau2 * float(np.sum(q_per * q_per / d))
    return gamma, mi, rate, j_rr, j_rc, j_cc


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
    v: np.ndarray,
    w: np.ndarray,
    tau2: float,
    df: float,
    r_r: float,
    r_c: float,
    lam_r1: float,
    lam_c1: float,
    start: Optional[DualPair],
    options: SolverOptions,
) -> tuple[float, float, np.ndarray]:
    """Multipliers at which both floors hold with equality.

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
    profile evaluation each.
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
        gamma, mi, rate, j_rr, j_rc, j_cc = _floor_jacobian(lam_r, lam_c, v, w, tau2, df)
        e_r, e_c = mi - r_r, rate - r_c
        det = j_rr * j_cc - j_rc * j_rc
        d_r = (j_rc * e_c - j_cc * e_r) / det if det > 0.0 else nan
        d_c = (j_rc * e_r - j_rr * e_c) / det if det > 0.0 else nan
        # a multiplier is settled when its floor is met to tolerance or
        # its Newton correction is below what a double resolves
        fixed_r, fixed_c = abs(d_r) <= 1e-13 * lam_r, abs(d_c) <= 1e-13 * lam_c
        if (abs(e_r) <= tol_r or fixed_r) and (abs(e_c) <= tol_c or fixed_c):
            if polished or (fixed_r and fixed_c) or not det > 0.0:
                return lam_r, lam_c, gamma
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


def _kkt_residual(
    duals: DualPair, gamma: np.ndarray, mi: float, rate: float, r_r: float, r_c: float
) -> float:
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
    phi: Callable[[float], tuple[float, float]],
    total_time: float,
    options: SolverOptions,
) -> Optional[float]:
    """Largest root of the convex feasibility margin on (0, T).

    ``phi(t)`` returns the margin and its slope.  Newton steps start at
    ``T``, where the margin is positive.  Every tangent of a convex function
    lies below it, so each tangent root sits at or right of the largest root
    and the margin stays positive on the iterates until a step crosses it.
    A step shorter than ``time_tol * T`` is lengthened to that, which
    crosses a simple root, and the first iterate with a nonpositive margin
    is returned.

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
    value, slope = phi(t)
    for _ in range(options.max_bisect):
        if not (math.isfinite(value) and slope > 0.0):
            return None
        step = max(value / slope, xtol)
        if step >= t:
            return None
        t -= step
        value, slope = phi(t)
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
    """
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

    def phi(t2: float) -> tuple[float, float]:
        nonlocal probe
        gamma, slope = allocator(t2)
        probe = gamma, float(np.sum(gamma))
        return probe[1] - budget_rate * (total_time - t2), slope + budget_rate

    tau2 = _largest_phi_root(phi, total_time, options)
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


def _validate_instance(params: SystemParams, chan: ChannelRealization) -> None:
    if chan.h.size != params.n_antennas:
        raise ValueError("channel vector length does not match n_antennas")
    if chan.n_subcarriers != params.n_subcarriers:
        raise ValueError("SNR vector length does not match n_subcarriers")
