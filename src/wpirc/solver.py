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
from functools import cached_property, lru_cache
from typing import Callable, Generator, NamedTuple, Optional

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
    tau2: float
    mi: float  # the sensing MI and data rate that gamma reaches
    rate: float
    # (dMI/dlambda_r, dMI/dlambda_c, drate/dlambda_c) at the duals, where both bind
    jacobian: Optional[tuple[float, float, float]] = None


MAX_ITER = 200  # iteration cap of every search
DUAL_TOL = 1e-10  # absolute, on normalized constraint residuals
TIME_TOL = 1e-9  # relative to total_time


def _gamma_profile(lambda_r, lambda_c, tau2, kernel: _Kernel) -> np.ndarray:
    """Stationary per-subcarrier energies for fixed multipliers, on the
    gains ``v``, ``w`` and subcarrier spacing ``delta_f`` of ``kernel``.

    Solves ``1 = A/(1 + x v) + B/(1 + x w)`` for ``x = gamma / tau2`` on
    each subcarrier, with ``A = lambda_r delta_f v / (2 ln 2)`` and ``B =
    lambda_c delta_f w / ln 2``.  Cleared of its denominators it is the
    quadratic ``v w x^2 + 2 h x - e = 0`` with ``e = A + B - 1`` and ``2 h
    = v + w - A w - B v``, which has a positive root exactly when ``e >
    0``; elsewhere the energy is zero.  Its roots are ``e / s`` and ``-s /
    (v w)`` with ``s = h + sign(h) sqrt(h^2 + v w e)``, a form without
    cancellation (``h < 0`` at high water levels), and where ``e > 0`` the
    larger one is the only positive one.  Where one gain is zero the
    quadratic is linear, ``s = 2 h = v + w``, and ``e / s`` is its root
    (the table of ``-1 / (v w)`` reads 0 there).
    The channel-only constants are the kernel's :class:`_Tables`.  The
    multipliers and ``tau2`` may be scalars or ``(k, 1)`` columns, one row
    of profiles each; every subcarrier is computed alone, so a row does not
    depend on the others.
    """
    t = kernel.tables
    weight_r, weight_c = t.weights[:, 0]
    e = lambda_r * weight_r
    e += lambda_c * weight_c
    e -= 1.0
    # A w + B v = (lambda_r / 2 + lambda_c) delta_f v w / ln 2
    h = t.half_sum - (0.5 * lambda_r + lambda_c) * (0.5 * kernel.delta_f / LN2) * t.product
    # sqrt(h^2 + v w e) without overflow; v w e < 0 only where e < 0
    s = np.multiply(t.product, e)
    np.maximum(s, 0.0, out=s)
    np.sqrt(s, out=s)
    np.hypot(h, s, out=s)
    np.copysign(s, h, out=s)
    s += h
    x = np.maximum(e / s, s * t.neg_inverse)
    return tau2 * np.where(e > 0.0, x, 0.0)


def subcarrier_gamma(
    duals: DualPair, v: float, w: float, tau2: float, delta_f: float
) -> float:
    """Water-filling energy of a single subcarrier with gains ``v``, ``w``."""
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    if v < 0 or w < 0:
        raise ValueError("gains must be nonnegative")
    kernel = _Kernel(np.array([v]), np.array([w]), delta_f)
    return float(_gamma_profile(duals.lambda_r, duals.lambda_c, tau2, kernel)[0])


class Link:
    """One link's floor and the allocations that meet or maximize it.

    A floor is ``bits = scale tau2 sum log2(1 + x_m s_m)`` over the link's
    SNRs ``s`` and the powers ``x = gamma / tau2``, a perspective of a
    concave function, with ``scale = delta_f / 2`` for the sensing MI and
    ``delta_f`` for the data rate (:func:`links`).  The sorted table of
    :meth:`fill`, :meth:`pour` and :meth:`powers` is built on first use and
    kept.  :meth:`pour` gives the water level of a total power, and
    :meth:`powers` the powers at a level, so a search over the total builds
    them once, where it stops.  The least even split that meets a floor is
    :func:`_spread_slots`', which needs no table.
    """

    def __init__(self, snr: np.ndarray, scale: float) -> None:
        self.snr = snr
        self.scale = scale

    @cached_property
    def _sorted(self) -> tuple:
        """Tables of :meth:`fill`, :meth:`pour` and :meth:`powers`: with the
        positive SNRs ``s_k`` in decreasing order, the sums ``L_k`` of their
        first ``k`` log2, ``theta_k = L_k - k log2 s_k``, the sums ``C_k`` of
        the first ``k`` inverses and ``k / s_k - C_k``; and ``1 / s`` in the
        link's order (inf at 0)."""
        pos = self.snr > 0
        s = np.sort(self.snr[pos])[::-1]
        log_s = np.log2(s)
        log_sum = np.cumsum(log_s)
        k = np.arange(1, s.size + 1)
        inv_sum = np.cumsum(1.0 / s)
        inv = np.divide(1.0, self.snr, out=np.full_like(self.snr, np.inf), where=pos)
        return log_sum, log_sum - k * log_s, inv_sum, k / s - inv_sum, inv

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

    def pour(self, total: float) -> tuple[float, float, float]:
        """Water-filling of the total power ``total > 0``: ``(G, dG/dtotal,
        a)`` with ``G = sum log2(1 + x s)`` and the water level ``a`` of the
        powers ``x`` (:meth:`powers`); the link needs a positive SNR.

        The powers are ``x = max(0, a - 1/s)`` with ``sum x = total``.  The
        ``k`` strongest subcarriers are above water when ``total`` exceeds
        ``k / s_k - C_k``, and then ``a = (total + C_k) / k``, ``G = k log2 a
        + L_k`` and ``dG/dtotal = 1 / (a ln 2)``.
        """
        log_sum, _, inv_sum, theta, _ = self._sorted
        k = int(np.searchsorted(theta, total))  # theta[0] = 0 < total
        a = (total + inv_sum[k - 1]) / k
        return k * math.log2(a) + log_sum[k - 1], 1.0 / (a * LN2), a

    def powers(self, level: float) -> np.ndarray:
        """The water-filling powers ``x = max(0, a - 1/s)`` at the level ``a``
        (:meth:`pour`)."""
        return np.maximum(level - self._sorted[4], 0.0)

    def spread(self, total: float) -> tuple[float, float, float]:
        """The even split of the total power ``total``: ``(G, dG/dtotal,
        x)`` with the power ``x = total / N_c`` on every subcarrier and ``G
        = sum log2(1 + x s)``."""
        n = self.snr.size
        x = total / n
        y = x * self.snr
        grad = float(np.add.reduce(self.snr / (1.0 + y))) / (n * LN2)
        return float(np.add.reduce(np.log1p(y))) / LN2, grad, x


def _spread_slots(
    pair, floors: np.ndarray, budget_rate: float, total_time: float, slot
) -> np.ndarray:
    """Least total power ``S`` whose even split meets each floor of the
    ``(2, k)`` array ``floors`` (row ``i`` on ``pair[i]``) with the whole
    budget spent, in a slot no longer than ``slot`` (one value, or one per
    column); NaN where none does.  This is the one search for an
    equal-power level: ``eq_solve`` and the oracle's demand bound run it.

    The budget binds at ``tau2 = B T / (S + B)``, capped at ``slot`` (there
    the budget is slack), so the floor holds where ``h(S) = coef G(S) -
    floor max(S + B, c) >= 0``, with ``G(S) = sum log1p(S s)`` over ``s =
    snr / N`` (the even split of :meth:`Link.spread`), ``coef = scale B T /
    ln 2`` and the cap ``c = B T / slot``.  ``h`` is concave,
    and ``G(S) <= N log1p(S sum(s) / N)`` (Jensen) makes it nonpositive up
    to ``S0 = N expm1(floor c / (coef N)) / sum(s)``: Newton steps from
    ``S0`` rise monotonically to its smaller root, and end after a step
    under 1e-13 relative.  A start that is not finite (an all-zero link, or
    an overflow), a slope that is not positive, a step that is not finite,
    or ``MAX_ITER`` steps (a near-tangent ``h``) mean that it has none.
    Both links' floors run as the rows of one masked pass, each with its
    own link's SNRs, coefficient and cap, and each row iterates as it would
    alone; a row leaves the pass when it stops.
    """
    n = floors.shape[1]  # row i of the flattened floors is on pair[i // n]
    snr = np.stack([p.snr / p.snr.size for p in pair])
    coefs = np.array([p.scale / LN2 * budget_rate * total_time for p in pair])
    caps = np.broadcast_to(budget_rate * total_time / np.asarray(slot, dtype=float), floors.shape)
    floor = floors.ravel()
    total = np.zeros(floor.shape)
    live = np.flatnonzero(floor > 0.0)
    r, c, s, coef = floor[live], caps.ravel()[live], snr[live // n], coefs[live // n]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        S = s.shape[1] * np.expm1(r * c / (coef * s.shape[1])) / np.add.reduce(s, 1)
    S[~np.isfinite(S)] = math.nan  # no root
    # x s past the float range reads inf: infinite bits, no root left of S
    with np.errstate(over="ignore"):
        for _ in range(MAX_ITER):
            if not live.size:
                break
            y = S[:, None] * s
            shifted = S + budget_rate
            h = coef * np.add.reduce(np.log1p(y), 1) - r * np.maximum(shifted, c)
            slope = coef * np.add.reduce(s / (1.0 + y), 1) - r * (shifted > c)
            step = -h / np.where(slope > 0.0, slope, math.nan)
            S = S + step
            S[~np.isfinite(S)] = math.nan  # no root
            total[live] = S
            going = step > 1e-13 * S
            if not going.all():
                live, S, r, c, s, coef = (a[going] for a in (live, S, r, c, s, coef))
    total[live] = math.nan
    return total.reshape(2, n)


@lru_cache(maxsize=1)
def _channel_tables(chan: ChannelRealization, delta_f: float) -> tuple:
    """The sensing and data links of a channel, its profile kernel
    (:class:`_Kernel`) and its beam table (:class:`_Beam`), kept for the
    most recent channel alone, so that every entry point shares one set of
    tables.  A channel's arrays are read-only and it is hashed by identity:
    the tables cannot go stale."""
    v, w = chan.radar_snr, chan.comm_snr
    return (Link(v, 0.5 * delta_f), Link(w, delta_f)), _Kernel(v, w, delta_f), _Beam(chan.h)


def links(chan: ChannelRealization, delta_f: float) -> tuple[Link, Link]:
    """The sensing and data links of a channel (:func:`_channel_tables`)."""
    return _channel_tables(chan, delta_f)[0]


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
    single, lam_r1, lam_c1 = _single_floor(tau2, pair, params)
    if single is not None:
        return single
    lam_r, lam_c, gamma, mi, rate, jacobian = yield from _both_floor_multipliers(
        tau2, params.mi_floor, params.rate_floor, lam_r1, lam_c1, start
    )
    result = _inner_result(gamma, lam_r, lam_c, mi, rate, tau2, params, "both", jacobian)
    if (res := result.stationarity_residual) > 1e3 * DUAL_TOL:
        raise SolverError(f"inner allocation did not converge (residual {res:.3e})")
    return result


def _single_floor(
    tau2: float, pair: tuple[Link, Link], params: SystemParams
) -> tuple[Optional[InnerResult], float, float]:
    """The inner allocation at ``tau2`` where at most one floor binds, in
    closed form (:meth:`Link.fill`), else ``None``; and the single-floor
    multipliers, which bound the search where both bind."""
    radar, comm = pair
    r_r, r_c = params.mi_floor, params.rate_floor

    if r_r == 0.0 and r_c == 0.0:
        zero = np.zeros_like(radar.snr)
        return _inner_result(zero, 0.0, 0.0, 0.0, 0.0, tau2, params, "none"), 0.0, 0.0

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
            return _inner_result(tau2 * x, lam_r1, 0.0, mi, rate, tau2, params, "mi"), lam_r1, 0.0
    if r_c > 0.0:
        x, lam_c1 = comm.fill(r_c, tau2)
        mi = radar.bits(x, tau2) if lam_c1 < math.inf else math.inf
        if mi >= r_r - tol_r:
            rate = comm.bits(x, tau2) if lam_c1 < math.inf else math.inf
            return _inner_result(tau2 * x, 0.0, lam_c1, mi, rate, tau2, params, "rate"), 0.0, lam_c1
    return None, lam_r1, lam_c1


def _inner_result(
    gamma, lam_r, lam_c, mi, rate, tau2, params, active, jacobian=None
) -> InnerResult:
    """The inner allocation's result from its profile, multipliers, MI and
    rate (and their slopes in the multipliers where both floors bind), with
    the KKT residual and the slope of the least energy in ``tau2``.

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
    slope = -math.inf
    if not math.isinf(res):
        slope = (float(np.add.reduce(gamma)) - lam_r * mi - lam_c * rate) / tau2
    return InnerResult(gamma, duals, res, active, slope, tau2, mi, rate, jacobian)


def _floor_jacobian(lambda_r, lambda_c, tau2, kernel: _Kernel) -> tuple:
    """Profiles, sensing MI, data rate, and the slopes of (MI, rate) in the
    multipliers, for ``(k, 1)`` columns of multipliers and ``tau2``.

    Implicit differentiation of ``p + q = 1`` with ``p = A/(1 + x v)`` and
    ``q = B/(1 + x w)`` gives ``dx/dlambda_r = p / (lambda_r D)`` and
    ``dx/dlambda_c = q / (lambda_c D)`` on each active subcarrier, with
    ``D = p v/(1 + x v) + q w/(1 + x w)``.  The returned slopes ``J_rr =
    dMI/dlambda_r``, ``J_rc = dMI/dlambda_c = drate/dlambda_r`` and ``J_cc
    = drate/dlambda_c`` form the negative Hessian of
    :func:`inner_dual_value`, which is positive semidefinite.  The sensing
    and data terms of each step are the two rows of one ``(2, k, N_c)``
    array, and the five sums are one reduction over a ``(5, k, N_c)``
    buffer, scaled once.  Every result but the ``(k, N_c)`` profiles is a
    ``(k, 1)`` column.
    """
    gamma = _gamma_profile(lambda_r, lambda_c, tau2, kernel)
    t = kernel.tables
    x = gamma / tau2
    terms = np.empty((5,) + x.shape)
    xg = x * t.gains  # x v and x w
    # log1p keeps the floors accurate when x v or x w is far below 1
    np.log1p(xg, out=terms[:2])
    xg += 1.0
    per = t.weights / xg  # p / lambda_r and q / lambda_c
    d = per * t.gains
    d /= xg
    d = lambda_r * d[0] + lambda_c * d[1]  # D
    # the slopes sum over the active subcarriers only
    inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=x > 0.0)
    per_d = per * inv_d
    np.multiply(per[0], per_d, out=terms[2:4])
    np.multiply(per[1], per_d[1], out=terms[4])
    sums = np.add.reduce(terms, axis=-1, keepdims=True)
    sums *= t.scales * tau2
    return (gamma, *sums)


class _Tables(NamedTuple):
    """The channel-only arrays of the profile kernel (:class:`_Kernel`):
    ``(2, 1, N_c)`` stacks of a sensing and a data row, and rows."""

    gains: np.ndarray  # v and w
    weights: np.ndarray  # A / lambda_r = delta_f v / (2 ln 2) and B / lambda_c = delta_f w / ln 2
    # (v + w) / 2, and 1/2 where that is 0: there e = -1 and the energy is 0
    # for any h > 0, which keeps e / s finite
    half_sum: np.ndarray
    product: np.ndarray  # v w
    neg_inverse: np.ndarray  # -1 / (v w), and 0 where v w is 0
    # (5, 1, 1): delta_f / (2 ln 2) for the MI, delta_f / ln 2 for the rate
    # and 1 for each slope
    scales: np.ndarray


class _Kernel:
    """The optimal scheme's profile kernel on one channel, with gains ``v``
    (sensing) and ``w`` (data) at subcarrier spacing ``delta_f``: for a
    list of ``(lambda_r, lambda_c, tau2)`` requests, one stacked
    :func:`_floor_jacobian` call, split into one ``(gamma, mi, rate, j_rr,
    j_rc, j_cc)`` answer per request.  Its channel-only arrays are the
    named fields of :attr:`tables`."""

    def __init__(self, v: np.ndarray, w: np.ndarray, delta_f: float) -> None:
        self.v, self.w, self.delta_f = v, w, delta_f

    @cached_property
    def tables(self) -> _Tables:
        """The kernel's :class:`_Tables`.  Built at the first profile, not
        with the kernel: they can overflow on a channel that never needs
        one."""
        v, w, delta_f = self.v, self.w, self.delta_f
        product = v * w
        half_sum = 0.5 * (v + w)
        half_sum[half_sum == 0.0] = 0.5
        return _Tables(
            gains=np.stack([v, w])[:, None],
            weights=np.stack([delta_f * v / (2.0 * LN2), delta_f * w / LN2])[:, None],
            half_sum=half_sum,
            product=product,
            neg_inverse=np.divide(-1.0, product, out=np.zeros_like(product), where=product > 0.0),
            scales=np.array([0.5 * delta_f / LN2, delta_f / LN2, 1.0, 1.0, 1.0])[:, None, None],
        )

    def __call__(self, requests: list) -> list:
        lambda_r, lambda_c, tau2 = np.array(requests).T[..., None]
        gamma, *floors = _floor_jacobian(lambda_r, lambda_c, tau2, self)
        return list(zip(gamma, *np.concatenate(floors, axis=1).T.tolist()))


def _jacobian_kernel(chan: ChannelRealization, delta_f: float) -> _Kernel:
    """The profile kernel of a channel (:func:`_channel_tables`)."""
    return _channel_tables(chan, delta_f)[1]


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
    profile, MI and rate there and the slopes ``(j_rr, j_rc, j_cc)`` of
    (MI, rate) in the multipliers (:func:`_floor_jacobian`).

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
                return lam_r, lam_c, gamma, mi, rate, (j_rr, j_rc, j_cc)
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


def _predicted_slot(
    params: SystemParams, chan: ChannelRealization, pair: tuple[Link, Link]
) -> Generator[tuple, tuple, Optional[tuple]]:
    """A prediction ``(tau2, start)`` of the optimal slot for the ``op``
    time-split search to start from (:func:`_outer_steps`), or ``None``.
    The search's first probe, ``TIME_TOL * T / 2`` left of ``tau2``, is
    the solution where the dual bound certifies it.

    It is made only where both floors bind at ``T`` (:func:`_single_floor`,
    in closed form); elsewhere the search from ``T`` is free of profile
    evaluations already.  First each floor alone: where the other floor
    holds at one floor's own slot (:func:`_one_floor_slot`), that slot is
    the optimum, with no profile evaluation and ``start = None``.  Where a
    floor alone has no slot the instance is infeasible, which the search
    from ``T`` certifies (as it decides wherever no slot is found).
    Otherwise both floors bind at the optimum, and the reduced multiplier
    search (:func:`_reduced_multipliers`) predicts the slot and the inner
    allocation that the first probe starts from; it yields ``(mu_r, mu_c,
    1.0)`` requests to :func:`_jacobian_kernel`.
    """
    _validate_instance(params, chan)
    budget_rate = harvest_rate(params, chan)
    r_r, r_c = params.mi_floor, params.rate_floor
    if not (r_r > 0.0 and r_c > 0.0 and budget_rate > 0.0):
        return None
    single, lam_r1, lam_c1 = _single_floor(params.total_time, pair, params)
    if single is not None:
        return None
    radar, comm = pair
    for link, floor, other, other_floor in ((radar, r_r, comm, r_c), (comm, r_c, radar, r_r)):
        alone = _one_floor_slot(link, floor, budget_rate, params.total_time)
        if alone is None:
            return None
        tau2, x = alone
        if other.bits(x, tau2) >= other_floor - DUAL_TOL * max(1.0, other_floor):
            return tau2, None
    return (yield from _reduced_multipliers(params, budget_rate, lam_r1, lam_c1))


def _one_floor_slot(link: Link, floor: float, budget_rate: float, total_time: float):
    """The largest slot at which ``link``'s floor alone is met within the
    budget, with its powers, or ``None`` where no slot is.

    With the budget binding, ``tau2 = B T / (S + B)`` for the total power
    ``S``, and the floor holds where ``h(S) = scale B T G(S) - floor (S +
    B) >= 0``, with ``G`` the bits of the water-filling of ``S``
    (:meth:`Link.pour`).  ``h`` is concave.  At the powers that meet the
    floor at ``T`` it reads ``-floor S < 0``, so Newton steps from there
    rise monotonically to its smallest root, the largest slot; a slope that
    is not positive on the way means that ``h`` has no root.  ``MAX_ITER``
    caps the steps (a near-tangent ``h``), and ends with ``None`` too.  The
    steps need only the water level; the powers are built once, at the
    slot (:meth:`Link.powers`).
    """
    total = float(np.add.reduce(link.fill(floor, total_time)[0]))
    scale = link.scale * budget_rate * total_time
    for _ in range(MAX_ITER):
        g, grad, level = link.pour(total)
        slope = scale * grad - floor
        step = (floor * (total + budget_rate) - scale * g) / slope if slope > 0.0 else math.nan
        if not math.isfinite(step):
            return None
        if step <= 1e-13 * total:
            return budget_rate * total_time / (total + budget_rate), link.powers(level)
        total += step
    return None


PREDICT_CALLS = 14  # profile evaluations that a reduced search may spend


def _reduced_multipliers(
    params: SystemParams, budget_rate: float, mu_r: float, mu_c: float
) -> Generator[tuple, tuple, Optional[tuple]]:
    """The slot and inner allocation where both floors bind at the optimum,
    from a search in the scaled multipliers ``mu`` alone, or ``None``.

    Write ``x = gamma / tau2``: the optimal ``x`` is the stationary profile
    at ``tau2 = 1`` for some ``mu`` (the floors are perspectives), and the
    budget binds, so ``tau2 = B T / (sum x + B)``.  The optimum thus solves
    ``G(mu) = tau2(mu) (mi_1, rate_1)(x(mu)) = (r_r, r_c)``, with the
    floors' bits at ``tau2 = 1``.  One :func:`_floor_jacobian` evaluation
    gives ``G`` and its Jacobian, as ``d sum x / d mu = J mu`` by
    stationarity.  At ``tau2(mu)`` the inner allocation has the duals
    ``mu`` and the profile ``tau2 x``; its MI, rate and slopes are ``tau2``
    times those at 1.

    Newton steps in ``log mu`` start at ``(mu_r, mu_c)``, the single-floor
    multipliers at ``T``; a step's largest component is capped at 0.7, and
    a step that does not lower the larger normalized residual is halved.
    Where both floors are met to ``1e4 * DUAL_TOL * max(1, floor)``, the
    next Newton step would land within about the square of that, far inside
    ``TIME_TOL * T / 2``, so it is not evaluated: the predicted slot is
    ``tau2`` after it, to first order in ``sum x``, and the start is the
    allocation evaluated last, from which the first probe's warm start
    (:func:`_warm_start`) takes that step in the multipliers.  The search
    gives up after two halvings in a row or ``PREDICT_CALLS`` evaluations,
    as past the frontier, where ``G`` has no root.
    """
    r_r, r_c, total_time = params.mi_floor, params.rate_floor, params.total_time
    tol_r = DUAL_TOL * max(1.0, r_r)
    tol_c = DUAL_TOL * max(1.0, r_c)
    base, step, best, halvings = (mu_r, mu_c), (0.0, 0.0), math.inf, 0
    for _ in range(PREDICT_CALLS):
        gamma, mi, rate, j_rr, j_rc, j_cc = yield mu_r, mu_c, 1.0
        denom = float(np.add.reduce(gamma)) + budget_rate
        tau2 = budget_rate * total_time / denom
        e_r, e_c = tau2 * mi - r_r, tau2 * rate - r_c
        residual = max(abs(e_r) / tol_r, abs(e_c) / tol_c)
        if residual < best:
            best, base, halvings = residual, (mu_r, mu_c), 0
            # the Jacobian of G in log mu, over tau2: J - (mi, rate) (J mu)^T / denom
            g_r, g_c = j_rr * mu_r + j_rc * mu_c, j_rc * mu_r + j_cc * mu_c
            k_rr = (j_rr - mi * g_r / denom) * mu_r
            k_rc = (j_rc - mi * g_c / denom) * mu_c
            k_cr = (j_rc - rate * g_r / denom) * mu_r
            k_cc = (j_cc - rate * g_c / denom) * mu_c
            det = tau2 * (k_rr * k_cc - k_rc * k_cr)
            if not (det != 0.0 and math.isfinite(det)):
                return None
            d_r = (k_rc * e_c - k_cc * e_r) / det
            d_c = (k_cr * e_r - k_rr * e_c) / det
            if residual <= 1e4:
                # the last Newton step moves sum x by this, to first order
                moved = g_r * mu_r * d_r + g_c * mu_c * d_c
                jacobian = (tau2 * j_rr, tau2 * j_rc, tau2 * j_cc)
                here = _inner_result(
                    tau2 * gamma, mu_r, mu_c, tau2 * mi, tau2 * rate, tau2, params, "both", jacobian
                )
                return budget_rate * total_time / (denom + moved), here
            cap = min(1.0, 0.7 / max(abs(d_r), abs(d_c)))
            step = (cap * d_r, cap * d_c)
        elif halvings == 2:
            return None
        else:
            halvings += 1
            step = (0.5 * step[0], 0.5 * step[1])
        mu_r, mu_c = base[0] * math.exp(step[0]), base[1] * math.exp(step[1])
    return None


def _warm_start(prev: Optional[InnerResult], tau2: float, params: SystemParams):
    """The multiplier search's start at ``tau2``, from the inner allocation
    ``prev`` of the previous time-split probe (``None`` at the first).

    At fixed multipliers the powers ``x = gamma / tau2`` do not depend on
    ``tau2``, so the MI, the rate and their slopes in the multipliers are
    ``prev``'s times ``tau2 / prev.tau2``.  The search's first Newton step
    from ``prev``'s duals, taken in log-multipliers as
    :func:`_both_floor_multipliers` steps, thus needs no profile evaluation:
    a continuation method's predictor step.  Where ``prev`` did not bind
    both floors, or its Jacobian is singular, the start is ``prev``'s duals.
    """
    if prev is None:
        return None
    j_rr, j_rc, j_cc = prev.jacobian or (0.0, 0.0, 0.0)
    det = j_rr * j_cc - j_rc * j_rc
    if not det > 0.0:
        return prev.duals
    ratio = tau2 / prev.tau2
    e_r = ratio * prev.mi - params.mi_floor
    e_c = ratio * prev.rate - params.rate_floor
    # the Newton step against the Jacobian scaled by ratio
    d_r = (j_rc * e_c - j_cc * e_r) / (ratio * det)
    d_c = (j_rc * e_r - j_rr * e_c) / (ratio * det)
    lam_r, lam_c = prev.duals.lambda_r, prev.duals.lambda_c
    return DualPair(_log_step(lam_r, d_r), _log_step(lam_c, d_c))


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
    kernel = _jacobian_kernel(chan, params.delta_f)
    gamma = _gamma_profile(duals.lambda_r, duals.lambda_c, tau2, kernel)
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
    return (s / eta) * _unit_covariance(h, hn2), s / (eta * hn2)


def _unit_covariance(h: np.ndarray, hn2: float) -> np.ndarray:
    """``h h^H / ||h||^4``, made exactly Hermitian, for ``||h||^2 = hn2 >
    0``: the maximum-ratio covariance per unit of ``S / eta``."""
    q = np.outer(h, h.conj()) / (hn2 * hn2)
    return 0.5 * (q + q.conj().T)


class _Beam:
    """The maximum-ratio beam table of a channel vector ``h``: every
    optimal row on the channel scales :attr:`unit` (:func:`_mrt_solution`)."""

    def __init__(self, h: np.ndarray) -> None:
        self.h = h

    @cached_property
    def unit(self) -> tuple[float, np.ndarray, np.ndarray]:
        """``||h||^2``, the unit covariance (:func:`_unit_covariance`) and the
        unit beam ``h / ||h||^2``, phased as
        :func:`wpirc.certify.rank_one_extract` phases the leading
        eigenvector, first nonvanishing entry real.  Built at the first
        optimal row, not with the table: a channel with ``h = 0`` has none."""
        h = self.h
        hn2 = float(np.real(np.vdot(h, h)))
        lead = h[np.flatnonzero(np.abs(h) > 1e-12 * math.sqrt(hn2))[0]]
        return hn2, _unit_covariance(h, hn2), (np.conj(lead) / (abs(lead) * hn2)) * h


def solve_with_allocation(
    params: SystemParams,
    chan: ChannelRealization,
    allocator: Callable[[float, object], tuple[np.ndarray, float, object]],
    first: Optional[tuple] = None,
) -> Solution:
    """The time-split search :func:`_outer_steps` with one ``allocator``
    call per probe.

    ``allocator(tau2, start)`` returns ``(gamma, slope, start)``: the
    cheapest per-subcarrier energy profile that the scheme allows at that
    transmit-slot length, ``slope = d sum(gamma) / d tau2`` (any
    subgradient where the demand has a kink), and what the next probe
    starts from, for example the inner allocation itself.  The first
    probe gets ``start=None``, every later one the ``start`` that the probe
    before returned.  A floor that no finite profile meets is reported as
    infinite demand.  ``first``, a predicted slot and the start of a probe
    there, moves the first probe next to the slot (:func:`_outer_steps`).
    """
    steps = _outer_steps(params, chan, _probe, first)
    return _run(steps, lambda probes: [allocator(t2, start) for _, t2, start in probes])


def _probe(params: SystemParams, tau2: float, start) -> Generator[tuple, tuple, tuple]:
    """The answer that yields the probe itself, for the driver's kernel."""
    return (yield params, tau2, start)


def _outer_steps(
    params: SystemParams, chan: ChannelRealization, answer: Callable, first=None
) -> Generator[tuple, tuple, Solution]:
    """The time-split search of one instance, shared by every entry point
    of the optimal scheme: each probe runs the generator ``answer(params,
    tau2, start)``, yielding what it yields, and takes its return ``(gamma,
    slope, start)``, the allocation at ``tau2``
    (:func:`solve_with_allocation`), with ``start`` passed on to the next
    probe (``None`` at the first).  ``start`` is the inner allocation, from
    which :func:`_warm_start` predicts the next probe's multipliers.

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

    ``first``, a prediction ``(tau2, start)`` of the slot
    (:func:`_predicted_slot` for ``op``), moves the first probe to ``tau2 -
    TIME_TOL * T / 2``, with that ``start``.  Where its margin is not
    positive and its answer is an inner allocation whose dual bound ``g``
    (:func:`_dual_bound`) meets ``D - g <= |slope| TIME_TOL T``, the energy
    that one ``TIME_TOL * T`` step of the slot is worth, the probe is the
    slot: its energy is within the search's resolution of the optimum.
    ``D`` is ``sum(gamma)`` moved to the floors themselves, to first order
    in the multipliers, since the inner allocation meets them only to its
    tolerance.  Where the probe's margin is positive and finite with a
    positive slope, it lies right of the largest root, and the margin,
    convex and rising there, is positive on all of ``[tau2, T]``; so the
    Newton steps go on from it as validly as from ``T``.  Where it
    certifies nothing (a larger gap, an answer without duals, a margin that
    is not finite, or a slope that is not positive), the search starts
    again at ``T`` with no start, as it runs without a prediction.

    The instance is infeasible when the margin is positive on all of (0,
    T].  Each such exit is a certificate, since the tangent at an iterate
    bounds the margin from below left of it: the margin is not finite
    there, or its slope is not positive, or the tangent root is not
    positive; the first probe, at ``T`` or from a prediction, covers the
    rest of (0, T].  A near-tangent instance whose steps stall below
    ``TIME_TOL * T`` with a positive margin ends on one of these (or after
    ``MAX_ITER`` steps) and counts as infeasible: no feasible interval
    wider than ``TIME_TOL * T`` was passed.
    """
    _validate_instance(params, chan)
    if params.mi_floor == 0.0 and params.rate_floor == 0.0:
        return Solution.empty(SolveStatus.ZERO_DEMAND, params)
    budget_rate = harvest_rate(params, chan)
    if budget_rate == 0.0:
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    total_time = params.total_time
    xtol = TIME_TOL * total_time
    predicted = first is not None and first[0] > 0.5 * xtol
    tau2, start = (first[0] - 0.5 * xtol, first[1]) if predicted else (total_time, None)
    steps = 0
    while steps <= MAX_ITER:
        gamma, slope, start = yield from answer(params, tau2, start)
        total = float(np.sum(gamma))
        margin = total - budget_rate * (total_time - tau2)
        if predicted and margin <= 0.0 and isinstance(start, InnerResult):
            lam = start.duals
            at_floors = lam.lambda_r * (params.mi_floor - start.mi)
            at_floors += lam.lambda_c * (params.rate_floor - start.rate)
            gap = total + at_floors - _dual_bound(start, params, budget_rate)
            if gap <= abs(start.slope) * xtol:
                return _mrt_solution(params, chan, tau2, gamma, total)
        slope += budget_rate
        rising = math.isfinite(margin) and slope > 0.0
        if predicted:
            predicted = False
            if not (rising and margin > 0.0):
                tau2, start = total_time, None  # the search from T
                continue
        elif steps and margin <= 0.0:
            return _mrt_solution(params, chan, tau2, gamma, total)
        if not rising:
            break
        step = max(margin / slope, xtol)
        if step >= tau2:
            break
        tau2 -= step
        steps += 1
    return Solution.empty(SolveStatus.INFEASIBLE, params)


def _dual_bound(inner: InnerResult, params: SystemParams, budget_rate: float) -> float:
    """A lower bound on the least total energy ``sum(gamma)`` of the
    instance, from its inner allocation ``inner`` at any slot, or ``-inf``
    where that gives none.

    After maximum-ratio beamforming the problem is convex in ``(gamma,
    tau2)``: minimize ``sum(gamma)`` subject to the two perspective floors
    and ``sum(gamma) <= B (T - tau2)`` (:func:`wpirc.model.harvest_rate`).
    With ``x = gamma / tau2``, the floors' bits at ``tau2 = 1``, ``bits_1 =
    (mi, rate) / tau2``, and ``d = lambda . bits_1 - sum x``, its Lagrange
    dual at the floor multipliers ``(1 + nu) lambda`` and the budget
    multiplier ``nu = d / (B - d)`` is ``g = B (lambda . r - d T) / (B -
    d)`` wherever ``0 <= d < B`` and ``x`` minimizes ``sum x - lambda .
    bits_1``: that ``nu`` makes the Lagrangian constant in ``tau2``.  So it
    holds at the inner allocation's duals ``lambda``, whose profile is the
    stationary one there (the multiplier search returns the profile of its
    last evaluation, :meth:`Link.fill` the water-filling at its
    multiplier), where ``d`` is ``-inner.slope`` (:func:`_inner_result`).
    By weak duality ``g`` is at most the optimum.
    """
    d = -inner.slope
    if not 0.0 <= d < budget_rate:
        return -math.inf
    floors = inner.duals.lambda_r * params.mi_floor + inner.duals.lambda_c * params.rate_floor
    return budget_rate * (floors - d * params.total_time) / (budget_rate - d)


def _mrt_solution(params, chan, tau2, gamma, total) -> Solution:
    """The optimal point on ``chan`` with time split ``tau2 < T`` and
    profile ``gamma`` of total ``S = total``: the maximum-ratio covariance
    ``S / (eta ||h||^4) h h^H`` (:func:`mrt_covariance`) meets the harvest
    with equality, and its beam is ``sqrt(S / (eta ||h||^4 tau1)) h``.
    Both are the channel's beam table (:class:`_Beam`) times a scalar, each
    a new array."""
    hn2, covariance, beam = _channel_tables(chan, params.delta_f)[2].unit
    tau1 = params.total_time - tau2
    demand = total / params.efficiency
    return Solution(
        status=SolveStatus.OPTIMAL,
        beam_vector=math.sqrt(demand / tau1) * beam,
        tau1=tau1,
        tau2=tau2,
        gamma=gamma,
        energy=total / (params.efficiency * hn2),
        covariance_bar=demand * covariance,
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
    raised.  An exception as an answer, which the row-by-row retry of
    :func:`_answers` makes, is thrown into its search (``throw``) alone, so
    one row's failure leaves the others as they would run alone."""
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
    or from one call per row when the stacked call raises.  The exception
    that a row's own call raises is the answer of that row alone: no
    kernel returns one."""
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

    Where both floors bind at ``T``, the time-split search starts next to
    a predicted slot (:func:`_predicted_slot`), else at ``T``; its first
    probe there ends it where the dual bound (:func:`_dual_bound`)
    certifies that probe (:func:`_outer_steps`).  Each inner allocation
    starts its multiplier search from the tangent prediction of the
    previous ``tau2`` probe's answer, or of the predicted slot's at the
    first probe (:func:`_warm_start`), and gives the slope of the demand
    for the outer Newton step.
    """

    def allocator(t2: float, prev: Optional[InnerResult]) -> tuple:
        res = inner_allocation(t2, chan, params, _warm_start(prev, t2, params))
        return res.gamma, res.slope, res

    kernel = _jacobian_kernel(chan, params.delta_f)
    first = _run(_predicted_slot(params, chan, links(chan, params.delta_f)), kernel)
    return solve_with_allocation(params, chan, allocator, first)


def _solve_batch(rows: list[SystemParams], chan: ChannelRealization) -> list:
    """:func:`solve` for rows that differ only in their floors, on one
    channel, in lockstep (:func:`_run_batch`): each row runs its slot
    prediction (:func:`_predicted_slot`) and then its time-split search,
    whose inner allocations run their multiplier searches themselves, each
    from the start that :func:`solve` takes (:func:`_warm_start`).  One
    stacked kernel call per round serves every row's next profile
    evaluation, for a prediction or a probe alike.  So the rows never wait
    for each other between probes.  Returns each row's ``Solution`` or the
    exception its solve raised, equal to what :func:`solve` returns or
    raises for that row alone."""
    pair = links(chan, rows[0].delta_f)

    def allocation(params: SystemParams, tau2: float, prev) -> Generator:
        res = yield from _inner_steps(tau2, pair, params, _warm_start(prev, tau2, params))
        return res.gamma, res.slope, res

    def search(params: SystemParams) -> Generator:
        first = yield from _predicted_slot(params, chan, pair)
        return (yield from _outer_steps(params, chan, allocation, first))

    searches = [search(params) for params in rows]
    return _run_batch(searches, _jacobian_kernel(chan, rows[0].delta_f))


def _validate_instance(params: SystemParams, chan: ChannelRealization) -> None:
    if chan.h.size != params.n_antennas:
        raise ValueError("channel vector length does not match n_antennas")
    if chan.n_subcarriers != params.n_subcarriers:
        raise ValueError("SNR vector length does not match n_subcarriers")
