"""Optimality certificates, rank-one recovery, and a grid-search oracle.

The certificate machinery reconstructs the dual pair of the beamforming
subproblem in closed form and checks the stationarity, complementary
slackness and rank conditions that guarantee a rank-one covariance.  The
grid oracle exhaustively searches tiny instances and is the independent
reference the solver is validated against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelRealization,
    Solution,
    SolveStatus,
    SystemParams,
    comm_rate,
    radar_mi,
)
from .solver import mrt_covariance

__all__ = [
    "Certificate",
    "OracleGrid",
    "kkt_certificate",
    "rank_one_extract",
    "brute_force_oracle",
    "equal_power_demand_bound",
]

# Y's eigenvalues are exactly 0 and 1, so rank counts those above this
# absolute level (a relative one counts rounding noise when N_t = 1).
RANK_EIG_THRESHOLD = 1e-9


@dataclass
class Certificate:
    """Dual variables and residuals certifying a beamforming solution."""

    mu: float
    rho: float
    y_matrix: np.ndarray
    complementary_residual: float
    rank_y: int
    rank_one_ratio: float
    feasibility_residuals: dict[str, float]
    valid: bool


def kkt_certificate(
    params: SystemParams,
    chan: ChannelRealization,
    sol: Solution,
    tol: float = 1e-6,
) -> Certificate:
    """Build and check the closed-form dual certificate of a solution.

    The dual of the harvest constraint is ``mu = 1 / ||h||^2``; the matrix
    dual ``Y = I - mu h h^H`` must annihilate the covariance, be positive
    semidefinite, and have rank exactly ``N_t - 1``.  The harvest
    constraint itself must hold with equality.
    """
    if sol.status is not SolveStatus.OPTIMAL:
        raise ValueError("certificates are only defined for optimal solutions")

    h = chan.h
    nt = h.size
    hn2 = float(np.real(np.vdot(h, h)))
    if hn2 == 0.0:
        raise ValueError("zero channel admits no optimal solution")

    mu = 1.0 / hn2
    y = np.eye(nt) - mu * np.outer(h, h.conj())
    q = sol.covariance_bar
    trace = float(np.trace(q).real)
    demand = float(np.sum(sol.gamma))
    rho = demand / params.efficiency if params.efficiency > 0 else np.inf

    comp = float(np.linalg.norm(y @ q))

    eig_y = np.linalg.eigvalsh(y)
    rank_y = int(np.sum(eig_y > RANK_EIG_THRESHOLD))
    y_psd_residual = float(max(0.0, -eig_y[0]))

    eig_q = np.linalg.eigvalsh(q)
    lam1 = float(eig_q[-1])
    q_psd_residual = float(max(0.0, -eig_q[0]))
    rank_one_ratio = abs(float(eig_q[-2])) / lam1 if nt > 1 and lam1 > 0 else 0.0

    harvest = params.efficiency * float(np.real(np.trace(np.outer(h, h.conj()) @ q)))
    tight_residual = abs(harvest - demand) / max(1e-300, demand) if demand > 0 else abs(harvest)

    residuals = {
        "harvest_tight": tight_residual,
        "y_psd": y_psd_residual,
        "q_psd": q_psd_residual,
    }
    valid = (
        abs(mu * hn2 - 1.0) <= 1e-8
        and rank_y == nt - 1
        and comp <= 1e-6 * max(trace, 1e-300)
        and rank_one_ratio <= 1e-8
        and tight_residual <= tol
        and y_psd_residual <= 1e-10
        and q_psd_residual <= 1e-9 * max(lam1, 1e-300)
    )
    return Certificate(
        mu=mu,
        rho=rho,
        y_matrix=y,
        complementary_residual=comp,
        rank_y=rank_y,
        rank_one_ratio=rank_one_ratio,
        feasibility_residuals=residuals,
        valid=valid,
    )


def rank_one_extract(
    covariance_bar: np.ndarray, tau1: float, psd_tol: float = 1e-8
) -> np.ndarray:
    """Recover the beamforming vector from a (near) rank-one covariance.

    Returns ``sqrt(lam1 / tau1) * u1`` for the leading eigenpair, with the
    global phase fixed so the first nonvanishing component is real and
    nonnegative.
    """
    q = np.asarray(covariance_bar, dtype=complex)
    if tau1 <= 0:
        raise ValueError("tau1 must be positive")
    if not np.allclose(q, q.conj().T, atol=1e-12 * max(1.0, np.abs(q).max(initial=0.0))):
        raise ValueError("covariance must be Hermitian")
    eigvals, eigvecs = np.linalg.eigh(q)
    lam1 = float(eigvals[-1])
    if lam1 <= 0.0:
        if eigvals[0] < -psd_tol:
            raise ValueError("covariance is not positive semidefinite")
        return np.zeros(q.shape[0], dtype=complex)
    if eigvals[0] < -psd_tol * lam1:
        raise ValueError("covariance is not positive semidefinite")
    u = eigvecs[:, -1]
    idx = np.flatnonzero(np.abs(u) > 1e-12)
    if idx.size:
        u = u * (np.conj(u[idx[0]]) / np.abs(u[idx[0]]))
    return np.sqrt(lam1 / tau1) * u


def equal_power_demand_bound(
    params: SystemParams, chan: ChannelRealization, tau2_steps: int = 200
) -> float:
    """Upper bound on the optimal total transmit-phase energy.

    For every time split on the oracle's grid, bisect the common
    per-subcarrier energy meeting both rate floors and keep the cheapest
    budget-feasible equal-power point.  Any optimal allocation does at
    least as well, so this bounds each gamma coordinate; it is the
    natural ``gamma_max`` for :func:`brute_force_oracle`.  Returns
    ``inf`` when no equal-power point is feasible.
    """
    nc = params.n_subcarriers
    hn2 = float(np.real(np.vdot(chan.h, chan.h)))
    budget_rate = params.efficiency * hn2 * params.power_cap
    total_time = params.total_time

    def common_gamma(tau2: float) -> float:
        def ok(g: float) -> bool:
            gv = np.full(nc, g)
            return (
                radar_mi(gv, chan.radar_snr, tau2, params.delta_f) >= params.mi_floor
                and comm_rate(gv, chan.comm_snr, tau2, params.delta_f) >= params.rate_floor
            )

        hi = tau2
        for _ in range(200):
            if ok(hi):
                break
            hi *= 2.0
        else:
            return np.inf
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        return hi

    best = np.inf
    for tau2 in np.linspace(total_time / tau2_steps, total_time, tau2_steps):
        demand = nc * common_gamma(tau2)
        if demand <= budget_rate * (total_time - tau2):
            best = min(best, demand)
    return best


@dataclass(frozen=True)
class OracleGrid:
    tau2_steps: int = 200
    gamma_steps: int = 200
    gamma_max: float = 1.0  # joules, upper edge of every gamma axis


def brute_force_oracle(
    params: SystemParams,
    chan: ChannelRealization,
    grid: OracleGrid,
) -> Solution:
    """Exhaustive grid search over the time split and subcarrier energies.

    Only intended for tiny instances: the cost grows as
    ``gamma_steps ** n_subcarriers * tau2_steps``.
    """
    nc = params.n_subcarriers
    if nc > 3:
        raise ValueError("oracle limited to at most 3 subcarriers")
    if chan.n_subcarriers != nc or chan.h.size != params.n_antennas:
        raise ValueError("channel does not match params")
    if params.mi_floor == 0.0 and params.rate_floor == 0.0:
        return Solution.empty(SolveStatus.ZERO_DEMAND, params)

    hn2 = float(np.real(np.vdot(chan.h, chan.h)))
    budget_rate = params.efficiency * hn2 * params.power_cap
    total_time = params.total_time
    g_axis = np.linspace(0.0, grid.gamma_max, grid.gamma_steps)
    tau2_axis = np.linspace(total_time / grid.tau2_steps, total_time, grid.tau2_steps)

    def spread(vec: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * nc
        shape[axis] = -1
        return vec.reshape(shape)

    s_grid = sum(spread(g_axis, i) for i in range(nc))

    best_s = np.inf
    best: tuple[float, np.ndarray] | None = None
    for t2 in tau2_axis:
        half = 0.5 * params.delta_f * t2
        mi = sum(
            spread(half * np.log2(1.0 + g_axis * chan.radar_snr[i] / t2), i)
            for i in range(nc)
        )
        rate = sum(
            spread(2.0 * half * np.log2(1.0 + g_axis * chan.comm_snr[i] / t2), i)
            for i in range(nc)
        )
        feasible = (
            (mi >= params.mi_floor)
            & (rate >= params.rate_floor)
            & (s_grid <= budget_rate * (total_time - t2))
        )
        if not feasible.any():
            continue
        masked = np.where(feasible, s_grid, np.inf)
        idx = np.unravel_index(np.argmin(masked), masked.shape)
        if masked[idx] < best_s:
            best_s = float(masked[idx])
            best = (float(t2), g_axis[np.array(idx)])

    if best is None:
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    tau2, gamma = best
    tau1 = total_time - tau2
    q_bar, trace = mrt_covariance(chan.h, best_s, params.efficiency)
    beam = rank_one_extract(q_bar, tau1) if tau1 > 0 else np.zeros_like(chan.h)
    return Solution(
        status=SolveStatus.OPTIMAL,
        beam_vector=beam,
        tau1=tau1,
        tau2=tau2,
        gamma=np.asarray(gamma, dtype=float),
        energy=trace,
        covariance_bar=q_bar,
    )
