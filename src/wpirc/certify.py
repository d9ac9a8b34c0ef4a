"""Optimality certificates, rank-one recovery, and a grid-search oracle.

The certificate machinery reconstructs the dual pair of the beamforming
subproblem in closed form and checks the stationarity, complementary
slackness and rank conditions that guarantee a rank-one covariance.  The
grid oracle returns the best point of a full grid over tiny instances
(searched row by row) and is the independent reference the solver is
validated against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    LN2,
    ChannelRealization,
    Solution,
    SolveStatus,
    SystemParams,
    harvest_rate,
)
from .solver import SolverError, _mrt_solution, _spread_slots, _validate_instance, links

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
# relative residual to which the certificate's harvest constraint must be tight
TIGHT_TOL = 1e-6
# the most negative eigenvalue rank_one_extract reads as rounding, relative
# to the leading one (absolute where that is not positive)
PSD_TOL = 1e-8


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
        and tight_residual <= TIGHT_TOL
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


def rank_one_extract(covariance_bar: np.ndarray, tau1: float) -> np.ndarray:
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
        if eigvals[0] < -PSD_TOL:
            raise ValueError("covariance is not positive semidefinite")
        return np.zeros(q.shape[0], dtype=complex)
    if eigvals[0] < -PSD_TOL * lam1:
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

    The least energy ``tau2 S(tau2)`` at which a common per-subcarrier
    power meets both rate floors at the time split ``tau2``, with ``S`` the
    total power, is nonincreasing in ``tau2``, and the splits where it fits
    the budget ``B (T - tau2)`` form an interval (both floors are
    perspectives) that ends at the equal-power slot ``B T / (S* + B)``,
    ``S*`` the larger of the two floors' least total powers with the budget
    binding.  So one pass of :func:`wpirc.solver._spread_slots`, its slot
    capped at ``T``, gives that slot, and a second pass over the (at most
    three) grid splits around it gives the cheapest budget-feasible
    equal-power point of the oracle's grid, which bounds the optimum, and
    so each gamma coordinate.  Returns ``inf`` when no equal-power point on
    the grid is feasible, a positive floor over an all-zero SNR vector
    included.
    """
    _validate_instance(params, chan)
    total_time = params.total_time
    tau2 = np.linspace(total_time / tau2_steps, total_time, tau2_steps)
    floors = np.array([[params.mi_floor], [params.rate_floor]])
    if not floors.any():
        return 0.0  # no demand, which fits at every split, a zero budget included
    pair, budget_rate = links(chan, params.delta_f), harvest_rate(params, chan)
    (least,) = np.maximum(*_spread_slots(pair, floors, budget_rate, total_time, total_time))
    if math.isnan(least):
        return math.inf
    last = int(np.searchsorted(tau2, budget_rate * total_time / (least + budget_rate)))
    # tau2[last - 1] < slot <= tau2[last]: the cheapest split that fits is
    # last - 1, or a neighbour where rounding decides the fit
    near = tau2[max(last - 2, 0) : last + 1]
    floors = np.repeat(floors, near.size, 1)
    demand = near * np.maximum(*_spread_slots(pair, floors, budget_rate, total_time, near))
    fits = demand <= budget_rate * (total_time - near)
    return float(np.min(demand[fits], initial=math.inf))


# the oracle holds at most this many (tau2, row) pairs at once, or one
# tau2 step's rows when there are more
ORACLE_BLOCK = 5000


@dataclass(frozen=True)
class OracleGrid:
    tau2_steps: int = 200
    gamma_steps: int = 200
    gamma_max: float | None = None  # joules, upper edge of every gamma axis; see gamma_edge

    def __post_init__(self) -> None:
        if self.tau2_steps < 1 or self.gamma_steps < 1:
            raise ValueError("tau2_steps and gamma_steps must be at least 1")
        if self.gamma_max is not None and not 0.0 <= self.gamma_max < math.inf:
            raise ValueError("gamma_max must be finite and nonnegative")

    def gamma_edge(self, params: SystemParams, chan: ChannelRealization) -> float:
        """The upper edge of the instance's gamma axes: ``gamma_max`` when set.

        Otherwise the equal-power demand bound on this grid's time steps,
        widened by 1e-9 relative: at N_c = 1 the bound is the exact demand,
        and the one grid point there can miss the floors by rounding.  Where
        no equal-power point is feasible, the most energy the budget can
        harvest.
        """
        if self.gamma_max is not None:
            return self.gamma_max
        edge = equal_power_demand_bound(params, chan, self.tau2_steps) * (1.0 + 1e-9)
        return edge if math.isfinite(edge) else harvest_rate(params, chan) * params.total_time


def _first_meeting(
    prefix: np.ndarray, last: np.ndarray, floor: float, guess: np.ndarray
) -> np.ndarray:
    """First ``k`` with ``prefix + last[:, k] >= floor`` in each row, else ``n``.

    ``prefix`` is ``(B, rows)`` and ``last`` the ``(B, n)`` table of the
    last gamma axis, nondecreasing along it, so the test is monotone in
    ``k``.  Probes at ``guess - 1`` and ``guess`` settle each row whose
    guess is right; a bisection settles the rest.
    """
    n = last.shape[1]
    row_start = n * np.arange(last.shape[0])[:, None]

    def narrow(lo, hi, probe):
        term = last.take(row_start + np.minimum(probe, n - 1))
        meets = (prefix + term >= floor) | (probe == n)
        return np.where(meets, lo, probe + 1), np.where(meets, probe, hi)

    lo, hi = narrow(np.zeros_like(guess), np.full_like(guess, n), np.maximum(guess - 1, 0))
    lo, hi = narrow(lo, hi, np.clip(guess, lo, hi))
    while (lo < hi).any():
        lo, hi = narrow(lo, hi, (lo + hi) // 2)
    return lo


def brute_force_oracle(
    params: SystemParams,
    chan: ChannelRealization,
    grid: OracleGrid,
) -> Solution:
    """Exact grid search over the time split and subcarrier energies.

    Returns the point of ``tau2_axis x g_axis ** N_c``, ``g_axis`` ending
    at :meth:`OracleGrid.gamma_edge`, with the least total energy that
    meets both floors and fits the harvest budget, ties going to the first
    in C order (earliest ``tau2``, then the gamma indices): bit for bit the
    point a dense search of every grid point returns.

    It visits rows, not points.  With the first ``N_c - 1`` gamma indices
    fixed, each floor's test ``fl(prefix + term[k]) >= floor`` is monotone
    in the last index ``k``, because the last subcarrier's term is
    nondecreasing along its axis and rounding is monotone; the energy
    ``fl(prefix_s + g[k])`` is nondecreasing too.  So a row's cheapest
    feasible point is the larger of the two floors' first meeting indices,
    if it fits the budget.  Each first index is guessed from the closed-form
    inverse of the last term and confirmed with the exact test.  An axis
    that is not nondecreasing raises :class:`SolverError`.

    It visits blocks of time steps from the largest ``tau2`` down, a lower
    block's point replacing the best on a tie, and stops once no lower step
    can hold a point as cheap as the best.  After each block, the rows are
    searched again at the block's lowest step ``t`` against each floor
    lowered by ``eta = 1e-9 (floor + N_c scale T)``; if the cheapest point
    meeting both lowered floors costs more than the best, the scan ends.
    So the cost is ``gamma_steps ** (N_c - 1)`` rows of a few probes each
    per time step visited: every step when no point is feasible, and one
    or two blocks when the optimal ``tau2`` lies near ``T``.

    Why the stop is exact.  Each exact term ``scale t log2(1 + g s / t)`` is
    nondecreasing in ``t``, since its derivative is ``scale (ln(1 + a) - a /
    (1 + a)) / ln 2 >= 0`` with ``a = g s / t``; so each exact floor value is
    too.  Each computed floor value lies within about ``eps (5 N_c scale T +
    9 floor)`` of its exact value, with ``eps = 2 ** -53``; the absolute part
    comes from ``fl(1 + g s / t)``.  ``eta`` is more than 10 ** 5 times
    twice that error.  So a point that meets a floor as computed at a lower
    step meets it, lowered by ``eta``, as computed at ``t``.  Every point
    costing at most the best misses a lowered floor at ``t``, and therefore
    misses the true floor at every lower step: ties are excluded too.
    """
    nc, n = params.n_subcarriers, grid.gamma_steps
    if nc > 3:
        raise ValueError("oracle limited to at most 3 subcarriers")
    _validate_instance(params, chan)
    if params.mi_floor == 0.0 and params.rate_floor == 0.0:
        return Solution.empty(SolveStatus.ZERO_DEMAND, params)
    floors = list(zip(links(chan, params.delta_f), (params.mi_floor, params.rate_floor)))
    # no energy meets a positive floor on a link with no positive SNR
    if any(floor > 0.0 and not link.snr.any() for link, floor in floors):
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    budget_rate = harvest_rate(params, chan)
    total_time = params.total_time
    g_max = grid.gamma_edge(params, chan)
    g_axis = np.linspace(0.0, g_max, grid.gamma_steps)
    tau2_axis = np.linspace(total_time / grid.tau2_steps, total_time, grid.tau2_steps)
    if not (np.diff(g_axis) >= 0.0).all():
        raise SolverError("oracle gamma axis is not nondecreasing")
    g_step = g_max / (n - 1) if n > 1 else 0.0

    def prefix(tables: list[np.ndarray]) -> np.ndarray:
        """Sum of the first N_c - 1 ``(B, n)`` tables over their C-order rows.

        Summed from 0 in subcarrier order, as the dense grid sums them.
        """
        total = np.zeros((tables[0].shape[0], 1))
        for table in tables[:-1]:
            total = (total[:, :, None] + table[:, None, :]).reshape(table.shape[0], -1)
        return total

    s_prefix = prefix([g_axis[None, :]] * nc)
    rows = s_prefix.shape[1]
    block = max(1, ORACLE_BLOCK // max(rows, n))

    lowered = [floor - 1e-9 * (floor + nc * link.scale * total_time) for link, floor in floors]

    def cheapest(t2, searched, goals):
        """Each row's first last-axis index meeting every goal (else ``n``)
        on the time steps ``t2``, and that point's energy (else inf).

        ``searched`` holds each link's prefix sums and last-axis table.
        """
        k = np.zeros((t2.shape[0], rows), dtype=np.intp)
        for (link, _), (p, last), goal in zip(floors, searched, goals):
            # an unreachable or free goal, a zero SNR or a one-point axis
            # give an infinite or NaN guess, which the clip turns into an end
            with np.errstate(all="ignore"):
                scale = link.scale * t2
                x = np.expm1((goal - p) * (LN2 / scale)) * t2 / (link.snr[-1] * g_step)
                guess = np.fmin(np.fmax(np.ceil(x), 0.0), n).astype(np.intp)
            k = np.maximum(k, _first_meeting(p, last, goal, guess))
        return k, np.where(k < n, s_prefix + g_axis[np.minimum(k, n - 1)], np.inf)

    best_s = np.inf
    best: tuple[float, np.ndarray] | None = None
    for start in reversed(range(0, grid.tau2_steps, block)):
        t2 = tau2_axis[start : start + block, None]
        searched = []
        for link, _ in floors:
            tables = [link.scale * t2 * np.log2(1.0 + g_axis * s / t2) for s in link.snr]
            if not (np.diff(tables[-1], axis=1) >= 0.0).all():
                raise SolverError("oracle rate term is not nondecreasing in gamma")
            searched.append((prefix(tables), tables[-1]))
        k, energy = cheapest(t2, searched, [floor for _, floor in floors])
        masked = np.where(energy <= budget_rate * (total_time - t2), energy, np.inf)
        flat = int(np.argmin(masked))
        if masked.flat[flat] < np.inf and masked.flat[flat] <= best_s:
            b, row = divmod(flat, rows)
            idx = np.unravel_index(row, (n,) * (nc - 1)) + (k.flat[flat],)
            best_s = float(masked.flat[flat])
            best = (float(tau2_axis[start + b]), g_axis[np.array(idx)])
        if best is not None:
            lowest = [(p[:1], last[:1]) for p, last in searched]
            if cheapest(t2[:1], lowest, lowered)[1].min() > best_s:
                break

    if best is None:
        return Solution.empty(SolveStatus.INFEASIBLE, params)

    # a positive floor needs positive energy, which a fitting point has only
    # where tau2 < T
    return _mrt_solution(params, chan, *best, best_s)
