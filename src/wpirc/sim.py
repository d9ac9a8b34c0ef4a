"""Random-instance generation and Monte-Carlo sweeps persisted as CSV.

Channel statistics follow the experiment setup: station-to-transmitter
gains are circularly-symmetric complex Gaussian with variance 0.2, and
the per-subcarrier SNR gains are squared magnitudes of unit-variance
complex Gaussians anchored to a nominal SNR in dB.
"""
from __future__ import annotations

import csv
import logging
import math
import operator
from dataclasses import dataclass, fields, replace

import numpy as np

from .benchmark import _eq_solve_batch
# bound here so that the layer trace (bench/layertrace.py) finds the sweep's
# solvers under their names; the sweep solves through the batches below
from .benchmark import eq_solve  # noqa: F401
from .model import ChannelRealization, Solution, SolveStatus, SystemParams, _perspective_bits
# bound here because the bench self-tests read them from this module; the
# CSV's achieved bits come from _achieved_bits
from .model import comm_rate, radar_mi  # noqa: F401
from .solver import _solve_batch
from .solver import solve  # noqa: F401

__all__ = ["SweepConfig", "SweepRow", "sample_channel", "run_sweep", "write_csv"]

logger = logging.getLogger(__name__)

H_VARIANCE = 0.2  # per-entry variance of the station-to-transmitter gains


@dataclass(frozen=True)
class SweepConfig:
    base: SystemParams
    radar_snr_db: float
    comm_snr_db: float
    sweep_variable: str  # "mi_floor" | "rate_floor"
    sweep_values: tuple[float, ...]
    trials: int
    master_seed: int
    schemes: tuple[str, ...] = ("op", "eq")
    normalization: str = "empirical"  # or "ensemble"

    def __post_init__(self) -> None:
        if self.sweep_variable not in ("mi_floor", "rate_floor"):
            raise ValueError("sweep_variable must be 'mi_floor' or 'rate_floor'")
        values = tuple(float(v) for v in self.sweep_values)
        if not values or any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("sweep_values must be nonempty and strictly increasing")
        object.__setattr__(self, "sweep_values", values)
        self.row_params()  # SystemParams rejects a floor that is negative or not finite
        n = self.base.n_subcarriers  # no gain exceeds N_c under empirical normalization
        for snr_db in (self.radar_snr_db, self.comm_snr_db):
            if not math.isfinite(_linear_snr(snr_db) * n):
                raise ValueError(f"SNR of {snr_db} dB has no finite value on {n} subcarriers")
        for name in ("trials", "master_seed"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        schemes = tuple(self.schemes)
        known = all(s in ("op", "eq") for s in schemes)
        if not schemes or not known or len(set(schemes)) < len(schemes):
            raise ValueError("schemes must be a nonempty subset of {'op', 'eq'}")
        object.__setattr__(self, "schemes", schemes)
        if self.normalization not in ("empirical", "ensemble"):
            raise ValueError("normalization must be 'empirical' or 'ensemble'")

    def row_params(self) -> list[SystemParams]:
        """The system parameters of each sweep value, in order."""
        return [replace(self.base, **{self.sweep_variable: v}) for v in self.sweep_values]


@dataclass(frozen=True)
class SweepRow:
    scheme: str
    sweep_value: float
    trial: int
    seed: int
    status: str
    energy: float
    tau1: float
    tau2: float
    achieved_mi: float
    achieved_rate: float


CSV_COLUMNS = tuple(f.name for f in fields(SweepRow))


def _linear_snr(snr_db: float) -> float:
    """``10^(snr_db / 10)``; ``ValueError`` where ``snr_db`` is not finite
    or the linear value overflows."""
    if math.isfinite(snr_db):
        try:
            return 10.0 ** (snr_db / 10.0)
        except OverflowError:
            pass
    raise ValueError(f"SNR of {snr_db} dB has no finite linear value")


def sample_channel(
    seed: int,
    params: SystemParams,
    radar_snr_db: float,
    comm_snr_db: float,
    normalization: str = "empirical",
) -> ChannelRealization:
    """Draw one channel realization, deterministically in ``seed``.

    With ``empirical`` normalization the per-realization mean of each SNR
    vector equals the nominal linear SNR exactly; ``ensemble`` scales the
    raw unit-variance gains instead, so only the ensemble average matches.
    Any other ``normalization``, or an SNR in dB that is not finite or
    that overflows on some subcarrier, raises ``ValueError``.
    """
    if normalization not in ("empirical", "ensemble"):
        raise ValueError("normalization must be 'empirical' or 'ensemble'")
    radar_linear, comm_linear = _linear_snr(radar_snr_db), _linear_snr(comm_snr_db)
    rng = np.random.default_rng(seed)
    nt, nc = params.n_antennas, params.n_subcarriers
    h = np.sqrt(H_VARIANCE / 2.0) * (rng.standard_normal(nt) + 1j * rng.standard_normal(nt))
    g_radar = (rng.standard_normal(nc) + 1j * rng.standard_normal(nc)) / np.sqrt(2.0)
    g_comm = (rng.standard_normal(nc) + 1j * rng.standard_normal(nc)) / np.sqrt(2.0)

    def snr_vector(gains: np.ndarray, linear: float) -> np.ndarray:
        power = np.abs(gains) ** 2
        if normalization == "empirical":
            power = power / np.mean(power)
        return linear * power

    # an overflow reads inf, which ChannelRealization rejects
    with np.errstate(over="ignore"):
        radar_snr, comm_snr = snr_vector(g_radar, radar_linear), snr_vector(g_comm, comm_linear)
    return ChannelRealization(h=h, radar_snr=radar_snr, comm_snr=comm_snr)


def trial_seed(master_seed: int, trial: int) -> int:
    """Derive a per-trial seed by a splittable hash of (master_seed, trial)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
    return int(ss.generate_state(1, np.uint64)[0])


def _solve_rows(config: SweepConfig, trial: int) -> list[SweepRow]:
    """One trial's rows: each scheme solves all sweep values as one batch."""
    seed = trial_seed(config.master_seed, trial)
    batch = config.row_params()
    try:
        chan = sample_channel(
            seed, config.base, config.radar_snr_db, config.comm_snr_db, config.normalization
        )
    except ValueError as exc:  # a channel that cannot be drawn fails every row
        logger.error("trial %d (seed %d) has no channel: %s", trial, seed, exc, exc_info=exc)
        solved = {scheme: [None] * len(batch) for scheme in config.schemes}
    else:
        solved = {
            scheme: (_solve_batch if scheme == "op" else _eq_solve_batch)(batch, chan)
            for scheme in config.schemes
        }
        delta_f = config.base.delta_f
        achieved = {scheme: _achieved_bits(sols, chan, delta_f) for scheme, sols in solved.items()}
    rows = []
    for i, value in enumerate(config.sweep_values):
        for scheme in config.schemes:
            sol = solved[scheme][i]
            if isinstance(sol, Exception):
                # the row keeps the CSV contract; the cause goes to the log
                logger.error(
                    "%s solve failed (trial %d, seed %d, %s=%g): %s",
                    scheme, trial, seed, config.sweep_variable, value, sol,
                    exc_info=sol,
                )
            if isinstance(sol, Solution):
                status = sol.status.value
                energy, tau1, tau2 = sol.energy, sol.tau1, sol.tau2
                mi, rate = achieved[scheme][i]
            else:
                status = SolveStatus.ERROR.value
                energy = tau1 = tau2 = mi = rate = float("nan")
            rows.append(
                SweepRow(
                    scheme=scheme,
                    sweep_value=value,
                    trial=trial,
                    seed=seed,
                    status=status,
                    energy=energy,
                    tau1=tau1,
                    tau2=tau2,
                    achieved_mi=mi,
                    achieved_rate=rate,
                )
            )
    return rows


def _achieved_bits(sols: list, chan: ChannelRealization, delta_f: float) -> list:
    """The sensing MI and data rate of each solution of one trial's batch,
    as :func:`wpirc.model.radar_mi` and :func:`wpirc.model.comm_rate` give
    them, from one ``(k, N_c)`` pass per link: one ``(mi, rate)`` per row,
    NaN where the row failed."""
    solved = [sol if isinstance(sol, Solution) else None for sol in sols]
    gamma = np.array([np.zeros(chan.n_subcarriers) if s is None else s.gamma for s in solved])
    tau2 = np.array([math.nan if s is None else s.tau2 for s in solved])
    mi = _perspective_bits(gamma, chan.radar_snr, tau2, 0.5 * delta_f)
    rate = _perspective_bits(gamma, chan.comm_snr, tau2, delta_f)
    return list(zip(mi.tolist(), rate.tolist()))


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Run every (sweep value, trial, scheme) combination.

    One channel is drawn per trial and shared across schemes and sweep
    values, so comparisons along either axis are paired.  Rows come back
    in canonical (sweep_value, trial, scheme) order.
    """
    rows = [row for t in range(config.trials) for row in _solve_rows(config, t)]
    rows.sort(key=lambda r: (r.sweep_value, r.trial, r.scheme))
    return rows


def _fmt(x: float) -> str:
    return format(x, ".12g")


def write_csv(rows: list[SweepRow], path) -> None:
    """Write rows with a header, 12 significant digits per float field."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in rows:
                values = (getattr(r, name) for name in CSV_COLUMNS)
                writer.writerow([_fmt(v) if isinstance(v, float) else v for v in values])
    except OSError as exc:
        raise OSError(f"failed to write sweep CSV to {path}: {exc}") from exc
