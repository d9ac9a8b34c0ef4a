"""Domain types and closed-form evaluators for the harvest-then-transmit link.

Everything in this module is a pure function of its (immutable) inputs:
harvested energy at the transmitter, radar mutual information and
communication rate of the OFDM waveform, and constraint bookkeeping.  A
channel holds read-only copies of its arrays.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

LN2 = float(np.log(2.0))

__all__ = [
    "SolveStatus",
    "SystemParams",
    "ChannelRealization",
    "Solution",
    "ConstraintRecord",
    "FeasibilityReport",
    "harvested_energy",
    "harvest_rate",
    "radar_mi",
    "comm_rate",
    "check_constraints",
]


class SolveStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ZERO_DEMAND = "zero_demand"
    ERROR = "error"


@dataclass(frozen=True)
class SystemParams:
    """Static scenario constants.

    Units: ``delta_f`` Hz, ``symbol_duration``/``total_time`` seconds,
    ``power_cap`` watts, ``mi_floor``/``rate_floor`` bits, ``efficiency``
    dimensionless in [0, 1].
    """

    n_subcarriers: int
    n_antennas: int
    delta_f: float
    symbol_duration: float
    total_time: float
    power_cap: float
    efficiency: float
    mi_floor: float = 0.0
    rate_floor: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_subcarriers", "n_antennas"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, not {value!r}") from None
        if self.n_subcarriers < 1 or self.n_antennas < 1:
            raise ValueError("n_subcarriers and n_antennas must be positive")
        for name in ("delta_f", "symbol_duration", "total_time", "power_cap"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        if not (0 <= self.mi_floor < math.inf and 0 <= self.rate_floor < math.inf):
            raise ValueError("rate floors must be nonnegative and finite")
        if self.symbol_duration > self.total_time:
            raise ValueError("symbol_duration must not exceed total_time")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One random draw: station-to-transmitter gains plus per-subcarrier SNRs.

    ``h`` is the complex channel vector seen by the energy beamformer;
    ``radar_snr`` and ``comm_snr`` are the effective per-subcarrier SNR
    gains of the sensing and data links (everything that multiplies the
    per-subcarrier power inside the two log terms).

    The fields are read-only copies of the given arrays, and a channel is
    equal only to itself and hashed by identity, so the solver can keep the
    tables of the most recent channel for every entry point
    (:func:`wpirc.solver.links`).
    """

    h: np.ndarray
    radar_snr: np.ndarray
    comm_snr: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("h", complex), ("radar_snr", float), ("comm_snr", float)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.h.ndim != 1 or self.radar_snr.ndim != 1 or self.comm_snr.ndim != 1:
            raise ValueError("channel fields must be one-dimensional")
        if self.radar_snr.shape != self.comm_snr.shape:
            raise ValueError("radar_snr and comm_snr must have equal length")
        if np.any(self.radar_snr < 0) or np.any(self.comm_snr < 0):
            raise ValueError("SNR vectors must be elementwise nonnegative")
        if not all(np.isfinite(x).all() for x in (self.h, self.radar_snr, self.comm_snr)):
            raise ValueError("channel fields must be finite")

    @property
    def n_subcarriers(self) -> int:
        return self.radar_snr.size


@dataclass
class Solution:
    """A complete allocation returned by a solver.

    ``gamma`` holds per-subcarrier energies (joules, already multiplied by
    the transmit slot), ``covariance_bar`` the time-scaled beamforming
    covariance whose trace is the station's transmission energy.
    """

    status: SolveStatus
    beam_vector: np.ndarray
    tau1: float
    tau2: float
    gamma: np.ndarray
    energy: float
    covariance_bar: np.ndarray

    @classmethod
    def empty(cls, status: SolveStatus, params: "SystemParams") -> "Solution":
        nt, nc = params.n_antennas, params.n_subcarriers
        return cls(
            status=status,
            beam_vector=np.zeros(nt, dtype=complex),
            tau1=0.0,
            tau2=params.total_time if status is SolveStatus.ZERO_DEMAND else 0.0,
            gamma=np.zeros(nc),
            energy=0.0,
            covariance_bar=np.zeros((nt, nt), dtype=complex),
        )


@dataclass(frozen=True)
class ConstraintRecord:
    name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool


@dataclass(frozen=True)
class FeasibilityReport:
    records: tuple[ConstraintRecord, ...]
    tolerance: float

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)

    def __getitem__(self, name: str) -> ConstraintRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def harvested_energy(h: np.ndarray, w: np.ndarray, tau1: float, eta: float) -> float:
    """Energy collected during a harvesting slot of length ``tau1``.

    Equals ``eta * tau1 * |h^H w|^2`` for channel ``h`` and beamforming
    vector ``w``.
    """
    h = np.asarray(h, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if h.shape != w.shape:
        raise ValueError("h and w must have the same length")
    if tau1 < 0:
        raise ValueError("tau1 must be nonnegative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return float(eta * tau1 * np.abs(np.vdot(h, w)) ** 2)


def harvest_rate(params: SystemParams, chan: ChannelRealization) -> float:
    """Energy harvested per second of the harvesting slot at full power
    on the maximum-ratio beam: ``B = eta ||h||^2 P``."""
    hn2 = float(np.real(np.vdot(chan.h, chan.h)))
    return params.efficiency * hn2 * params.power_cap


def _checked_rate_inputs(gamma, snr, tau2):
    gamma = np.asarray(gamma, dtype=float)
    snr = np.asarray(snr, dtype=float)
    if gamma.shape != snr.shape:
        raise ValueError("gamma and SNR vector must have equal length")
    if np.any(gamma < 0) or np.any(snr < 0) or tau2 < 0:
        raise ValueError("gamma, SNR and tau2 must be nonnegative")
    return gamma, snr


def radar_mi(gamma, radar_snr, tau2: float, delta_f: float) -> float:
    """Conditional mutual information of the sensing link, in bits.

    The perspective form ``(delta_f * tau2 / 2) * sum log2(1 + gamma_m *
    v_m / tau2)``: the :func:`comm_rate` of half the bandwidth.
    """
    return comm_rate(gamma, radar_snr, tau2, 0.5 * delta_f)


def comm_rate(gamma, comm_snr, tau2: float, delta_f: float) -> float:
    """Total data rate of the communication link, in bits.

    The perspective form ``delta_f * tau2 * sum log2(1 + gamma_m * w_m /
    tau2)``; the ``tau2 -> 0`` limit is defined as 0.
    """
    gamma, snr = _checked_rate_inputs(gamma, comm_snr, tau2)
    return float(_perspective_bits(gamma, snr, tau2, delta_f))


def _perspective_bits(gamma, snr, tau2, delta_f: float):
    """``delta_f * tau2 * sum log2(1 + gamma * snr / tau2)`` over the last
    axis of ``gamma``, unchecked, with ``tau2`` one value or one per row of
    ``gamma``; 0 where ``tau2`` is 0, the limit.  Each row is summed as it
    would be alone."""
    tau2 = np.asarray(tau2, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        bits = delta_f * tau2 * np.sum(np.log2(1.0 + gamma * snr / tau2[..., None]), axis=-1)
    return np.where(tau2 == 0.0, 0.0, bits)


def check_constraints(
    params: SystemParams,
    chan: ChannelRealization,
    sol: Solution,
    tol: float = 1e-6,
) -> FeasibilityReport:
    """Evaluate the six allocation constraints against a candidate solution.

    Slacks are signed so that nonnegative means satisfied; a constraint is
    flagged satisfied when ``slack >= -tol * max(1, |rhs|)``.
    """
    if sol.gamma.size != chan.n_subcarriers:
        raise ValueError("gamma length does not match channel")
    if sol.beam_vector.size != chan.h.size:
        raise ValueError("beam_vector length does not match channel")

    mi = radar_mi(sol.gamma, chan.radar_snr, sol.tau2, params.delta_f)
    rate = comm_rate(sol.gamma, chan.comm_snr, sol.tau2, params.delta_f)
    harvested = harvested_energy(chan.h, sol.beam_vector, sol.tau1, params.efficiency)
    demand = float(np.sum(sol.gamma))
    trace = float(np.trace(sol.covariance_bar).real)

    entries = [
        ("mi_floor", mi, params.mi_floor, mi - params.mi_floor),
        ("rate_floor", rate, params.rate_floor, rate - params.rate_floor),
        ("energy_causality", demand, harvested, harvested - demand),
        ("power_budget", trace, sol.tau1 * params.power_cap, sol.tau1 * params.power_cap - trace),
        (
            "time_budget",
            sol.tau1 + sol.tau2,
            params.total_time,
            min(params.total_time - sol.tau1 - sol.tau2, sol.tau1, sol.tau2),
        ),
        ("nonnegativity", float(np.min(sol.gamma)), 0.0, float(np.min(sol.gamma))),
    ]
    records = tuple(
        ConstraintRecord(
            name=name,
            lhs=lhs,
            rhs=rhs,
            slack=slack,
            satisfied=slack >= -tol * max(1.0, abs(rhs)),
        )
        for name, lhs, rhs, slack in entries
    )
    return FeasibilityReport(records=records, tolerance=tol)

