"""Minimum-energy resource allocation for a wireless-powered OFDM
radar-communication link: joint energy beamforming, harvest/transmit time
split, and per-subcarrier waveform energies, with runtime optimality
certificates and a Monte-Carlo sweep harness."""

from .model import (
    ChannelRealization,
    FeasibilityReport,
    Solution,
    SolveStatus,
    SystemParams,
    check_constraints,
    comm_rate,
    harvested_energy,
    radar_mi,
)
from .solver import (
    DualPair,
    InnerResult,
    SolverError,
    inner_allocation,
    mrt_covariance,
    solve,
    subcarrier_gamma,
)
from .certify import (
    Certificate,
    OracleGrid,
    brute_force_oracle,
    equal_power_demand_bound,
    kkt_certificate,
    rank_one_extract,
)
from .benchmark import eq_solve, feasibility_frontier
from .sim import SweepConfig, SweepRow, run_sweep, sample_channel, write_csv

__version__ = "0.1.0"
