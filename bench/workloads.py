"""The benchmark's four workloads: inputs, the timed op, and its check.

Every workload draws its instances from a fixed pool, so that each one has
a reference output recorded in ``reference.json``.  A pool holds about as
many instances as one 20-second run completes, so every run sees nearly the
same work and run-to-run spread is the machine's, not the sample's.  The
workload seed picks the order in which the pool is visited; a run cycles
through that order until its time is up.  The order is stratified by each
instance's recorded cost, so that a run that ends partway through the pool
still meets cheap and expensive instances in the pool's proportions.  All instances use paper units
(delta_f = 250 kHz, T = 100 us, P = 50 W, eta = 0.5).

wpirc is called only through the entry points a user calls, looked up by
attribute at call time so that the traced run's wrappers see every call:
``wpirc.cli.main`` for ``sweep`` and ``oracle-check``, and ``wpirc.solve``,
``wpirc.eq_solve`` and ``wpirc.feasibility_frontier`` for the library
workloads.  Checks run outside the timed region.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import time
from pathlib import Path

import numpy as np
import yaml

import wpirc
import wpirc.cli
import wpirc.sim

PAPER_UNITS = {
    "delta_f": 2.5e5,
    "symbol_duration": 5e-6,
    "total_time": 1e-4,
    "power_cap": 50.0,
    "efficiency": 0.5,
}
ENERGY_RTOL = 1e-6  # relative energy tolerance of the acceptance suite
CONSTRAINT_TOL = 1e-6  # check_constraints tolerance of the acceptance suite
FRONTIER_TOL = 0.2  # bits; criterion 5 allows twice the 0.1-bit bisection step
STRATA = 8  # cost strata of the visiting order; every pool size is a multiple


def paper_params(**scenario) -> wpirc.SystemParams:
    return wpirc.SystemParams(**PAPER_UNITS, **scenario)


def rel_close(a: float, b: float, rtol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Workload:
    """One benchmark workload.

    ``run(i)`` performs the op on pool instance ``i`` and returns its output
    together with the wall time of each timed user call.  ``summary`` turns
    an output into the JSON entry stored in the reference, and ``check``
    compares an output with that entry, returning one string per problem.
    """

    name: str
    pool_size: int
    call_names: tuple[str, ...]  # names of the timed calls in one op

    def __init__(self, workdir: Path, reference: list | None = None, cost_ms: list | None = None):
        self.workdir = workdir
        self.reference = reference  # recorded output summaries, by pool index
        self.cost_ms = cost_ms  # recorded op time of each instance

    def order(self, seed: int) -> list[int]:
        """The seed's visiting order: rounds of one instance per cost stratum."""
        rng = np.random.default_rng(seed)
        ranked = np.argsort(self.cost_ms, kind="stable")
        strata = [rng.permutation(s) for s in np.array_split(ranked, STRATA)]
        return [int(i) for rnd in zip(*strata) for i in rng.permutation(rnd)]

    def prepare(self) -> None:
        """Generate the inputs of every pool instance."""

    def run(self, i: int) -> tuple[object, dict[str, float]]:
        raise NotImplementedError

    def items(self, output) -> int:
        """Work items the op finished, for ``items_per_s``."""
        return 1

    def summary(self, output):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        raise NotImplementedError


def _cli(argv: list[str]) -> tuple[int, str, float]:
    """Run the CLI in-process with stdout captured; time only the call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        code = wpirc.cli.main(argv)
        dt = time.perf_counter() - t0
    return code, buf.getvalue(), dt


class SweepN128(Workload):
    """``wpirc sweep`` in the criterion-4 shape, one trial per op, op + eq."""

    name = "sweep-n128"
    pool_size = 24  # master seeds 0..23, one trial each
    call_names = ("sweep",)
    SCENARIO = {
        "n_subcarriers": 128,
        "n_antennas": 5,
        "mi_floor": 0.0,
        "rate_floor": 150.0,
        "radar_snr_db": 10.0,
        "comm_snr_db": 10.0,
        "sweep_variable": "mi_floor",
        "sweep_values": [float(v) for v in np.linspace(30.0, 250.0, 10)],
        "schemes": ["op", "eq"],
        "trials": 1,
    }

    def prepare(self) -> None:
        self.config = self.workdir / "sweep.yaml"
        self.config.write_text(yaml.safe_dump({**PAPER_UNITS, **self.SCENARIO}))
        self.out = self.workdir / "sweep.csv"

    def run(self, i):
        argv = ["sweep", "--config", str(self.config), "--seed", str(i), "--out", str(self.out)]
        code, _, dt = _cli(argv)
        rows = []
        if code == 0:
            with open(self.out, newline="") as fh:
                rows = list(csv.DictReader(fh))
        return (code, rows), {"sweep": dt}

    def items(self, output) -> int:
        return len(output[1])

    def summary(self, output):
        code, rows = output
        return {
            "exit": code,
            "rows": [[r["scheme"], r["sweep_value"], r["status"], float(r["energy"])] for r in rows],
        }

    def check(self, i, output):
        code, rows = output
        ref = self.reference[i]
        if code != 0 or code != ref["exit"]:
            return [f"exit code {code}, reference {ref['exit']}"]
        if len(rows) != len(ref["rows"]):
            return [f"{len(rows)} rows, reference {len(ref['rows'])}"]
        problems = []
        total_time = PAPER_UNITS["total_time"]
        floor_rate = self.SCENARIO["rate_floor"]
        for row, (scheme, value, status, energy) in zip(rows, ref["rows"]):
            key = f"{row['scheme']}@{row['sweep_value']}"
            if (row["scheme"], row["sweep_value"]) != (scheme, value):
                problems.append(f"row order: got {key}, reference {scheme}@{value}")
                continue
            if row["status"] != status:
                problems.append(f"{key}: status {row['status']}, reference {status}")
                continue
            if not rel_close(float(row["energy"]), energy, ENERGY_RTOL):
                problems.append(f"{key}: energy {row['energy']}, reference {energy!r}")
            if status == "optimal":
                # the CSV-level part of check_constraints: both floors met and
                # the time budget closed
                floor_mi = float(value)
                mi, rate = float(row["achieved_mi"]), float(row["achieved_rate"])
                tau1, tau2 = float(row["tau1"]), float(row["tau2"])
                if mi < floor_mi - CONSTRAINT_TOL * max(1.0, floor_mi):
                    problems.append(f"{key}: MI {mi} below floor {floor_mi}")
                if rate < floor_rate - CONSTRAINT_TOL * max(1.0, floor_rate):
                    problems.append(f"{key}: rate {rate} below floor {floor_rate}")
                if min(tau1, tau2) < 0 or abs(tau1 + tau2 - total_time) > CONSTRAINT_TOL * total_time:
                    problems.append(f"{key}: time split {tau1} + {tau2} breaks the budget")
        return problems


class SolveN1024(Workload):
    """``solve`` then ``eq_solve`` on one large instance."""

    name = "solve-n1024"
    pool_size = 96  # channel seeds 0..95
    call_names = ("solve", "eq_solve")
    SNR_DB = (10.0, 10.0)

    def prepare(self) -> None:
        self.params = paper_params(
            n_subcarriers=1024, n_antennas=5, mi_floor=960.0, rate_floor=1200.0
        )
        self.channels = [
            wpirc.sim.sample_channel(i, self.params, *self.SNR_DB) for i in range(self.pool_size)
        ]

    def run(self, i):
        chan = self.channels[i]
        t0 = time.perf_counter()
        op = wpirc.solve(self.params, chan)
        t1 = time.perf_counter()
        eq = wpirc.eq_solve(self.params, chan)
        t2 = time.perf_counter()
        return (op, eq), {"solve": t1 - t0, "eq_solve": t2 - t1}

    def summary(self, output):
        return [[sol.status.value, sol.energy] for sol in output]

    def check(self, i, output):
        problems = []
        chan = self.channels[i]
        for name, sol, (status, energy) in zip(self.call_names, output, self.reference[i]):
            if sol.status.value != status:
                problems.append(f"{name}: status {sol.status.value}, reference {status}")
                continue
            if not rel_close(sol.energy, energy, ENERGY_RTOL):
                problems.append(f"{name}: energy {sol.energy!r}, reference {energy!r}")
            if status == "optimal":
                report = wpirc.check_constraints(self.params, chan, sol, tol=CONSTRAINT_TOL)
                if not report.all_satisfied:
                    problems.append(f"{name}: constraints violated")
                if not wpirc.kkt_certificate(self.params, chan, sol).valid:
                    problems.append(f"{name}: KKT certificate invalid")
        return problems


class FrontierN16(Workload):
    """``feasibility_frontier(target="mi")`` for op and eq on one instance."""

    name = "frontier-n16"
    pool_size = 32  # channel seeds 0..31
    call_names = ("frontier_op", "frontier_eq")
    SNR_DB = (15.0, 10.0)

    def prepare(self) -> None:
        self.params = paper_params(n_subcarriers=16, n_antennas=3, rate_floor=20.0)
        self.channels = [
            wpirc.sim.sample_channel(i, self.params, *self.SNR_DB) for i in range(self.pool_size)
        ]

    def run(self, i):
        chan = self.channels[i]
        t0 = time.perf_counter()
        f_op = wpirc.feasibility_frontier(self.params, chan, target="mi", scheme="op")
        t1 = time.perf_counter()
        f_eq = wpirc.feasibility_frontier(self.params, chan, target="mi", scheme="eq")
        t2 = time.perf_counter()
        return (f_op, f_eq), {"frontier_op": t1 - t0, "frontier_eq": t2 - t1}

    def summary(self, output):
        return [float(f) for f in output]

    def check(self, i, output):
        return [
            f"{name}: {got!r} bits, reference {ref!r}"
            for name, got, ref in zip(self.call_names, output, self.reference[i])
            if not abs(got - ref) <= FRONTIER_TOL
        ]


_ORACLE_LINE = re.compile(r"^(solver|oracle): (\w+), energy (\S+) J$", re.MULTILINE)


class OracleN2(Workload):
    """``wpirc oracle-check`` in the criterion-1 shape."""

    name = "oracle-n2"
    pool_size = 32  # the first 32 of criterion 1's 50 instances
    call_names = ("oracle_check",)

    def prepare(self) -> None:
        rng = np.random.default_rng(1)
        self.configs = []
        for seed in range(self.pool_size):
            scenario = {
                "n_subcarriers": 2,
                "n_antennas": 2,
                "mi_floor": float(rng.uniform(5.0, 40.0)),
                "rate_floor": float(rng.uniform(5.0, 40.0)),
                "seed": seed,
            }
            path = self.workdir / f"oracle-{seed}.yaml"
            path.write_text(yaml.safe_dump({**PAPER_UNITS, **scenario}))
            self.configs.append(path)

    def run(self, i):
        code, text, dt = _cli(["oracle-check", "--config", str(self.configs[i])])
        parsed = {who: (status, float(energy)) for who, status, energy in _ORACLE_LINE.findall(text)}
        return (code, parsed), {"oracle_check": dt}

    def summary(self, output):
        code, parsed = output
        return {"exit": code, **{who: list(parsed[who]) for who in ("solver", "oracle")}}

    def check(self, i, output):
        code, parsed = output
        ref = self.reference[i]
        if code != 0 or code != ref["exit"]:
            return [f"exit code {code}, reference {ref['exit']}"]
        problems = []
        for who in ("solver", "oracle"):
            if who not in parsed:
                problems.append(f"no '{who}:' line in the output")
                continue
            status, energy = parsed[who]
            ref_status, ref_energy = ref[who]
            if status != ref_status:
                problems.append(f"{who}: status {status}, reference {ref_status}")
            # the CLI prints 7 significant digits, so allow one unit in the
            # last printed place on top of the energy tolerance
            elif not rel_close(energy, ref_energy, ENERGY_RTOL + 1e-6):
                problems.append(f"{who}: energy {energy!r}, reference {ref_energy!r}")
        return problems


WORKLOADS = {w.name: w for w in (SweepN128, SolveN1024, FrontierN16, OracleN2)}
