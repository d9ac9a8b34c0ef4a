"""Digests of wpirc's outputs, to check that a change keeps them bit for bit.

    python3 tools/digests.py [--src DIR]

imports wpirc from ``DIR`` (default: this checkout's ``src/``) and prints one
``name sha256`` line per output set, then the line count of ``DIR``'s
package.  Run it on two trees (for example on a ``git archive`` export of
the parent commit and on the working tree) and compare the lines.  The
sets are the benchmark workloads' inputs plus a random set:

- ``solve-n1024``: ``solve`` and ``eq_solve`` on the 96 channels of the
  workload: status, energy, tau1, tau2 and the bytes of gamma, beam and
  covariance;
- ``random-rows``: 400 seeded random instances of 3 floor pairs each
  (N_c in {1, 2, 3, 16, 64}, N_t 1-3, SNRs -10...30 dB), every row solved
  alone and the 3 rows as one batch, by both schemes;
- ``frontier``: ``feasibility_frontier`` on the 32 ``frontier-n16``
  channels, targets mi (rate floor 20) and rate (MI floor 20), op and eq;
- ``sweep-csv``: the 24-trial criterion-4 sweep CSV (master seed 0);
- ``oracle-check``: stdout and exit code of ``wpirc oracle-check`` on the
  32 ``oracle-n2`` configs.

It takes a few seconds on one core.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
PAPER_UNITS = {
    "delta_f": 2.5e5,
    "symbol_duration": 5e-6,
    "total_time": 1e-4,
    "power_cap": 50.0,
    "efficiency": 0.5,
}


def solution_bytes(sol) -> bytes:
    """A solution's status, scalars and arrays, or an exception's type and
    message."""
    if isinstance(sol, Exception):
        return f"{type(sol).__name__}: {sol}".encode()
    head = sol.status.value.encode() + struct.pack("<3d", sol.energy, sol.tau1, sol.tau2)
    arrays = (sol.gamma, sol.beam_vector, sol.covariance_bar)
    return head + b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def solve_n1024(wpirc, digest) -> None:
    params = wpirc.SystemParams(
        **PAPER_UNITS, n_subcarriers=1024, n_antennas=5, mi_floor=960.0, rate_floor=1200.0
    )
    for seed in range(96):
        chan = wpirc.sim.sample_channel(seed, params, 10.0, 10.0)
        for fn in (wpirc.solve, wpirc.eq_solve):
            digest.update(solution_bytes(fn(params, chan)))


def random_rows(wpirc, digest) -> None:
    rng = np.random.default_rng(20181105)
    batches = (
        (wpirc.solve, wpirc.solver._solve_batch),
        (wpirc.eq_solve, wpirc.benchmark._eq_solve_batch),
    )
    for _ in range(400):
        nc = int(rng.choice([1, 2, 3, 16, 64]))
        nt = int(rng.integers(1, 4))
        h = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        radar, comm = 10.0 ** rng.uniform(-1.0, 3.0, (2, nc))
        chan = wpirc.ChannelRealization(h=h, radar_snr=radar, comm_snr=comm)
        rows = [
            wpirc.SystemParams(
                **PAPER_UNITS, n_subcarriers=nc, n_antennas=nt, mi_floor=mi, rate_floor=rate
            )
            for mi, rate in rng.uniform(0.0, 30.0 * nc, (3, 2))
        ]
        for alone, batch in batches:
            for sol in [attempt(alone, p, chan) for p in rows] + batch(rows, chan):
                digest.update(solution_bytes(sol))


def frontier(wpirc, digest) -> None:
    for target, other in (("mi", "rate_floor"), ("rate", "mi_floor")):
        params = wpirc.SystemParams(
            **PAPER_UNITS, n_subcarriers=16, n_antennas=3, **{other: 20.0}
        )
        for seed in range(32):
            chan = wpirc.sim.sample_channel(seed, params, 15.0, 10.0)
            for scheme in ("op", "eq"):
                value = attempt(wpirc.feasibility_frontier, params, chan, target, scheme)
                digest.update(repr(value).encode())


def sweep_csv(wpirc, digest) -> None:
    base = wpirc.SystemParams(
        **PAPER_UNITS, n_subcarriers=128, n_antennas=5, mi_floor=0.0, rate_floor=150.0
    )
    config = wpirc.sim.SweepConfig(
        base=base,
        radar_snr_db=10.0,
        comm_snr_db=10.0,
        sweep_variable="mi_floor",
        sweep_values=tuple(float(v) for v in np.linspace(30.0, 250.0, 10)),
        trials=24,
        master_seed=0,
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        wpirc.sim.write_csv(wpirc.sim.run_sweep(config), out)
        digest.update(out.read_bytes())


def oracle_check(wpirc, digest) -> None:
    rng = np.random.default_rng(1)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(32):
            scenario = {
                "n_subcarriers": 2,
                "n_antennas": 2,
                "mi_floor": float(rng.uniform(5.0, 40.0)),
                "rate_floor": float(rng.uniform(5.0, 40.0)),
                "seed": seed,
            }
            path = Path(tmp) / f"oracle-{seed}.yaml"
            path.write_text(yaml.safe_dump({**PAPER_UNITS, **scenario}))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = wpirc.cli.main(["oracle-check", "--config", str(path)])
            digest.update(f"{code}\n{out.getvalue()}".encode())


SETS = {
    "solve-n1024": solve_n1024,
    "random-rows": random_rows,
    "frontier": frontier,
    "sweep-csv": sweep_csv,
    "oracle-check": oracle_check,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding wpirc")
    src = parser.parse_args().src.resolve()
    sys.path.insert(0, str(src))
    import wpirc
    import wpirc.cli

    if not Path(wpirc.__file__).resolve().is_relative_to(src):
        sys.exit(f"wpirc was imported from {wpirc.__file__}, not from {src}")
    for name, run in SETS.items():
        digest = hashlib.sha256()
        run(wpirc, digest)
        print(name, digest.hexdigest())
    lines = sum(len(p.read_text().splitlines()) for p in sorted((src / "wpirc").glob("*.py")))
    print("src-lines", lines)


if __name__ == "__main__":
    main()
