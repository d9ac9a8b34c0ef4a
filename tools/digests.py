"""Digests of wpirc's outputs, to check that a change keeps them bit for bit,
or moves them only as far as it means to.

    python3 tools/digests.py [--src DIR] [--dump FILE]
    python3 tools/digests.py --compare OLD NEW

imports wpirc from ``DIR`` (default: this checkout's ``src/``) and prints one
``name sha256`` line per output set, then the line count of ``DIR``'s
package and a ``counts`` line.  Run it on two trees (for example on a ``git
archive`` export of the parent commit and on the working tree) and compare
the lines.  ``--dump FILE`` also writes each set's values as JSON: one
``[status, value, tau2 / T]`` entry per output, with the energy (the
frontier's bits for ``frontier``) as the value, the exception's type and
message as the status of a call that raised, and NaN where an entry has no
such value; the ``kernel`` set's entries are ``[name, value, NaN]``, one
per quantity of a request.  ``--compare OLD NEW`` reads two dumps and prints, for each set,
the number of status mismatches, the largest relative difference of the
values and the largest ``|d tau2| / T``: the check for a change that moves
output bits on purpose.  It exits 1 when a status differs or a set has a
different number of values (or is missing) in ``NEW``, so a script can
gate on it.

The ``counts`` line gives the work of the searches on the benchmark shapes:
``_floor_jacobian`` calls per ``solve`` on the 96 ``solve-n1024`` channels,
link pairs built per ``solve`` there (``Link`` objects over 2), time-split
probes per ``solve`` there (answers that ``_outer_steps`` asks for), Newton
steps on the total power per ``eq_solve`` on the same channels, both links'
rows together (the rows of the ``np.log1p`` calls in ``wpirc.solver``: a
pass over both links' rows makes one call, one row per link and step),
the same rows per ``equal_power_demand_bound`` call on the 32 ``oracle-n2``
configs (on its default grid of 200 time splits), the
stacked ``_floor_jacobian`` calls of ``_solve_batch`` over the 24 ``sweep-n128``
trials (master seeds 0-23, one trial each) and the most that one of those
trials makes, the beam tables (``solver._Beam.unit``) built per sweep trial
(its ``op`` and ``eq`` rows together), the profile evaluations that the
``op`` slot prediction asks for per prediction (``predict_calls``, as
``solve/sweep``), and the outcomes of that prediction
(``PredictorOutcomes``), both on the ``solve-n1024`` solves and on the
sweep trials' rows.  A count reads ``-`` for a tree without what it
counts.  Each repeats exactly.

The sets are the benchmark workloads' inputs plus a random set:

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
  32 ``oracle-n2`` configs;
- ``kernel``: the profile kernel alone, ``solver._floor_jacobian`` on the 96
  ``solve-n1024`` channels, each asked a fixed 5 x 5 grid of multipliers
  (``2 ln 2 / delta_f`` times 1e-2 ... 1e2 each, the thresholds of SNRs
  from 1e2 down to 1e-2) at ``tau2 = T / 2`` as one stacked call: the bytes
  of the profiles and of the five columns, and per request the sum of the
  profile, the MI, the rate and the three slopes as values.  Its requests
  do not depend on the searches, so ``--compare`` on it gives the kernel's
  own drift apart from the solver's.

It takes a few seconds on one core.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Generator

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


def solution_values(sol) -> list:
    """A solution's ``[status, energy, tau2 / T]``, or an exception's."""
    if isinstance(sol, Exception):
        return [f"{type(sol).__name__}: {sol}", math.nan, math.nan]
    return [sol.status.value, sol.energy, sol.tau2 / PAPER_UNITS["total_time"]]


def record(sol, digest, values) -> None:
    digest.update(solution_bytes(sol))
    values.append(solution_values(sol))


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def solve_n1024_params(wpirc):
    return wpirc.SystemParams(
        **PAPER_UNITS, n_subcarriers=1024, n_antennas=5, mi_floor=960.0, rate_floor=1200.0
    )


def solve_n1024(wpirc, digest, values) -> None:
    params = solve_n1024_params(wpirc)
    for seed in range(96):
        chan = wpirc.sim.sample_channel(seed, params, 10.0, 10.0)
        for fn in (wpirc.solve, wpirc.eq_solve):
            record(fn(params, chan), digest, values)


def random_rows(wpirc, digest, values) -> None:
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
                record(sol, digest, values)


def frontier(wpirc, digest, values) -> None:
    for target, other in (("mi", "rate_floor"), ("rate", "mi_floor")):
        params = wpirc.SystemParams(
            **PAPER_UNITS, n_subcarriers=16, n_antennas=3, **{other: 20.0}
        )
        for seed in range(32):
            chan = wpirc.sim.sample_channel(seed, params, 15.0, 10.0)
            for scheme in ("op", "eq"):
                value = attempt(wpirc.feasibility_frontier, params, chan, target, scheme)
                digest.update(repr(value).encode())
                failed = isinstance(value, Exception)
                values.append(solution_values(value) if failed else ["frontier", value, math.nan])


def sweep_csv(wpirc, digest, values) -> None:
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
    rows = wpirc.sim.run_sweep(config)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.csv"
        wpirc.sim.write_csv(rows, out)
        digest.update(out.read_bytes())
    values.extend([r.status, r.energy, r.tau2 / base.total_time] for r in rows)


def oracle_configs() -> list[dict]:
    """The 32 ``oracle-n2`` configs."""
    rng = np.random.default_rng(1)
    return [
        {
            **PAPER_UNITS,
            "n_subcarriers": 2,
            "n_antennas": 2,
            "mi_floor": float(rng.uniform(5.0, 40.0)),
            "rate_floor": float(rng.uniform(5.0, 40.0)),
            "seed": seed,
        }
        for seed in range(32)
    ]


def oracle_check(wpirc, digest, values) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for config in oracle_configs():
            path = Path(tmp) / f"oracle-{config['seed']}.yaml"
            path.write_text(yaml.safe_dump(config))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = wpirc.cli.main(["oracle-check", "--config", str(path)])
            digest.update(f"{code}\n{out.getvalue()}".encode())
            values.append([f"exit {code}", math.nan, math.nan])


def kernel(wpirc, digest, values) -> None:
    params = solve_n1024_params(wpirc)
    unit = 2.0 * math.log(2.0) / params.delta_f
    grid = [(unit * 10.0**i, unit * 10.0**j) for i in range(-2, 3) for j in range(-2, 3)]
    lambda_r, lambda_c = (np.array(col)[:, None] for col in zip(*grid))
    tau2 = np.full_like(lambda_r, 0.5 * params.total_time)
    names = ("gamma_sum", "mi", "rate", "j_rr", "j_rc", "j_cc")
    for seed in range(96):
        chan = wpirc.sim.sample_channel(seed, params, 10.0, 10.0)
        jacobian = wpirc.solver._jacobian_kernel(chan, params.delta_f)
        gamma, *floors = wpirc.solver._floor_jacobian(lambda_r, lambda_c, tau2, jacobian)
        for array in (gamma, *floors):
            digest.update(np.ascontiguousarray(array).tobytes())
        columns = np.hstack([gamma.sum(axis=1, keepdims=True), *floors])
        for row in columns.tolist():
            values.extend([name, value, math.nan] for name, value in zip(names, row))


SETS = {
    "solve-n1024": solve_n1024,
    "random-rows": random_rows,
    "frontier": frontier,
    "sweep-csv": sweep_csv,
    "oracle-check": oracle_check,
    "kernel": kernel,
}


class CountingNumpy:
    """NumPy with the rows of its ``log1p`` calls counted (one for a 1-D
    argument)."""

    def __init__(self):
        self.log1p_rows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log1p(self, x, *args, **kwargs):
        self.log1p_rows += np.shape(x)[0] if np.ndim(x) > 1 else 1
        return np.log1p(x, *args, **kwargs)


def requests_counted(steps: Generator, tally: list) -> Generator:
    """The search ``steps`` with its requests counted in ``tally[0]``; an
    exception as an answer is thrown into it, as ``_run_batch`` does."""
    answer = None
    while True:
        try:
            if isinstance(answer, Exception):
                request = steps.throw(answer)
            else:
                request = steps.send(answer)
        except StopIteration as stop:
            return stop.value
        tally[0] += 1
        answer = yield request


class PredictorOutcomes:
    """Outcomes of the slot prediction that starts each ``op`` time-split
    search where both floors bind at ``T``: ``one_floor`` (one floor's own
    slot meets the other floor; a stage of older trees, kept so that their
    predictions are not counted as ``converged``), ``converged`` (the
    reduced multiplier search), ``declined`` (no prediction), ``restarted``
    (a prediction whose first probe certified nothing, so the search began
    again at ``T``) and ``certified`` (a predicted search that returns an
    optimum at its first probe).  ``probes`` counts the time-split probes
    of every search, and ``asked`` the profile evaluations that the
    predictions request."""

    NAMES = ("one_floor", "converged", "declined", "restarted", "certified")

    def __init__(self, solver):
        self.solver = solver
        # a tree without the prediction reports its outcomes as "-"
        self.predict = getattr(solver, "_predicted_slot", None)
        self.outer = solver._outer_steps
        self.tally = dict.fromkeys(self.NAMES, 0)
        self.probes = 0
        self.asked = [0]

    def predicted_slot(self, params, chan, pair):
        first = yield from requests_counted(self.predict(params, chan, pair), self.asked)
        if first is not None:
            self.tally["one_floor" if first[1] is None else "converged"] += 1
        elif params.mi_floor > 0.0 and params.rate_floor > 0.0:
            single, *_ = self.solver._single_floor(params.total_time, pair, params)
            self.tally["declined"] += single is None
        return first

    def outer_steps(self, params, chan, answer, first=None):
        probes = []

        def spied(params, tau2, start):
            probes.append(tau2)
            return answer(params, tau2, start)

        result = yield from self.outer(params, chan, spied, first)
        self.probes += len(probes)
        # a time-split step only shortens the slot: a later probe at T is a restart
        self.tally["restarted"] += params.total_time in probes[1:]
        optimal = result.status.value == "optimal"
        self.tally["certified"] += first is not None and len(probes) == 1 and optimal
        return result

    def __enter__(self):
        self.solver._outer_steps = self.outer_steps
        if self.predict is not None:
            self.solver._predicted_slot = self.predicted_slot
        return self

    def __exit__(self, *exc):
        self.solver._outer_steps = self.outer
        if self.predict is not None:
            self.solver._predicted_slot = self.predict

    def take(self) -> tuple[str, str]:
        """The outcomes so far and the evaluations per prediction (the
        ``one_floor``, ``converged`` and ``declined`` ones), then a reset."""
        if self.predict is None:
            return "-", "-"
        line = "/".join(str(self.tally[n]) for n in self.NAMES)
        predictions = sum(self.tally[n] for n in self.NAMES[:3])
        per = f"{self.asked[0] / predictions:.2f}" if predictions else "-"
        self.tally, self.asked[0] = dict.fromkeys(self.NAMES, 0), 0
        return line, per


class Tally:
    """Calls of ``obj.name`` counted while in use; ``-`` where ``obj`` is
    ``None`` or has no ``name``, as on a tree without what it counts."""

    def __init__(self, obj, name: str):
        self.obj, self.name = obj, name
        self.original = getattr(obj, name, None)
        self.calls = 0

    def __enter__(self):
        if self.original is not None:

            def counted(*args, **kwargs):
                self.calls += 1
                return self.original(*args, **kwargs)

            setattr(self.obj, self.name, counted)
        return self

    def __exit__(self, *exc):
        if self.original is not None:
            setattr(self.obj, self.name, self.original)

    def per(self, n: int) -> str:
        return "-" if self.original is None or not n else f"{self.calls / n:.2f}"


def counts(wpirc) -> str:
    """The ``counts`` line: the searches' work on the benchmark shapes."""
    solver = wpirc.solver
    jacobian = solver._floor_jacobian
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return jacobian(*args)

    link_init, links_built = solver.Link.__init__, [0]

    def counted_link(self, *args):
        links_built[0] += 1
        link_init(self, *args)

    params = solve_n1024_params(wpirc)
    channels = [wpirc.sim.sample_channel(seed, params, 10.0, 10.0) for seed in range(96)]
    base = wpirc.SystemParams(**PAPER_UNITS, n_subcarriers=128, n_antennas=5, rate_floor=150.0)
    rows = [replace(base, mi_floor=float(m)) for m in np.linspace(30.0, 250.0, 10)]
    cli = wpirc.cli
    configs = []
    for raw in oracle_configs():
        cfg = {**cli.DEFAULTS, **raw}
        oracle_params = cli.build_params(cfg)
        configs.append((oracle_params, cli._channel(cfg, oracle_params)))
    numpy = CountingNumpy()
    trial_calls = []
    solver._floor_jacobian, solver.Link.__init__ = counted, counted_link
    try:
        with PredictorOutcomes(solver) as outcomes:
            for chan in channels:
                wpirc.solve(params, chan)
            per_solve, calls[0] = calls[0] / len(channels), 0
            pairs_per_solve = links_built[0] / 2 / len(channels)
            probes_per_solve = outcomes.probes / len(channels)
            solve_outcomes, solve_asked = outcomes.take()
            # a beam table is built by its cached_property's func
            unit = getattr(getattr(solver, "_Beam", None), "unit", None)
            with Tally(unit, "func") as tables:
                for seed in range(24):
                    chan = wpirc.sim.sample_channel(wpirc.sim.trial_seed(seed, 0), base, 10.0, 10.0)
                    solver._solve_batch(rows, chan)
                    trial_calls.append(calls[0] - sum(trial_calls))
                    wpirc.benchmark._eq_solve_batch(rows, chan)
            sweep_outcomes, sweep_asked = outcomes.take()
        solver.np = numpy
        for chan in channels:
            wpirc.eq_solve(params, chan)
        eq_rows, numpy.log1p_rows = numpy.log1p_rows, 0
        for config in configs:
            wpirc.equal_power_demand_bound(*config)
    finally:
        solver._floor_jacobian, solver.Link.__init__, solver.np = jacobian, link_init, np
    return (
        f"counts floor_jacobian_per_solve {per_solve:.2f}"
        f" link_pairs_per_solve {pairs_per_solve:.2f}"
        f" probes_per_solve {probes_per_solve:.2f}"
        f" slot_steps_per_eq_solve {eq_rows / len(channels):.2f}"
        f" bound_steps_per_oracle {numpy.log1p_rows / len(configs):.2f}"
        f" sweep_stacked_calls {calls[0]}"
        f" sweep_trial_calls_max {max(trial_calls)}"
        f" beam_tables_per_trial {tables.per(len(trial_calls))}"
        f" predict_calls {solve_asked}/{sweep_asked}"
        f" predictor({'/'.join(PredictorOutcomes.NAMES)})"
        f" solve {solve_outcomes} sweep {sweep_outcomes}"
    )


def moved(a: float, b: float, relative: bool) -> float:
    """How far ``b`` moved from ``a``: 0 where they are equal or both NaN,
    inf where only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / (max(abs(a), abs(b)) if relative else 1.0)


def compare(old_path: Path, new_path: Path) -> bool:
    """Print, for each set of two dumps, how far the values moved; return
    whether every set has as many values in both and no status changed."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    same = True
    for name in old:
        a, b = old[name], new.get(name, [])
        if len(a) != len(b):
            print(f"{name}: {len(a)} values against {len(b)}")
            same = False
            continue
        statuses = sum(x[0] != y[0] for x, y in zip(a, b))
        same = same and not statuses
        rel = max((moved(x[1], y[1], True) for x, y in zip(a, b)), default=0.0)
        dtau = max((moved(x[2], y[2], False) for x, y in zip(a, b)), default=0.0)
        print(
            f"{name}: {len(a)} values, {statuses} status mismatches,"
            f" max rel value diff {rel:.3e}, max |d tau2|/T {dtau:.3e}"
        )
    return same


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding wpirc")
    parser.add_argument("--dump", type=Path, help="also write each set's values to this JSON file")
    parser.add_argument(
        "--compare", type=Path, nargs=2, metavar=("OLD", "NEW"), help="compare two dumps and exit"
    )
    args = parser.parse_args()
    if args.compare:
        sys.exit(0 if compare(*args.compare) else 1)
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import wpirc
    import wpirc.cli

    if not Path(wpirc.__file__).resolve().is_relative_to(src):
        sys.exit(f"wpirc was imported from {wpirc.__file__}, not from {src}")
    dump = {}
    for name, run in SETS.items():
        digest = hashlib.sha256()
        run(wpirc, digest, dump.setdefault(name, []))
        print(name, digest.hexdigest())
    lines = sum(len(p.read_text().splitlines()) for p in sorted((src / "wpirc").glob("*.py")))
    print("src-lines", lines)
    print(counts(wpirc))
    if args.dump:
        args.dump.write_text(json.dumps(dump))


if __name__ == "__main__":
    main()
