"""wpirc benchmark: one process, one client, closed loop.

Run from the root of a wpirc checkout:

    python3 bench/run.py --workload sweep-n128 --seed 1 --seconds 20 --trace 0

The program under test is imported from ``src/`` of the checkout.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1``
it measures the same op sequence untraced and then traced, and reports the
per-layer metrics.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``setup_s`` is the median of
three fresh processes, each timing the import, the input generation and
one warm-up op (``--setup-probe`` runs one of them).
"""
import time

_T0 = time.perf_counter()  # a setup probe's clock starts before any import

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 40
MAX_REPORTED_PROBLEMS = 5
# Times are reported at a reference machine speed: the one at which the
# calibration kernel below takes CAL_REF_S.  On a shared host the speed of
# identical work drifts by up to 2x within minutes; scaling each op by the
# kernel's time measured around it removes that drift from the comparison.
CAL_REF_S = 3e-3
_CAL_RNG = np.random.default_rng(20181105)
_CAL_V, _CAL_W = _CAL_RNG.random(128), _CAL_RNG.random(128)


class Op(NamedTuple):
    calls: dict  # wall seconds per timed call
    items: int
    scale: float  # reference-speed seconds per wall second around this op

    def seconds(self, wall: bool = False) -> float:
        return sum(self.calls.values()) * (1.0 if wall else self.scale)


def import_program():
    """Import wpirc from this checkout's ``src/`` and nowhere else."""
    package = SRC / "wpirc"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no wpirc package at {package}; run from a wpirc checkout")
    sys.path.insert(0, str(SRC))
    import wpirc
    import wpirc.benchmark

    # wpirc.benchmark is the eq baseline; nothing on the harness path may shadow it
    for module in (wpirc, wpirc.benchmark):
        if Path(module.__file__).resolve().parent != package.resolve():
            raise SystemExit(f"bench: {module.__name__} imported from {module.__file__}")


def load_workload(name: str, workdir: Path):
    import workloads

    cls = workloads.WORKLOADS[name]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[name]
    if not len(reference["outputs"]) == len(reference["cost_ms"]) == cls.pool_size:
        raise SystemExit(f"bench: reference for {name} does not cover its pool")
    workload = cls(workdir, reference["outputs"], reference["cost_ms"])
    workload.prepare()
    return workload


def calibrate() -> float:
    """Seconds for a fixed kernel shaped like the solver's inner loop.

    Small-array NumPy arithmetic driven from Python, as in ``_gamma_profile``.
    The kernel is the benchmark's own and never changes, so its time tracks
    only how fast the machine runs at the moment.
    """
    v, w = _CAL_V, _CAL_W
    t0 = time.perf_counter()
    for k in range(100):
        a = (k + 1e-3) * v
        b = v + w - a * w - 0.5 * v
        c = 1.0 - a - 0.5 * w
        x = np.where(c < 0, -2.0 * c / (b + np.sqrt(np.abs(b * b - 4.0 * v * w * c))), 0.0)
        float(np.sum(np.log2(1.0 + x * v)))
    return time.perf_counter() - t0


def measure(workload, order: list[int], seconds: float) -> dict:
    """Run ops in ``order`` (cycled) for ``seconds``; check each outside its timing.

    Each op's ``scale`` is ``CAL_REF_S`` over the mean calibration time just
    before and just after it.
    """
    ops, problems = [], []
    failed = attempted = 0
    deadline = time.perf_counter() + seconds
    cal_before = calibrate()
    while attempted == 0 or time.perf_counter() < deadline:
        i = order[attempted % len(order)]
        attempted += 1
        try:
            output, calls = workload.run(i)
            found = workload.check(i, output)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            failed += 1
            problems.append(f"instance {i}: raised {exc!r}")
            cal_before = calibrate()
            continue
        cal_after = calibrate()
        scale = CAL_REF_S / (0.5 * (cal_before + cal_after))
        cal_before = cal_after
        ops.append(Op(calls, workload.items(output), scale))
        if found:
            failed += 1
            problems.extend(f"instance {i}: {p}" for p in found)
    return {"ops": ops, "attempted": attempted, "failed": failed, "problems": problems}


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its rank."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def setup_seconds(args) -> list[float]:
    """Wall set-up seconds of each fresh probe process.

    Not scaled to the reference speed: import time does not follow the
    calibration kernel's.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False
        )
        if done.returncode != 0:
            raise SystemExit(f"bench: setup probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]))
    return times


def _timings(prefix: str, values: list[float]) -> dict:
    value, _ = tail(values)
    return {f"{prefix}_p50": (statistics.median(values), "ms"), f"{prefix}_tail": (value, "ms")}


def end_to_end(args, workload, order, setups) -> tuple[dict, dict, dict]:
    run = measure(workload, order, args.seconds)
    ops = run["ops"]
    if not ops:
        raise SystemExit("bench: every op raised; nothing was timed")
    op_ms = [1e3 * op.seconds() for op in ops]
    wall_ms = [1e3 * op.seconds(wall=True) for op in ops]
    items = sum(op.items for op in ops)
    _, rank = tail(op_ms)
    print(f"# {len(ops)} timed ops; tail is p{rank:.1f}, the highest with >= 10 samples beyond it")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **_timings("op_ms", op_ms),
        "items_per_s": (items / (sum(op_ms) / 1e3), "1/s"),
    }
    # the figures behind the gated ones: each timed call of the op under its
    # own name, and the same figures in wall-clock time
    extra = {"fail_share": (run["failed"] / run["attempted"], "share")}
    if len(workload.call_names) > 1:
        for name in workload.call_names:
            extra |= _timings(f"{name}_ms", [1e3 * op.calls[name] * op.scale for op in ops])
    extra |= {
        **_timings("wall.op_ms", wall_ms),
        "wall.items_per_s": (items / (sum(wall_ms) / 1e3), "1/s"),
        "machine_speed": (statistics.median(op.scale for op in ops), "x"),
    }
    return run, metrics, extra


def per_layer(args, workload, order) -> tuple[dict, dict, dict]:
    import layertrace

    plain = measure(workload, order, args.seconds / 2.0)
    tracer = layertrace.Tracer()
    with tracer.installed():
        traced = measure(workload, order, args.seconds / 2.0)
    # both phases start at the head of the same order, so their first m ops match
    m = min(len(plain["ops"]), len(traced["ops"]))
    untraced_s, traced_s = (sum(op.seconds() for op in r["ops"][:m]) for r in (plain, traced))
    op_seconds = sum(op.seconds(wall=True) for op in traced["ops"])
    metrics = layertrace.layer_metrics(tracer, op_seconds)
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0 if m else 0.0, "share")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics["fail_share"] = (failed / attempted, "share")
    if tracer.absent:
        print(f"# absent layers (their metrics read 0): {', '.join(tracer.absent)}")
    run = {
        "attempted": attempted,
        "failed": failed,
        "problems": plain["problems"] + traced["problems"],
    }
    return run, metrics, {}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = load_workload(args.workload, workdir)
        order = workload.order(args.seed)
        workload.run(0)  # warm-up op, on the same instance for every seed
        if args.setup_probe:
            print(f"{time.perf_counter() - _T0!r}")
            return 0
        if args.trace:
            run, metrics, extra = per_layer(args, workload, order)
        else:
            run, metrics, extra = end_to_end(args, workload, order, setup_seconds(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    for problem in run["problems"][:MAX_REPORTED_PROBLEMS]:
        print(f"# FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in (metrics | extra).items():
        print(f"{args.workload} {name}: {value:.6g} {unit}")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
