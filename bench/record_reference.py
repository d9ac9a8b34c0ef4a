"""Record ``bench/reference.json``: every pool instance's output at this commit.

Run from the root of a wpirc checkout:

    python3 bench/record_reference.py

The benchmark checks each op against the recorded outputs, so re-record
only when a change is meant to alter wpirc's results, and say so in the
change.  Each recorded output is also run through the benchmark's own
check, so a reference that breaks a constraint or certificate is reported,
not hidden.  The recorded op time of each instance (at the reference
machine speed) only stratifies the order in which a run visits the pool.
"""
import json
import os
import shutil
import statistics
import sys

import run


def record(workload) -> tuple[dict, list]:
    """The reference entry of every pool instance, and the raw outputs."""
    workload.prepare()
    workload.run(0)  # warm-up
    raw, outputs, cost_ms = [], [], []
    cal_before = run.calibrate()
    for i in range(workload.pool_size):
        output, calls = workload.run(i)
        cal_after = run.calibrate()
        scale = run.CAL_REF_S / statistics.mean((cal_before, cal_after))
        cal_before = cal_after
        raw.append(output)
        outputs.append(json.loads(json.dumps(workload.summary(output))))
        cost_ms.append(1e3 * run.Op(calls, 1, scale).seconds())
    return {"outputs": outputs, "cost_ms": cost_ms}, raw


def main() -> int:
    run.import_program()
    import workloads

    workdir = run.WORK_ROOT / f"record-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    reference, bad = {}, 0
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workdir)
            reference[name], raw = record(workload)
            workload.reference = reference[name]["outputs"]
            for i, output in enumerate(raw):
                for problem in workload.check(i, output):
                    bad += 1
                    print(f"{name} instance {i}: {problem}", file=sys.stderr)
            print(f"{name}: {cls.pool_size} instances recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
