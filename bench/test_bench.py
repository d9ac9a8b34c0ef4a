"""Self-tests of the benchmark.

Run from the root of a wpirc checkout:

    python3 -m pytest -q bench

They run every workload at a tiny size, show that the output check can
fail, and show that the traced run's wrappers reach every caller and
survive a deleted layer.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_program()

import layertrace  # noqa: E402
import wpirc  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Each workload prepared once, with one op run on its first instance."""
    out = {}
    for name in WORKLOAD_NAMES:
        workdir = tmp_path_factory.mktemp(name)
        workload = run.load_workload(name, workdir)
        output, _ = workload.run(0)
        out[name] = (workload, output)
    return out


def test_spec_matches_the_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    done = _bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in expected:
        assert any(line.startswith(f"{name} {m['name']}: ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]


def _perturbations(name, output):
    """Wrong versions of a correct output: a perturbed energy and a flipped status."""
    if name == "sweep-n128":
        code, rows = output
        energy = [dict(r) for r in rows]
        energy[3]["energy"] = repr(float(energy[3]["energy"]) * (1 + 1e-5))
        status = [dict(r) for r in rows]
        status[5]["status"] = "infeasible"
        return [(code, energy), (code, status), (2, rows)]
    if name == "solve-n1024":
        op, eq = output
        return [
            (dataclasses.replace(op, energy=op.energy * (1 + 1e-5)), eq),
            (op, dataclasses.replace(eq, status=wpirc.SolveStatus.INFEASIBLE)),
            (op, dataclasses.replace(eq, gamma=eq.gamma * 0.99)),
        ]
    if name == "frontier-n16":
        f_op, f_eq = output
        return [(f_op + 0.5, f_eq), (f_op, f_eq - 0.5)]
    code, parsed = output
    return [
        (code, {**parsed, "solver": (parsed["solver"][0], parsed["solver"][1] * (1 + 1e-5))}),
        (code, {**parsed, "oracle": ("infeasible", parsed["oracle"][1])}),
        (2, parsed),
    ]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_check_flags_a_wrong_output(loaded, name):
    workload, output = loaded[name]
    assert workload.check(0, output) == []
    for wrong in _perturbations(name, output):
        assert workload.check(0, wrong), wrong


def test_failed_ops_are_counted_and_the_run_goes_on(loaded, monkeypatch):
    workload, _ = loaded["solve-n1024"]
    solve = wpirc.solve
    monkeypatch.setattr(
        wpirc, "solve", lambda *a, **k: dataclasses.replace(solve(*a, **k), energy=1.0)
    )
    result = run.measure(workload, [0, 1], 0.0)
    assert result["attempted"] == result["failed"] == 1
    assert "energy" in result["problems"][0]

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(wpirc, "eq_solve", broken)
    result = run.measure(workload, [0, 1], 0.0)
    assert result["attempted"] == result["failed"] == 1
    assert "injected" in result["problems"][0]


def test_wrappers_reach_names_imported_elsewhere():
    originals = (wpirc.solver.solve, wpirc.benchmark.eq_solve, wpirc.model.radar_mi)
    with layertrace.Tracer().installed() as tracer:
        assert tracer.absent == []
        for module in (wpirc, wpirc.solver, wpirc.benchmark, wpirc.sim):
            assert module.solve is not originals[0]
        assert wpirc.sim.eq_solve is not originals[1] and wpirc.eq_solve is not originals[1]
        assert wpirc.solver.radar_mi is not originals[2]
        assert wpirc.benchmark.radar_mi is not originals[2]
        # rate evaluations are only counted where the solver layers make them
        assert wpirc.model.radar_mi is originals[2] and wpirc.sim.radar_mi is originals[2]
    assert (wpirc.solve, wpirc.sim.eq_solve, wpirc.solver.radar_mi) == originals


def test_absent_layer_is_reported_not_fatal(loaded, monkeypatch):
    workload, _ = loaded["solve-n1024"]
    monkeypatch.delattr(wpirc.certify, "equal_power_demand_bound")
    monkeypatch.delattr(wpirc.solver, "_gamma_profile")
    tracer = layertrace.Tracer()
    with tracer.installed():
        # a deleted function cannot be called; the solver here still needs it
        monkeypatch.undo()
        result = run.measure(workload, [0], 0.0)
    assert result["failed"] == 0
    assert set(tracer.absent) == {"certify.equal_power_demand_bound", "solver._gamma_profile"}
    metrics = layertrace.layer_metrics(tracer, 1.0)
    assert metrics["certify.equal_power_demand_bound.ms"][0] == 0.0
    assert metrics["solver._gamma_profile.calls_per_inner"][0] == 0.0
    assert metrics["solver.inner_allocation.calls_per_solve"][0] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 41)]) == (30.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
