"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with its measured figure of merit
(visible with ``pytest -s`` or on failure).  The heavy full-size batch is
shared across criteria through module-scoped fixtures.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from wpirc import (
    DualPair,
    OracleGrid,
    SolveStatus,
    SweepConfig,
    brute_force_oracle,
    check_constraints,
    comm_rate,
    eq_solve,
    feasibility_frontier,
    inner_allocation,
    kkt_certificate,
    radar_mi,
    run_sweep,
    solve,
    subcarrier_gamma,
)
from wpirc.cli import main as cli_main
from wpirc.sim import sample_channel
from wpirc.solver import inner_dual_value

from conftest import make_params

FULL_SIZE = dict(n_subcarriers=128, n_antennas=5)


@pytest.fixture(scope="module")
def full_size_batch():
    """100 full-size instances with the data floor at 150 bits."""
    rng = np.random.default_rng(424242)
    batch = []
    for seed in range(100):
        params = make_params(
            **FULL_SIZE, mi_floor=float(rng.uniform(30.0, 250.0)), rate_floor=150.0
        )
        chan = sample_channel(seed, params, 10.0, 10.0)
        batch.append((params, chan, solve(params, chan)))
    return batch


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    n_optimal, worst = 0, 0.0
    for seed in range(50):
        params = make_params(
            n_subcarriers=2,
            n_antennas=2,
            mi_floor=float(rng.uniform(5.0, 40.0)),
            rate_floor=float(rng.uniform(5.0, 40.0)),
        )
        chan = sample_channel(seed, params, 10.0, 10.0)
        sol = solve(params, chan)
        ref = brute_force_oracle(params, chan, OracleGrid(200, 200))
        assert sol.status == ref.status
        if sol.status is SolveStatus.OPTIMAL:
            n_optimal += 1
            rel = abs(sol.energy - ref.energy) / ref.energy
            worst = max(worst, rel)
            assert rel <= 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    assert n_optimal >= 40
    print(
        f"\nPASS criterion 1: oracle equivalence on 50 instances "
        f"({n_optimal} optimal, worst gap {worst:.3%}, {elapsed:.1f} s)"
    )


def test_criterion_2_certificate_validity(full_size_batch):
    n_checked = 0
    for params, chan, sol in full_size_batch:
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        n_checked += 1
        cert = kkt_certificate(params, chan, sol)
        hn2 = float(np.vdot(chan.h, chan.h).real)
        assert abs(cert.mu * hn2 - 1.0) <= 1e-8
        assert cert.rank_y == params.n_antennas - 1
        assert cert.complementary_residual <= 1e-6 * np.trace(sol.covariance_bar).real
        assert cert.rank_one_ratio <= 1e-8
        assert cert.valid
    assert n_checked >= 80
    print(f"\nPASS criterion 2: {n_checked}/100 optimal solves all certified rank-one")


def test_criterion_3_dominance(full_size_batch):
    n_pairs = 0
    for params, chan, sol in full_size_batch:
        eq = eq_solve(params, chan)
        if sol.status is SolveStatus.OPTIMAL and eq.status is SolveStatus.OPTIMAL:
            n_pairs += 1
            assert eq.energy >= sol.energy * (1 - 1e-9)
    assert n_pairs >= 50
    print(f"\nPASS criterion 3: EQ energy >= OP energy in {n_pairs}/{n_pairs} paired trials")


def test_criterion_4_trend_reproduction():
    start = time.monotonic()
    config = SweepConfig(
        base=make_params(**FULL_SIZE, rate_floor=150.0),
        radar_snr_db=10.0,
        comm_snr_db=10.0,
        sweep_variable="mi_floor",
        sweep_values=tuple(np.linspace(30.0, 250.0, 10)),
        trials=200,
        master_seed=2024,
        schemes=("op",),
    )
    rows = run_sweep(config)
    by_trial: dict[int, list] = {}
    for r in rows:
        by_trial.setdefault(r.trial, []).append(r)
    # average over trials that stay feasible across the whole sweep
    common = [
        t for t, rs in by_trial.items() if all(r.status == "optimal" for r in rs)
    ]
    assert len(common) >= 50
    means = []
    for value in config.sweep_values:
        sel = [r for t in common for r in by_trial[t] if r.sweep_value == value]
        means.append(
            (
                np.mean([r.energy for r in sel]),
                np.mean([r.tau1 for r in sel]),
                np.mean([r.tau2 for r in sel]),
            )
        )
    for (e0, t10, t20), (e1, t11, t21) in zip(means, means[1:]):
        assert e1 >= e0 * (1 - 1e-12)
        assert t11 >= t10 * (1 - 1e-12)
        assert t21 <= t20 * (1 + 1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"\nPASS criterion 4: mean energy/tau1 nondecreasing, tau2 nonincreasing over "
        f"10 floors x {len(common)} common-feasible trials ({elapsed:.0f} s)"
    )


def test_criterion_5_frontier_saturation():
    n_gap_checked = 0
    for seed in range(5):
        params = make_params(n_subcarriers=16, n_antennas=3, rate_floor=20.0)
        chan = sample_channel(seed, params, 15.0, 10.0)
        f_op = feasibility_frontier(params, chan, target="mi", scheme="op")
        f_eq = feasibility_frontier(params, chan, target="mi", scheme="eq")
        # each frontier is a lower bound within 1e-9 bits: equal power is a
        # restriction of the optimal scheme, so its frontier is no larger
        assert f_eq <= f_op + 1e-6
        if f_op - f_eq > 2.0:
            n_gap_checked += 1
            probe = 0.5 * (f_eq + f_op)
            eq = eq_solve(replace(params, mi_floor=probe), chan)
            op = solve(replace(params, mi_floor=probe), chan)
            assert eq.status is SolveStatus.INFEASIBLE  # beyond the EQ frontier
            assert op.status is SolveStatus.OPTIMAL  # OP still feasible
            beyond = solve(replace(params, mi_floor=f_op + 1.0), chan)
            assert beyond.status is SolveStatus.INFEASIBLE
    assert n_gap_checked >= 1
    print(
        f"\nPASS criterion 5: EQ frontier <= OP frontier on 5 instances; EQ saturates "
        f"inside the OP-feasible band on {n_gap_checked}"
    )


def test_criterion_6_constraint_closure(full_size_batch):
    n_checked = 0
    for params, chan, sol in full_size_batch:
        if sol.status is not SolveStatus.OPTIMAL:
            continue
        n_checked += 1
        assert check_constraints(params, chan, sol, tol=1e-6).all_satisfied
        t = params.total_time
        assert abs(sol.tau1 + sol.tau2 - t) <= 1e-8 * t  # time budget tight
        harvested = params.efficiency * sol.tau1 * abs(np.vdot(chan.h, sol.beam_vector)) ** 2
        demand = float(np.sum(sol.gamma))
        assert abs(harvested - demand) <= 1e-8 * demand  # energy causality tight
        mi = radar_mi(sol.gamma, chan.radar_snr, sol.tau2, params.delta_f)
        rate = comm_rate(sol.gamma, chan.comm_snr, sol.tau2, params.delta_f)
        assert (
            abs(mi - params.mi_floor) <= 1e-6 * max(1.0, params.mi_floor)
            or abs(rate - params.rate_floor) <= 1e-6 * max(1.0, params.rate_floor)
        )
    print(f"\nPASS criterion 6: constraint closure on {n_checked} optimal solutions")


def test_criterion_7_numerical_identities():
    rng = np.random.default_rng(7)
    # perspective homogeneity at 1e-12 relative
    gamma = rng.uniform(0, 1e-3, 32)
    snr = rng.uniform(0, 10, 32)
    tau2 = 4e-5
    for c in (0.5, 2.0, 10.0):
        for fn in (radar_mi, comm_rate):
            a = fn(c * gamma, snr, c * tau2, 2.5e5)
            b = c * fn(gamma, snr, tau2, 2.5e5)
            assert abs(a - b) <= 1e-12 * abs(b)

    # dual-to-primal reconstruction at 1e-9
    worst_recon = 0.0
    for seed in range(10):
        params = make_params(n_subcarriers=16, n_antennas=2, mi_floor=40.0, rate_floor=50.0)
        chan = sample_channel(seed, params, 10.0, 10.0)
        res = inner_allocation(5e-5, chan, params)
        for m in range(16):
            regen = subcarrier_gamma(
                res.duals, chan.radar_snr[m], chan.comm_snr[m], 5e-5, params.delta_f
            )
            worst_recon = max(worst_recon, abs(regen - res.gamma[m]))
    assert worst_recon <= 1e-9

    # inner dual subgradient vs central finite differences at 1e-5 relative
    params = make_params(n_subcarriers=8, n_antennas=2, mi_floor=30.0, rate_floor=40.0)
    chan = sample_channel(3, params, 10.0, 10.0)
    for _ in range(10):
        lr, lc = rng.uniform(1e-6, 1e-4, 2)
        _, grad = inner_dual_value(DualPair(lr, lc), 5e-5, chan, params)
        for i, (eps_pair, g) in enumerate(
            [((1e-6 * lr, 0.0), grad[0]), ((0.0, 1e-6 * lc), grad[1])]
        ):
            dr, dc = eps_pair
            vp, _ = inner_dual_value(DualPair(lr + dr, lc + dc), 5e-5, chan, params)
            vm, _ = inner_dual_value(DualPair(lr - dr, lc - dc), 5e-5, chan, params)
            fd = (vp - vm) / (2 * (dr + dc))
            assert fd == pytest.approx(g, rel=1e-5, abs=1e-9)
    print(
        f"\nPASS criterion 7: homogeneity 1e-12, reconstruction {worst_recon:.1e} <= 1e-9, "
        f"dual subgradient matches finite differences"
    )


def test_criterion_8_determinism(tmp_path):
    import yaml

    cfg = {
        "mi_floor": 0.0,
        "rate_floor": 150.0,
        "sweep_variable": "mi_floor",
        "sweep_values": [50.0, 100.0, 150.0],
        "trials": 2,
        "master_seed": 77,
    }
    path = tmp_path / "default.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["sweep", "--config", str(path), "--out", str(out_a)]) == 0
    assert cli_main(["sweep", "--config", str(path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_text().splitlines()) == 1 + 3 * 2 * 2
    print("\nPASS criterion 8: repeated default sweep is byte-identical")
