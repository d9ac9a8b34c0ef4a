"""The two-floor multiplier search against the nested root search it replaced.

``nested_brentq_multipliers`` is the former solver path, kept here as the
reference: a brentq on ``lambda_r`` whose every probe runs a second brentq
on ``lambda_c``.  It needs a hundred or more profile evaluations per call,
which is why the solver no longer uses it.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import wpirc.solver
from wpirc import (
    ChannelRealization,
    DualPair,
    SolveStatus,
    comm_rate,
    eq_solve,
    inner_allocation,
    radar_mi,
    solve,
)
from wpirc.sim import sample_channel
from wpirc.solver import (
    DUAL_TOL,
    SolverError,
    _gamma_profile,
    _jacobian_kernel,
    _kkt_residual,
    links,
    subcarrier_gamma,
)

from conftest import T_TOTAL, make_params

TAU2_GRID = np.geomspace(1e-9 * T_TOTAL, T_TOTAL * (1 - 1e-9), 25)

# (n_subcarriers, n_antennas, radar dB, comm dB, mi_floor, rate_floor): the
# shapes of the sweep, large-N_c solve and frontier benchmark workloads
SHAPES = {
    "sweep-n128": (128, 5, 10.0, 10.0, 120.0, 150.0),
    "solve-n1024": (1024, 5, 10.0, 10.0, 960.0, 1200.0),
    "frontier-n16": (16, 3, 15.0, 10.0, 16.0, 20.0),
}


def nested_brentq_multipliers(tau2, chan, params, max_iter=200):
    """Reference multipliers and profile when both floors bind."""
    v, w = chan.radar_snr, chan.comm_snr
    r_r, r_c = params.mi_floor, params.rate_floor
    df = params.delta_f
    radar, comm = links(chan, df)
    kernel = _jacobian_kernel(chan, df)
    lam_r1 = radar.fill(r_r, tau2)[1]
    lam_c1 = comm.fill(r_c, tau2)[1]

    def lambda_c_for(lr):
        def slack(lc):
            return comm_rate(_gamma_profile(lr, lc, tau2, kernel), w, tau2, df) - r_c

        if slack(0.0) >= 0.0:
            return 0.0
        hi = lam_c1
        while slack(hi) < 0.0:
            hi *= 2.0
        return brentq(slack, 0.0, hi, xtol=1e-300, rtol=1e-13, maxiter=max_iter)

    def mi_gap(lr):
        gamma = _gamma_profile(lr, lambda_c_for(lr), tau2, kernel)
        return radar_mi(gamma, v, tau2, df) - r_r

    lo, hi = 0.0, lam_r1
    while mi_gap(hi) < 0.0:
        lo, hi = hi, hi * 2.0
    lam_r = brentq(mi_gap, lo, hi, xtol=1e-300, rtol=1e-13, maxiter=max_iter)
    lam_c = lambda_c_for(lam_r)
    return DualPair(lam_r, lam_c), _gamma_profile(lam_r, lam_c, tau2, kernel)


def assert_matches_oracle(res, tau2, chan, params):
    duals, gamma = nested_brentq_multipliers(tau2, chan, params)
    assert res.duals.lambda_r == pytest.approx(duals.lambda_r, rel=1e-9)
    assert res.duals.lambda_c == pytest.approx(duals.lambda_c, rel=1e-9)
    assert np.max(np.abs(res.gamma - gamma)) <= 1e-9 * np.max(gamma)
    assert res.stationarity_residual <= 1e3 * DUAL_TOL


def shape_instance(shape, seed):
    nc, nt, radar_db, comm_db, mi_floor, rate_floor = SHAPES[shape]
    params = make_params(
        n_subcarriers=nc, n_antennas=nt, mi_floor=mi_floor, rate_floor=rate_floor
    )
    return params, sample_channel(seed, params, radar_db, comm_db)


@pytest.mark.xfail(
    raises=SolverError,
    reason="known limit: floors near 1e-9 bits on SNRs near 1e-4, where the multiplier "
    "search does not converge",
)
def test_floor_near_1e_9_bits_on_snrs_near_1e_4():
    # eq_solve is optimal here, so the optimal scheme must be too, and no
    # more costly
    params = make_params(n_subcarriers=2, mi_floor=1.0, rate_floor=1e-9)
    chan = ChannelRealization(h=[1.0, 0.5], radar_snr=[1.0, 10**5.5], comm_snr=[1e-4, 1e-4])
    eq = eq_solve(params, chan)
    assert eq.status is SolveStatus.OPTIMAL
    op = solve(params, chan)
    assert op.status is SolveStatus.OPTIMAL and op.energy <= eq.energy


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_dense_grid_matches_nested_search(shape):
    n_both = 0
    for seed in range(8):
        params, chan = shape_instance(shape, seed)
        for tau2 in TAU2_GRID:
            res = inner_allocation(tau2, chan, params)
            if res.active != "both":
                continue
            n_both += 1
            assert_matches_oracle(res, tau2, chan, params)
    assert n_both >= 20


def test_hard_case_active_set_changes():
    # 4 of 16 subcarriers active at the optimum; plain 2-D Newton steps
    # change the active set between iterates and fail to converge here
    params, chan = shape_instance("frontier-n16", 14)
    tau2 = T_TOTAL * (1 - 1e-9)
    res = inner_allocation(tau2, chan, params)
    assert res.active == "both"
    assert np.count_nonzero(res.gamma) == 4
    assert_matches_oracle(res, tau2, chan, params)


def test_point_off_both_floors_raises(monkeypatch):
    # the residual check is the inner allocation's last guard: a search that
    # ends off both floors must not pass for an optimum
    def off_both_floors(tau2, r_r, r_c, lam_r1, lam_c1, start):
        zeros = np.zeros(params.n_subcarriers)
        return lam_r1, lam_c1, zeros, 0.5 * r_r, 0.5 * r_c, (1.0, 0.0, 1.0)
        yield  # a generator, as the search it stands in for

    params, chan = shape_instance("frontier-n16", 14)
    tau2 = T_TOTAL * (1 - 1e-9)
    assert inner_allocation(tau2, chan, params).active == "both"
    monkeypatch.setattr(wpirc.solver, "_both_floor_multipliers", off_both_floors)
    with pytest.raises(SolverError, match=r"inner allocation did not converge \(residual 5\.000e-01\)"):
        inner_allocation(tau2, chan, params)


@pytest.mark.parametrize("scale", [(1e-12, 1e-12), (1e-3, 0.9), (0.9, 1e-3), (0.999, 0.999)])
def test_any_start_in_the_box_converges(scale):
    params, chan = shape_instance("frontier-n16", 14)
    tau2 = T_TOTAL * (1 - 1e-9)
    cold = inner_allocation(tau2, chan, params)
    radar, comm = links(chan, params.delta_f)
    start = DualPair(
        scale[0] * radar.fill(params.mi_floor, tau2)[1],
        scale[1] * comm.fill(params.rate_floor, tau2)[1],
    )
    warm = inner_allocation(tau2, chan, params, start=start)
    assert warm.duals.lambda_r == pytest.approx(cold.duals.lambda_r, rel=1e-9)
    assert warm.duals.lambda_c == pytest.approx(cold.duals.lambda_c, rel=1e-9)


snr_values = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0**e)


@settings(
    max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=8),
    small_floor=st.floats(min_value=1e-6, max_value=1e-3),
    other_floor=st.floats(min_value=1.0, max_value=60.0),
    small_is_mi=st.booleans(),
    tau2_exp=st.floats(min_value=-9.0, max_value=0.0),
)
def test_kkt_holds_over_extreme_snrs(data, n, small_floor, other_floor, small_is_mi, tau2_exp):
    v = np.array(data.draw(st.lists(snr_values, min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(snr_values, min_size=n, max_size=n)))
    mi_floor, rate_floor = (
        (small_floor, other_floor) if small_is_mi else (other_floor, small_floor)
    )
    params = make_params(n_subcarriers=n, mi_floor=mi_floor, rate_floor=rate_floor)
    chan = ChannelRealization(h=[1.0, 1.0], radar_snr=v, comm_snr=w)
    tau2 = T_TOTAL * 10.0**tau2_exp * (1 - 1e-9)
    res = inner_allocation(tau2, chan, params)
    # a water level past 2**1000 comes back as an infinite profile (the
    # outer search reads it as an infeasible time split), and the dual form
    # of the profile overflows for energies near the float range
    assume(np.max(res.gamma) < 1e150)
    # the KKT conditions certify optimality of this convex program: primal
    # feasibility with complementary slackness (the residual), nonnegative
    # duals, and a profile that minimizes the Lagrangian at those duals
    assert res.stationarity_residual <= 1e3 * DUAL_TOL
    assert res.duals.lambda_r >= 0.0 and res.duals.lambda_c >= 0.0
    regen = np.array(
        [subcarrier_gamma(res.duals, v[m], w[m], tau2, params.delta_f) for m in range(n)]
    )
    df = params.delta_f
    res_regen = _kkt_residual(
        res.duals,
        radar_mi(regen, v, tau2, df),
        comm_rate(regen, w, tau2, df),
        mi_floor,
        rate_floor,
    )
    assert res_regen <= 1e3 * DUAL_TOL
