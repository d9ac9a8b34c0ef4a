"""The profile kernel (``solver._gamma_profile`` and ``solver._floor_jacobian``)
against a reference: the kernel's earlier arithmetic, kept here as it was
before the constants moved into the channel tables, the one-gain branch went
and the five sums became one stacked reduction.

The two compute the same quantities in a different order, so they agree to
rounding, not bit for bit.  A subcarrier whose ``A + B`` lies within rounding
of 1 may be active in one and not the other; the property keeps such
subcarriers out, as the active set is not defined more finely than that.
"""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import wpirc.solver
from wpirc import ChannelRealization, SolveStatus, inner_allocation, solve
from wpirc.model import LN2
from wpirc.sim import sample_channel
from wpirc.solver import _floor_jacobian, _gamma_profile, _Kernel

from conftest import DF, T_TOTAL, make_params


def reference_profile(lambda_r, lambda_c, tau2, v, w, delta_f):
    """The stationary profile, as the kernel computed it before."""
    both_gains = (v > 0) & (w > 0)
    one_gain = ~both_gains & (v + w > 0)
    a = v * w
    A = lambda_r * delta_f * v / (2.0 * LN2)
    B = lambda_c * delta_f * w / LN2
    c = 1.0 - A - B
    active = c < 0.0
    both = active & both_gains
    single = active & one_gain
    b = v + w - A * w - B * v
    root = np.hypot(b, 2.0 * np.sqrt(np.maximum(-a * c, 0.0)))
    up = b >= 0.0
    x = np.zeros(c.shape)
    np.divide(-2.0 * c, b + root, out=x, where=both & up)
    np.divide(root - b, 2.0 * a, out=x, where=both & ~up)
    np.divide(-c, v + w, out=x, where=single)
    return tau2 * np.maximum(x, 0.0)


def reference_floor_jacobian(lambda_r, lambda_c, tau2, v, w, delta_f):
    """Profiles, MI, rate and the three slopes, as the kernel computed them
    before, for ``(k, 1)`` columns."""
    gamma = reference_profile(lambda_r, lambda_c, tau2, v, w, delta_f)
    x = gamma / tau2
    xv, xw = x * v, x * w
    ev, ew = 1.0 + xv, 1.0 + xw
    p_per = delta_f * v / (2.0 * LN2 * ev)
    q_per = delta_f * w / (LN2 * ew)
    d = lambda_r * p_per * v / ev + lambda_c * q_per * w / ew
    inv_d = np.divide(1.0, d, out=np.zeros_like(d), where=x > 0.0)

    def total(terms):
        return np.add.reduce(terms, axis=-1, keepdims=True)

    mi = 0.5 * delta_f * tau2 * total(np.log1p(xv)) / LN2
    rate = delta_f * tau2 * total(np.log1p(xw)) / LN2
    j_rr = tau2 * total(p_per * p_per * inv_d)
    j_rc = tau2 * total(p_per * q_per * inv_d)
    j_cc = tau2 * total(q_per * q_per * inv_d)
    return gamma, mi, rate, j_rr, j_rc, j_cc


def water_excess(lambda_r, lambda_c, v, w, delta_f):
    """``A + B - 1`` per subcarrier: positive exactly where it is active."""
    return lambda_r * delta_f * v / (2.0 * LN2) + lambda_c * delta_f * w / LN2 - 1.0


# zero gains, and SNRs from 1e-6 to 1e6
snrs = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(lambda e: 10.0**e))
# multipliers around the threshold of a unit SNR, from far below it (every
# subcarrier inactive) to far above (high water levels, where h < 0)
levels = st.floats(-6.0, 9.0).map(lambda e: 10.0**e * 2.0 * LN2 / DF)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 8),
    data=st.data(),
    tau2_share=st.floats(1e-3, 1.0),
)
def test_kernel_matches_the_reference(n, data, tau2_share):
    v = np.array(data.draw(st.lists(snrs, min_size=n, max_size=n)))
    w = np.array(data.draw(st.lists(snrs, min_size=n, max_size=n)))
    k = data.draw(st.integers(1, 4))
    lambda_r = np.array(data.draw(st.lists(levels, min_size=k, max_size=k)))[:, None]
    lambda_c = np.array(data.draw(st.lists(levels, min_size=k, max_size=k)))[:, None]
    # one multiplier may vanish, as where one floor is slack
    zero = data.draw(st.sampled_from([None, "r", "c"]))
    if zero == "r":
        lambda_r[:] = 0.0
    elif zero == "c":
        lambda_c[:] = 0.0
    tau2 = np.full((k, 1), tau2_share * T_TOTAL)
    excess = water_excess(lambda_r, lambda_c, v, w, DF)
    assume(np.all(np.abs(excess) > 1e-3))

    kernel = _Kernel(v, w, DF)
    new = _floor_jacobian(lambda_r, lambda_c, tau2, kernel)
    ref = reference_floor_jacobian(lambda_r, lambda_c, tau2, v, w, DF)
    assert new[0].shape == (k, n)
    assert np.array_equal(new[0] > 0.0, excess > 0.0)
    assert not np.signbit(new[0]).any()
    np.testing.assert_allclose(new[0], ref[0], rtol=1e-12, atol=0.0)
    for got, want in zip(new[1:], ref[1:]):
        assert got.shape == (k, 1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    # a stacked request is each request alone, bit for bit
    requests = list(zip(lambda_r.ravel(), lambda_c.ravel(), tau2.ravel()))
    stacked = kernel(requests)
    for request, answer in zip(requests, stacked):
        alone = kernel([request])[0]
        assert answer[0].tobytes() == alone[0].tobytes()
        assert answer[1:] == alone[1:]
        assert all(type(f) is float for f in answer[1:])
    profile = _gamma_profile(lambda_r[0, 0], lambda_c[0, 0], tau2[0, 0], kernel)
    assert profile.shape == (n,)
    assert profile.tobytes() == stacked[0][0].tobytes()


def test_high_water_levels_and_zero_gains():
    # h < 0 on the first two subcarriers, one gain on the next two, none on
    # the last
    v = np.array([2.0, 0.5, 3.0, 0.0, 0.0])
    w = np.array([1.0, 4.0, 0.0, 2.0, 0.0])
    lam = np.array([[1e4 * 2.0 * LN2 / DF]])
    kernel = _Kernel(v, w, DF)
    h = kernel.tables.half_sum - (0.5 * lam + lam) * (0.5 * DF / LN2) * kernel.tables.product
    assert (h[0, :2] < 0.0).all()
    new = _floor_jacobian(lam, lam, np.array([[T_TOTAL]]), kernel)
    ref = reference_floor_jacobian(lam, lam, np.array([[T_TOTAL]]), v, w, DF)
    assert (new[0][0, :4] > 0.0).all() and new[0][0, 4] == 0.0
    assert not np.signbit(new[0]).any()
    for got, want in zip(new, ref):
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_an_inactive_subcarrier_stays_at_zero_where_h_rounds_negative():
    # v / w near 1e-21 and A = 1 to rounding: e = 0, so no energy, while the
    # rounded h is negative, where -s / (v w) would read about 7e3
    v, w = np.array([1.7291656330018262e-20]), np.array([7.1921125201171785])
    lambda_r = 320685152344437.44
    kernel = _Kernel(v, w, DF)
    t = kernel.tables
    assert lambda_r * t.weights[0, 0, 0] - 1.0 == 0.0
    assert t.half_sum[0] - 0.5 * lambda_r * (0.5 * DF / LN2) * t.product[0] < 0.0
    gamma = _gamma_profile(lambda_r, 0.0, T_TOTAL, kernel)
    assert gamma.tobytes() == reference_profile(lambda_r, 0.0, T_TOTAL, v, w, DF).tobytes()
    assert gamma[0] == 0.0 and not np.signbit(gamma[0])


@pytest.mark.parametrize("gains", [(1e200, 1e200), (1e306, 1.0)])
def test_tables_wait_for_the_first_profile(gains):
    # v w overflows on the first channel, delta_f v on the second; neither
    # may build tables, nor warn, where no profile is needed (one floor
    # binds alone)
    v = np.array([gains[0], 1.0])
    w = np.array([gains[1], 2.0])
    chan = ChannelRealization(h=[1.0, 0.5], radar_snr=v, comm_snr=w)
    params = make_params(mi_floor=40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve(params, chan).status is SolveStatus.OPTIMAL
        assert inner_allocation(0.5 * T_TOTAL, chan, params).active == "mi"
    kernel = wpirc.solver._jacobian_kernel(chan, params.delta_f)
    assert "tables" not in vars(kernel)


def test_tables_are_built_once_at_the_first_profile():
    params = make_params(n_subcarriers=16, n_antennas=3, mi_floor=40.0, rate_floor=60.0)
    chan = sample_channel(0, params, 10.0, 10.0)
    kernel = wpirc.solver._jacobian_kernel(chan, params.delta_f)
    assert "tables" not in vars(kernel)
    sol = solve(params, chan)
    assert sol.status is SolveStatus.OPTIMAL
    tables = vars(kernel)["tables"]  # built by the solve's first profile
    assert inner_allocation(sol.tau2, chan, params).active == "both"
    assert kernel.tables is tables
    assert tables._fields == (
        "gains", "weights", "half_sum", "product", "neg_inverse", "scales"
    )
    assert tables.gains.shape == tables.weights.shape == (2, 1, 16)
    assert math.isclose(float(tables.weights[1, 0, 0]), DF * chan.comm_snr[0] / LN2)
