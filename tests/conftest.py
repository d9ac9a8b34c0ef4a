import numpy as np
import pytest

from wpirc import SystemParams

DF = 2.5e5
T_TOTAL = 1e-4
T_SYMBOL = 5e-6


def make_params(
    n_subcarriers=2,
    n_antennas=2,
    delta_f=DF,
    symbol_duration=T_SYMBOL,
    total_time=T_TOTAL,
    power_cap=50.0,
    efficiency=0.5,
    mi_floor=0.0,
    rate_floor=0.0,
):
    return SystemParams(
        n_subcarriers=n_subcarriers,
        n_antennas=n_antennas,
        delta_f=delta_f,
        symbol_duration=symbol_duration,
        total_time=total_time,
        power_cap=power_cap,
        efficiency=efficiency,
        mi_floor=mi_floor,
        rate_floor=rate_floor,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
