import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qubit_thermometry import DomainError, SpectralDensity
from qubit_thermometry.kernels import _thermal_weight

from oracles import spectral_density


def thermal_factor(omega, T, omega_c=1.0):
    """coth(omega/2T) at one frequency, through the kernels' thermal weight."""
    return float(_thermal_weight(np.array([omega]), T, omega_c)[0])


def test_ohmic_values():
    sd = SpectralDensity(eta=0.05, omega_c=1.0)
    assert spectral_density(sd, 0.0) == 0.0
    assert spectral_density(sd, 1.0) == pytest.approx(0.05 * math.exp(-1.0), rel=1e-15)
    assert spectral_density(SpectralDensity(eta=0.0), 2.3) == 0.0


def test_ohmic_array_and_cutoff():
    sd = SpectralDensity(eta=0.3, omega_c=2.0)
    w = np.linspace(0.0, 40.0, 101)
    j = spectral_density(sd, w)
    assert j.shape == w.shape
    assert np.all(j >= 0.0)
    assert j[-1] < 1e-7  # integrable tail


def test_invalid_parameters():
    with pytest.raises(DomainError):
        SpectralDensity(eta=-0.1)
    with pytest.raises(DomainError):
        SpectralDensity(eta=0.1, omega_c=0.0)


def test_thermal_factor_values():
    assert thermal_factor(0.4, 0.2) == pytest.approx(1.0 / math.tanh(1.0), rel=1e-15)
    assert thermal_factor(1.0, 0.0) == 1.0


def test_thermal_factor_small_omega_series():
    # independent Laurent series coth(x) = 1/x + x/3 - x^3/45
    x = 0.001 / (2 * 0.2)
    series = 1.0 / x + x / 3.0 - x**3 / 45.0
    assert thermal_factor(0.001, 0.2) == pytest.approx(series, rel=1e-12)
    # classical limit w*coth(w/2T) -> 2T
    w = 1e-6
    assert w * thermal_factor(w, 0.3) == pytest.approx(2 * 0.3, rel=1e-6)


@pytest.mark.parametrize("T,omega_c", [(0.2, 1.0), (5.0, 1.0), (0.01, 2.0)])
def test_thermal_weight_branches_agree_at_switch(T, omega_c):
    # below w_s = 1e-3 min(T, omega_c) the Laurent series replaces 1/tanh;
    # the two must agree on both sides of the switch
    w_s = 1e-3 * min(T, omega_c)
    w = w_s * np.array([0.5, 0.999, 1.0 - 1e-9, 1.0 + 1e-9, 1.001, 2.0])
    laurent = 2.0 * T / w + w / (6.0 * T) - w**3 / (360.0 * T**3)
    direct = 1.0 / np.tanh(w / (2.0 * T))
    np.testing.assert_allclose(laurent, direct, rtol=1e-13, atol=0.0)
    got = _thermal_weight(w, T, omega_c)
    np.testing.assert_allclose(got, direct, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(got, laurent, rtol=1e-13, atol=0.0)


def test_thermal_weight_fails_where_the_series_cube_overflows():
    # 5.643803094122361e102 is the largest float whose cube is finite: the
    # series keeps its bits there, and the next float up fails naming T
    w = np.array([1e-6, 1e-4])
    T = 5.643803094122361e102
    series = 2.0 * T / w + w / (6.0 * T) - w**3 / (360.0 * T**3)
    assert np.array_equal(_thermal_weight(w, T, 1.0), series)
    T_up = math.nextafter(T, math.inf)
    with pytest.raises(DomainError) as err:
        _thermal_weight(w, T_up, 1.0)
    assert str(err.value) == f"thermal weight overflows at T={T_up}: T^3 > float max"


@given(st.floats(0.01, 50.0), st.floats(0.001, 50.0))
def test_thermal_factor_exceeds_one(omega, T):
    # coth saturates to 1.0 in float64 once omega/2T is large
    value = thermal_factor(omega, T)
    assert value >= 1.0
    if omega / (2.0 * T) < 15.0:
        assert value > 1.0


@given(st.floats(0.01, 20.0), st.floats(0.01, 5.0), st.floats(1.01, 3.0))
def test_thermal_factor_monotone_in_T(omega, T, grow):
    if omega / (2.0 * T) < 15.0:
        assert thermal_factor(omega, grow * T) > thermal_factor(omega, T)


@given(st.floats(0.0, 60.0), st.floats(0.001, 2.0), st.floats(0.2, 5.0))
def test_linear_in_eta(omega, eta, omega_c):
    one = SpectralDensity(eta=eta, omega_c=omega_c)
    two = SpectralDensity(eta=2.0 * eta, omega_c=omega_c)
    assert spectral_density(two, omega) == pytest.approx(
        2.0 * spectral_density(one, omega), rel=1e-14)
