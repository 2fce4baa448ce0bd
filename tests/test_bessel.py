import numpy as np
import pytest
from scipy.special import ive

from packetlab import bessel_i_ratios


@pytest.mark.parametrize("x", [1e-3, 0.1, 0.5, 1.0, 2.0, 8.0, 16.0, 25.0])
def test_ratios_match_scipy(x):
    nmax = 60
    got = bessel_i_ratios(nmax, x)
    ref = ive(np.arange(nmax + 1), x) / ive(0, x)
    # compare down to the scale where scipy itself underflows
    mask = ref > 1e-280
    assert np.max(np.abs(got[mask] - ref[mask]) / ref[mask]) < 1e-13


def test_high_order_rescaling():
    got = bessel_i_ratios(300, 16.0)
    ref = ive(np.arange(301), 16.0) / ive(0, 16.0)
    mask = ref > 1e-240
    assert np.max(np.abs(got[mask] - ref[mask]) / np.maximum(ref[mask], 1e-300)) < 1e-12
    # ratios decay monotonically beyond the turning point
    assert np.all(np.diff(got[20:]) <= 0)


@pytest.mark.parametrize("x", [1e3, 2e4])
def test_large_argument(x):
    # the recursion starts above int(x) and rescales many times on the way down
    got = bessel_i_ratios(300, x)
    ref = ive(np.arange(301), x) / ive(0, x)
    assert np.max(np.abs(got - ref) / ref) < 1e-12


def test_zero_argument():
    got = bessel_i_ratios(5, 0.0)
    assert got[0] == 1.0
    assert np.all(got[1:] == 0.0)


def test_errors():
    with pytest.raises(ValueError):
        bessel_i_ratios(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_i_ratios(3, -1.0)
