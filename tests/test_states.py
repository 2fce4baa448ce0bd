import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

import packetlab as pl


def test_window_basics():
    w = pl.ModeWindow.symmetric(3)
    assert w.dimension == 7
    assert list(w.modes) == [-3, -2, -1, 0, 1, 2, 3]
    b = pl.ModeWindow.bounded_below(3)
    assert b.dimension == 4
    assert list(b.modes) == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        pl.ModeWindow.symmetric(0)


def test_normalize_trivial_cases():
    w = pl.ModeWindow.symmetric(2)
    e0 = np.zeros(5)
    e0[0] = 1.0
    s = pl.normalize(e0, w)
    assert np.allclose(s.coeffs, e0)
    s2 = pl.normalize(2.0 * e0, w)
    assert np.allclose(s2.coeffs, e0)
    ones = pl.normalize(np.ones(5), w)
    assert np.allclose(ones.coeffs, np.full(5, 1 / np.sqrt(5)))
    assert abs(ones.norm - 1.0) < 1e-12


def test_normalize_errors():
    w = pl.ModeWindow.symmetric(2)
    with pytest.raises(pl.ZeroNormError):
        pl.normalize(np.zeros(5), w)
    with pytest.raises(ValueError):
        pl.normalize(np.ones(4), w)
    with pytest.raises(ValueError):
        pl.AngularState(w, np.ones(5))  # not normalized
    with pytest.raises(ValueError):
        pl.AngularState(w, np.full(5, np.nan))  # NaN norm is not unit


def test_coeffs_immutable():
    s = pl.random_state(pl.ModeWindow.symmetric(4), 1)
    with pytest.raises(ValueError):
        s.coeffs[0] = 1.0


W4 = pl.ModeWindow.symmetric(4)


@pytest.mark.parametrize(
    "build, a",
    [
        (lambda a: pl.AngularState(W4, a).coeffs, np.array([1.0] + [0.0] * 8, dtype=complex)),
        (lambda a: pl.GridFunction(a).samples, np.ones(8, dtype=complex)),
        (lambda a: pl.OperatorMatrix(pl.OperatorId.ANGULAR_MOMENTUM, W4, (a,)).data[0], np.arange(-4.0, 5.0)),
        (lambda a: pl.ModulusProfile(a).values, np.full(8, (2.0 * np.pi) ** -0.5)),
        (lambda a: pl.PhaseProfile(a, 0.0, 0.0, 0.0).theta, np.zeros(8)),
        (lambda a: pl.FTable(a, np.ones(2), np.ones(2, dtype=bool)).delta_phi_p, np.array([0.5, 1.0])),
    ],
    ids=["AngularState", "GridFunction", "OperatorMatrix", "ModulusProfile", "PhaseProfile", "FTable"],
)
def test_value_types_hold_their_own_copy(build, a):
    # a value type freezes its own copy: the caller's array stays writeable,
    # and the caller's next write does not reach the value
    held = build(a)
    assert not held.flags.writeable
    assert a.flags.writeable
    assert not np.shares_memory(held, a)
    a[0] = 5.0
    assert held[0] != 5.0


def test_to_grid_pure_modes():
    w = pl.ModeWindow.symmetric(1)
    e = np.zeros(3)
    e[1] = 1.0  # m = 0
    g = pl.to_grid(pl.normalize(e, w), 16)
    assert np.allclose(g.samples, 1 / np.sqrt(2 * np.pi))

    e = np.zeros(3)
    e[2] = 1.0  # m = 1
    g = pl.to_grid(pl.normalize(e, w), 8)
    phis = pl.grid_angles(8)
    assert np.allclose(g.samples, np.exp(1j * phis) / np.sqrt(2 * np.pi), atol=1e-14)


def test_to_grid_undersampled():
    s = pl.random_state(pl.ModeWindow.symmetric(8), 0)
    with pytest.raises(pl.UndersampledError):
        pl.to_grid(s, 2 * 17 - 1)


def test_to_grid_quadrature_normalization():
    s = pl.random_state(pl.ModeWindow.symmetric(20), 5)
    g = pl.to_grid(s, 128)
    power = 2 * np.pi / 128 * np.sum(np.abs(g.samples) ** 2)
    assert abs(power - 1.0) < 1e-10


def test_from_grid_pure_modes():
    w = pl.ModeWindow.symmetric(3)
    G = 32
    const = pl.GridFunction(np.ones(G, dtype=complex))
    s = pl.from_grid(const, w)
    expect = np.zeros(7)
    expect[3] = 1.0
    assert np.allclose(s.coeffs, expect, atol=1e-14)

    phis = pl.grid_angles(G)
    s2 = pl.from_grid(pl.GridFunction(np.exp(2j * phis)), w)
    expect = np.zeros(7)
    expect[5] = 1.0
    assert np.allclose(s2.coeffs, expect, atol=1e-14)


def test_from_grid_vonmises_bessel_coefficients():
    # exp(cos phi) expands in I_m(1): the squeezing-one packet
    w = pl.ModeWindow.symmetric(16)
    phis = pl.grid_angles(256)
    f = np.exp(np.cos(phis))
    s = pl.from_grid(pl.GridFunction(f.astype(complex)), w)
    m = np.abs(w.modes)
    expect = ive(m, 1.0)
    expect = expect / np.linalg.norm(expect)
    got = s.coeffs * np.sign(np.real(s.coeffs[16]))
    assert np.max(np.abs(np.real(got) - expect)) < 1e-10
    assert np.max(np.abs(np.imag(got))) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    M=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_roundtrip_and_parseval_property(M, seed):
    w = pl.ModeWindow.symmetric(M)
    s = pl.random_state(w, seed)
    G = 4 * w.dimension
    G = 1 << (G - 1).bit_length()  # next power of two
    g = pl.to_grid(s, G)
    # Parseval
    power = 2 * np.pi / G * np.sum(np.abs(g.samples) ** 2)
    assert abs(power - 1.0) < 1e-12
    # round trip
    back = pl.from_grid(g, w)
    assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-12
    # second round trip through the grid is the identity as well
    g2 = pl.to_grid(back, G)
    assert np.max(np.abs(g2.samples - g.samples)) < 1e-12


def test_state_json_roundtrip():
    s = pl.random_state(pl.ModeWindow.bounded_below(6), 9)
    text = pl.state_to_json(s)
    payload = json.loads(text)
    assert payload["window"] == {"kind": "boundedBelow", "M": 6}
    assert len(payload["coeffs"]) == 7
    back = pl.state_from_json(text)
    assert back.window == s.window
    assert np.max(np.abs(back.coeffs - s.coeffs)) < 1e-15


def test_default_grid_size():
    assert pl.default_grid_size(pl.ModeWindow.symmetric(64)) == 512
    assert pl.default_grid_size(pl.ModeWindow.symmetric(200)) == 1024


def test_tail_mass_boundary_state():
    w = pl.ModeWindow.symmetric(10)
    c = np.zeros(21)
    c[0] = 1.0  # all mass at m = -10
    assert pl.normalize(c, w).tail_mass() == pytest.approx(1.0)
    c = np.zeros(21)
    c[10] = 1.0  # m = 0
    assert pl.normalize(c, w).tail_mass() == 0.0


def test_rotation_preserves_density_shape():
    s = pl.css_state(pl.CssParams(1.0, 0), pl.ModeWindow.symmetric(32))
    r = s.rotated(0.7)
    m0 = pl.moments(s)
    m1 = pl.moments(r)
    assert m1.mean_cos == pytest.approx(m0.mean_cos * np.cos(0.7), abs=1e-12)
    assert m1.mean_sin == pytest.approx(m0.mean_cos * np.sin(0.7), abs=1e-12)
