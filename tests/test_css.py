import numpy as np
import pytest
from scipy.special import i0, ive

import packetlab as pl
from conftest import align_phase, eval_state

W64 = pl.ModeWindow.symmetric(64)


def test_zero_squeezing_is_eigenstate():
    s = pl.css_state(pl.CssParams(0.0, 2), W64)
    expect = np.zeros(129)
    expect[64 + 2] = 1.0
    assert np.max(np.abs(s.coeffs - expect)) < 1e-15


def test_coefficient_ratio_s1():
    s = pl.css_state(pl.CssParams(1.0, 0), W64)
    c0 = s.coeffs[64].real
    c1 = s.coeffs[65].real
    assert c0 / c1 == pytest.approx(ive(0, 1.0) / ive(1, 1.0), abs=1e-12)
    assert c0 / c1 == pytest.approx(2.2401, abs=2e-4)


def test_coefficients_match_grid_transform():
    # generating function against the independent grid-projection route
    for S in (0.5, 1.0, 4.0):
        phis = pl.grid_angles(512)
        f = np.exp(S * np.cos(phis))
        proj = pl.from_grid(pl.GridFunction(f.astype(complex)), W64)
        direct = pl.css_state(pl.CssParams(S, 0), W64)
        aligned = align_phase(proj.coeffs, direct.coeffs)
        assert np.max(np.abs(aligned - direct.coeffs)) < 1e-10


def test_pointwise_values_match_closed_form(gl_rule):
    s = pl.css_state(pl.CssParams(1.0, 0), W64)
    g = pl.to_grid(s, 512)
    phis = pl.grid_angles(512)
    expect = np.exp(np.cos(phis)) / np.sqrt(2 * np.pi * i0(2.0))
    assert np.max(np.abs(g.samples - expect)) < 1e-10


def test_non_integer_ell_rejected():
    with pytest.raises(pl.IntegerWindingError):
        pl.css_state(pl.CssParams(1.0, 0.5), W64)
    with pytest.raises(pl.IntegerWindingError):
        pl.css_moments(pl.CssParams(1.0, 1.2), W64)


@pytest.mark.parametrize("center", [np.nan, np.inf])
def test_non_finite_center_rejected(center):
    with pytest.raises(ValueError):
        pl.CssParams(1.0, 0, center)


def test_tail_mass_guard():
    with pytest.raises(pl.TailMassError):
        pl.css_state(pl.CssParams(8.0, 0), pl.ModeWindow.symmetric(12))
    s = pl.css_state(pl.CssParams(8.0, 0), W64)
    assert s.tail_mass() < 1e-10


@pytest.mark.parametrize("S", [1e7, 1e300])
def test_huge_squeezing_fails_before_the_recursion(S):
    # the Bessel recursion costs O(S); a squeezing that the order-ratio bound
    # already puts outside the window is rejected without running it
    for call in (pl.css_state, pl.css_moments):
        with pytest.raises(pl.TailMassError, match="above 1e-10"):
            call(pl.CssParams(S, 0), W64)


def test_rotated_packet_moments():
    rep = pl.css_moments(pl.CssParams(2.0, 3, center=np.pi / 2), W64)
    r1 = ive(1, 4.0) / ive(0, 4.0)
    assert rep.mean_l == 3.0
    assert rep.mean_sin == pytest.approx(r1, abs=1e-12)
    assert abs(rep.mean_cos) < 1e-12


@pytest.mark.parametrize("ell", [0, 3])
@pytest.mark.parametrize("S", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_saturation_of_sine_relation(ell, S):
    rep = pl.css_moments(pl.CssParams(S, ell), W64)
    lhs = rep.delta_l * np.sqrt(rep.var_sin)
    assert abs(lhs - 0.5 * abs(rep.mean_cos)) < 1e-11


def test_eigen_residual_of_squeezed_state_equation():
    S, ell = 2.0, 1
    s = pl.css_state(pl.CssParams(S, ell), W64)
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, W64)
    B = pl.build(pl.OperatorId.SIN_PHI, W64)
    resid = (L.entries @ s.coeffs - ell * s.coeffs) - 1j * S * (B.entries @ s.coeffs)
    assert np.linalg.norm(resid[1:-1]) < 1e-10


def test_s_to_zero_continuity():
    target = pl.css_state(pl.CssParams(0.0, 1), W64)
    dists = []
    for S in (1.0, 0.5, 0.25, 0.1, 0.01):
        s = pl.css_state(pl.CssParams(S, 1), W64)
        dists.append(np.linalg.norm(s.coeffs - target.coeffs))
    assert all(a > b for a, b in zip(dists, dists[1:]))
    assert dists[-1] < 1e-2


def test_closed_form_moments_match_engine():
    S = 4.0
    rep = pl.css_moments(pl.CssParams(S, 0), W64)
    engine = pl.moments(pl.css_state(pl.CssParams(S, 0), W64))
    for field in (
        "mean_l", "var_l", "mean_cos", "var_cos", "mean_sin", "var_sin",
        "delta_phi_p", "delta_phi_combined",
    ):
        assert getattr(rep, field) == pytest.approx(getattr(engine, field), abs=1e-9)


def test_zero_squeezing_moment_limits():
    rep = pl.css_moments(pl.CssParams(0.0, 2), W64)
    assert rep.var_l == 0.0
    assert rep.mean_cos == 0.0
    assert rep.var_sin == pytest.approx(0.5)
    assert np.isinf(rep.delta_phi_combined)
    assert rep.delta_phi_p == pytest.approx(np.pi / np.sqrt(3), abs=1e-12)


def test_state_normalization_identity():
    # sum_k I_k(S)^2 = I_0(2S) makes the window-restricted vector unit norm
    for S in (0.25, 1.0, 4.0, 8.0):
        s = pl.css_state(pl.CssParams(S, 0), W64)
        assert abs(np.linalg.norm(s.coeffs) - 1.0) < 1e-12
