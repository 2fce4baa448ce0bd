import numpy as np
import pytest
from scipy.special import ive

import packetlab as pl
from conftest import minimized_second_moment_golden, oracle_delta_phi_p, oracle_moments
from packetlab.moments import circular_coefficients, minimized_second_moment

SYM = pl.ModeWindow.symmetric
PI_SQRT3 = np.pi / np.sqrt(3)


def pure_mode(window, m):
    c = np.zeros(window.dimension)
    c[list(window.modes).index(m)] = 1.0
    return pl.normalize(c, window)


def test_eigenstate_moments():
    s = pure_mode(SYM(8), 2)
    rep = pl.moments(s)
    assert rep.mean_l == 2.0
    assert rep.var_l == 0.0
    assert rep.mean_cos == rep.mean_sin == 0.0
    assert rep.var_cos == pytest.approx(0.5, abs=1e-14)
    assert rep.var_sin == pytest.approx(0.5, abs=1e-14)
    assert rep.delta_phi_p == pytest.approx(PI_SQRT3, abs=1e-12)
    assert rep.gamma_star == 0.0
    assert np.isinf(rep.delta_phi_combined)


def test_two_level_superposition():
    w = SYM(4)
    c = np.zeros(9)
    c[4] = c[5] = 1.0
    rep = pl.moments(pl.normalize(c, w))
    assert rep.mean_l == pytest.approx(0.5)
    assert rep.var_l == pytest.approx(0.25)
    assert rep.mean_cos == pytest.approx(0.5)


def test_css_mean_cos():
    rep = pl.moments(pl.css_state(pl.CssParams(1.0, 0), SYM(64)))
    assert rep.mean_cos == pytest.approx(ive(1, 2.0) / ive(0, 2.0), abs=1e-12)
    assert rep.mean_cos == pytest.approx(0.6977, abs=1e-4)


def test_wrong_family():
    s = pl.random_state(pl.ModeWindow.bounded_below(5), 0)
    with pytest.raises(pl.IncompatibleFamilyError):
        pl.moments(s)
    with pytest.raises(pl.IncompatibleFamilyError):
        pl.delta_phi_p(s)


def test_moments_match_quadrature_oracle(gl_rule):
    for seed in range(4):
        s = pl.random_state(SYM(24), seed)
        rep = pl.moments(s)
        ref = oracle_moments(gl_rule, s)
        for k, v in ref.items():
            assert getattr(rep, k) == pytest.approx(v, abs=1e-9), k


def test_delta_phi_p_matches_quadrature_oracle(gl_rule):
    for state in (
        pl.css_state(pl.CssParams(2.0, 0), SYM(32)),
        pl.css_state(pl.CssParams(1.0, 2, center=0.8), SYM(32)),
        pl.random_state(SYM(12), 7),
    ):
        dpp, gamma = pl.delta_phi_p(state)
        ref_dpp, ref_gamma = oracle_delta_phi_p(gl_rule, state)
        assert dpp == pytest.approx(ref_dpp, abs=1e-9)
        assert gamma == pytest.approx(ref_gamma, abs=1e-6)


def two_packets(S, a, weight):
    """Squeezed packets at +a and -a, the second one weighted."""
    c = pl.css_state(pl.CssParams(S, 0, a), SYM(64)).coeffs
    c = c + weight * pl.css_state(pl.CssParams(S, 0, -a), SYM(64)).coeffs
    return pl.normalize(c, SYM(64))


def gamma_test_states():
    """Haar-random states at M = 4..128, squeezed states with random centres,
    two-packet superpositions (every other one mirror-symmetric) and, last,
    five exact ties at gamma* = 0: packets at +-pi/2, whose density repeats
    after pi so that V(0) = V(pi), and four eigenstates."""
    rng = np.random.default_rng(2024)
    out = []
    for M in (4, 8, 16, 32, 64, 128):
        out += [pl.random_state(SYM(M), int(rng.integers(2**31))) for _ in range(20)]
    for M in (32, 64, 128):
        for _ in range(20):
            params = pl.CssParams(
                rng.uniform(0.1, 12.0), int(rng.integers(-4, 5)), rng.uniform(-np.pi, np.pi)
            )
            out.append(pl.css_state(params, SYM(M)))
    for i in range(23):
        weight = 1.0 if i % 2 == 0 else rng.uniform(0.3, 1.5)
        out.append(two_packets(rng.uniform(1.0, 10.0), rng.uniform(0.2, np.pi), weight))
    out.append(two_packets(rng.uniform(1.0, 10.0), np.pi / 2, 1.0))
    out += [pure_mode(SYM(16), m) for m in (-3, 0, 2, 7)]
    return out


def angle_gap(a: float, b: float) -> float:
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


def test_gamma_newton_matches_golden_section_oracle():
    states = gamma_test_states()
    assert len(states) >= 200
    for state in states:
        bk = circular_coefficients(state)
        v, gamma = minimized_second_moment(bk)
        v_ref, gamma_ref = minimized_second_moment_golden(bk)
        assert abs(v - v_ref) <= 1e-12 * max(1.0, v_ref)
        assert angle_gap(gamma, gamma_ref) <= 1e-7
    for state in states[-5:]:
        assert minimized_second_moment(circular_coefficients(state))[1] == 0.0


def test_gamma_star_of_mirrored_minima_is_positive():
    # an even density (c_m = c_{-m} real) has mirrored minima +-gamma0 that
    # tie in V and in |gamma| to roundoff; the positive one is returned, and
    # a minimum at the seam as pi
    rng = np.random.default_rng(3)
    mirrored = 0
    for _ in range(100):
        M = int(rng.integers(2, 33))
        half = rng.standard_normal(M + 1)
        state = pl.normalize(np.concatenate([half[:0:-1], half]).astype(complex), SYM(M))
        bk = circular_coefficients(state)
        v, gamma = minimized_second_moment(bk)
        assert 0.0 <= gamma <= np.pi
        if 0.0 < gamma < np.pi:
            mirrored += 1
            ks = np.arange(1, bk.size)
            v_mirror = np.pi**2 / 3 + np.sum(4 * (-1.0) ** ks / ks**2 * bk[1:] * np.exp(-1j * ks * gamma)).real
            assert v_mirror == pytest.approx(v, abs=1e-12)
    assert mirrored >= 30


def dense_second_moment(bk: np.ndarray, n: int = 2**16) -> np.ndarray:
    """V(gamma) at gamma = 2 pi j / n, j = 0..n-1, by one FFT of the series."""
    ks = np.arange(1, bk.size)
    series = np.zeros(n, dtype=complex)
    series[ks] = 4 * (-1.0) ** ks / ks**2 * bk[1:]
    return np.pi**2 / 3 + (n * np.fft.ifft(series)).real


@pytest.mark.parametrize("eps", [0.0, 1e-5])
@pytest.mark.parametrize("M", [6, 24])
def test_gamma_star_between_grid_points_is_found(M, eps):
    # threefold ties at gamma = pi and +-pi/3 (c_0 = 1, c_{+-3} = -0.6 at
    # M = 6; three S = 8 packets at M = 24), then the pi/3 minimum lowered
    # by eps: the tie goes to +pi/3, and V(gamma_star) is the dense minimum
    # although the coarse grid value nearest pi/3 lies ~1e-5 above pi's
    W = SYM(M)
    if M == 6:
        c = np.zeros(W.dimension, dtype=complex)
        c[[3, 6, 9]] = -0.6, 1.0, -0.6
    else:
        c = sum(pl.css_state(pl.CssParams(8.0, 0, center=x), W).coeffs for x in (np.pi, np.pi / 3, -np.pi / 3))
    bump = pl.css_state(pl.CssParams(0.5, 0, center=np.pi / 3), W).coeffs
    bk = circular_coefficients(pl.normalize(c + eps * bump, W))
    v, gamma = minimized_second_moment(bk)
    assert v <= np.min(dense_second_moment(bk)) + 1e-12
    assert gamma == pytest.approx(np.pi / 3, abs=1e-12)


def test_gamma_star_matches_extended_precision_newton():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(77)
    states = [pl.random_state(SYM(M), s) for s, M in enumerate((4, 8, 16, 24, 32, 48, 64) * 2)]
    states += [
        pl.css_state(
            pl.CssParams(rng.uniform(0.2, 10.0), int(rng.integers(-3, 4)), rng.uniform(-np.pi, np.pi)),
            SYM(M),
        )
        for M in (32, 48, 64) * 2
    ]
    for state in states:
        bk = circular_coefficients(state)
        _, gamma = minimized_second_moment(bk)
        ks = range(1, bk.size)
        # the double coefficients, taken exactly
        c = [4 * (-1) ** k * mpmath.mpc(complex(bk[k])) / k**2 for k in ks]
        g = mpmath.mpf(gamma)
        for _ in range(6):
            e = [mpmath.expj(k * g) for k in ks]
            d1 = -mpmath.im(mpmath.fsum(k * ck * ek for k, ck, ek in zip(ks, c, e)))
            d2 = -mpmath.re(mpmath.fsum(k * k * ck * ek for k, ck, ek in zip(ks, c, e)))
            g -= d1 / d2
        assert d2 > 0
        assert abs(float(g - gamma)) <= 1e-13


def test_delta_phi_p_narrow_packet():
    dpp, gamma = pl.delta_phi_p(pl.css_state(pl.CssParams(50.0, 0), SYM(256)))
    assert dpp < 0.12
    assert abs(gamma) < 1e-6


def test_delta_phi_p_shift_covariance():
    base = pl.css_state(pl.CssParams(2.0, 0), SYM(64))
    dpp0, _ = pl.delta_phi_p(base)
    gamma0 = 1.0
    shifted = pl.normalize(base.coeffs * np.exp(1j * base.window.modes * gamma0), base.window)
    dpp1, gstar = pl.delta_phi_p(shifted)
    assert dpp1 == pytest.approx(dpp0, abs=1e-9)
    assert gstar == pytest.approx(-gamma0, abs=1e-12)


def test_delta_phi_p_rotation_and_phase_invariance():
    s = pl.random_state(SYM(16), 3)
    dpp0, gamma0 = pl.delta_phi_p(s)
    rot = s.rotated(0.9)
    dpp1, gamma1 = pl.delta_phi_p(rot)
    assert dpp1 == pytest.approx(dpp0, abs=1e-9)
    assert angle_gap(gamma1, gamma0 + 0.9) <= 1e-12
    # a global phase changes nothing
    rep0 = pl.moments(s)
    rep1 = pl.moments(pl.AngularState(s.window, s.coeffs * np.exp(0.3j)))
    for field in rep0.__dataclass_fields__:
        assert getattr(rep1, field) == pytest.approx(getattr(rep0, field), abs=1e-13)


def test_delta_phi_p_range_bound():
    for seed in range(20):
        s = pl.random_state(SYM(16), seed)
        dpp, _ = pl.delta_phi_p(s)
        assert 0.0 <= dpp <= PI_SQRT3 + 1e-9


def test_eigenstate_margins():
    margins = {m.relation: m for m in pl.relation_margins(pure_mode(SYM(6), 3))}
    cos_rel = margins[pl.Relation.COS_RELATION]
    assert cos_rel.lhs == 0.0 and cos_rel.rhs == 0.0 and cos_rel.satisfied
    assert margins[pl.Relation.COMBINED_PHI].satisfied


def test_naive_robertson_violated_by_broad_state():
    w = SYM(16)
    c = np.zeros(33)
    c[16] = 1.0
    c[15] = c[17] = 0.05
    margins = {m.relation: m for m in pl.relation_margins(pl.normalize(c, w))}
    naive = margins[pl.Relation.NAIVE_ROBERTSON]
    assert naive.lhs < naive.rhs  # the naive bound fails
    assert not naive.satisfied
    # while the coordinate relations hold
    assert margins[pl.Relation.COS_RELATION].satisfied
    assert margins[pl.Relation.SIN_RELATION].satisfied
    assert margins[pl.Relation.COMBINED_PHI].satisfied


def test_narrow_css_satisfies_naive():
    s = pl.css_state(pl.CssParams(25.0, 0), SYM(128))
    margins = {m.relation: m for m in pl.relation_margins(s)}
    assert margins[pl.Relation.NAIVE_ROBERTSON].satisfied


def test_random_states_satisfy_coordinate_relations():
    for seed in range(60):
        s = pl.random_state(SYM(32), seed)
        rep = pl.moments(s)
        dl = rep.delta_l
        assert dl * np.sqrt(rep.var_cos) >= 0.5 * abs(rep.mean_sin) - 1e-12
        assert dl * np.sqrt(rep.var_sin) >= 0.5 * abs(rep.mean_cos) - 1e-12
        assert dl * rep.delta_phi_combined > 0.5


def test_combined_margin_css_monotone_decreasing():
    margins = []
    for S in (1.0, 2.0, 4.0, 8.0):
        rep = pl.css_moments(pl.CssParams(S, 0), SYM(64))
        margins.append(rep.delta_l * rep.delta_phi_combined - 0.5)
    assert all(m > 0 for m in margins)
    assert all(a > b for a, b in zip(margins, margins[1:]))


def test_modified_judge_margin_with_table():
    table = pl.FTable(
        np.array([0.1, 1.0, 1.8]), np.array([1.0, 1.7, 4.3]), np.array([True] * 3)
    )
    s = pl.css_state(pl.CssParams(2.0, 0), SYM(64))
    margins = {m.relation: m for m in pl.relation_margins(s, table)}
    assert pl.Relation.MODIFIED_JUDGE in margins
    mj = margins[pl.Relation.MODIFIED_JUDGE]
    rep = pl.moments(s)
    denom = 1 - 3 * rep.delta_phi_p**2 / np.pi**2
    assert mj.lhs == pytest.approx(rep.delta_l * rep.delta_phi_p / denom)
    assert mj.rhs == pytest.approx(0.5 * np.sqrt(table.interpolate(rep.delta_phi_p)))
    # without a table the margin is absent
    assert pl.Relation.MODIFIED_JUDGE not in {
        m.relation for m in pl.relation_margins(s)
    }


def test_report_csv_row_format(capsys):
    # the moment CSV leaves out tailMass, which the JSON carries
    from packetlab.cli import main

    assert main(["css", "--S", "1", "--ell", "0", "-M", "32", "--output", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert len(row.split(",")) == 9
    assert header.startswith("meanL,varL,meanCos") and "tailMass" not in header


def test_circular_coefficients_convention():
    # b_k = sum_m conj(c_m) c_{m+k}, checked against an explicit loop
    from packetlab.moments import circular_coefficients

    s = pl.random_state(SYM(5), 11)
    bk = circular_coefficients(s)
    c = s.coeffs
    for k in range(c.size):
        ref = sum(np.conj(c[i]) * c[i + k] for i in range(c.size - k))
        assert bk[k] == pytest.approx(ref, abs=1e-14)
