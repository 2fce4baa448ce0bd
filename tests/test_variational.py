import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import packetlab as pl
from conftest import (
    antiperiodic_modulus,
    f_table_lbfgsb,
    f_table_via_moments,
    first_integral,
    full_window_ground_state,
    linear_phase_floor,
    minimize_phase_lbfgsb,
    sector_ground_state_mp,
)
from packetlab import variational
from packetlab.cli import main

G = 512
PI_SQRT3 = np.pi / np.sqrt(3)
# target grid of acceptance criterion 5, as fractions of pi/sqrt(3)
CRITERION_5_FRACTIONS = [0.05, 0.1, 0.15, 0.25, 0.4, 0.55, 0.7, 0.85, 0.9, 0.95, 0.97, 0.99]
# moduli and windings of acceptance criterion 6
CRITERION_6_SEEDS = range(100, 120)
CRITERION_6_WINDINGS = (-2, -1, 0, 1, 2, 0.5, -0.5)


def test_import_leaves_scipy_optimize_unloaded():
    # no scipy module at all, scipy.optimize included: scipy is imported by
    # the functions that call it, so the commands that never need it (css,
    # moments, relations, f-scan, floor) start without it
    src = str(Path(pl.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import packetlab; "
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


def test_phase_min_leaves_scipy_unloaded():
    # the phase minimizer is a closed form checked by numpy: phase-min runs
    # without any scipy module
    src = str(Path(pl.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from packetlab.cli import main; "
        "code = main(['phase-min', '--winding', '1']); "
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "assert code == 0 and not loaded, (code, loaded)"
    )
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)


def test_modulus_profile_normalization():
    r = pl.modulus_profile(np.ones(G))
    assert abs(2 * np.pi / G * np.sum(r.values**2) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        pl.ModulusProfile(np.ones(G))  # not normalized
    with pytest.raises(ValueError):
        pl.modulus_profile(np.zeros(G))


@pytest.mark.parametrize("values", [[], np.ones(4), np.ones((2, 8))])
def test_modulus_profile_rejects_bad_shape(values):
    # the shape is checked before the power is, so an empty array is a
    # ValueError, not a division by its zero size
    with pytest.raises(ValueError, match="need a 1-d modulus vector of length >= 8"):
        pl.modulus_profile(values)


def test_delta_l_pure_winding():
    r = pl.uniform_modulus(G)
    theta = pl.linear_phase(G, 2)
    assert pl.delta_l_of(r, theta) == pytest.approx(0.0, abs=1e-10)
    assert pl.mean_l_of(r, theta) == pytest.approx(2.0, abs=1e-10)


def test_delta_l_matches_moment_engine():
    phis = pl.grid_angles(G)
    r = pl.modulus_profile(1.0 + np.cos(phis))
    theta = pl.linear_phase(G, 0)
    dl = pl.delta_l_of(r, theta)
    w = pl.ModeWindow.symmetric(64)
    state = pl.from_grid(pl.GridFunction(r.values.astype(complex)), w)
    rep = pl.moments(state)
    assert dl == pytest.approx(rep.delta_l, abs=1e-9)


def test_half_winding_on_antiperiodic_modulus_hits_floor():
    r = pl.half_winding_modulus(G)
    theta = pl.linear_phase(G, 0.5)
    assert pl.delta_l_of(r, theta) == pytest.approx(0.5, abs=1e-12)
    assert pl.mean_l_of(r, theta) == pytest.approx(0.5, abs=1e-12)


def test_grid_mismatch():
    with pytest.raises(ValueError):
        pl.delta_l_of(pl.uniform_modulus(G), pl.linear_phase(G // 2, 1))


def test_minimize_phase_uniform():
    prof, dl = pl.minimize_phase(pl.uniform_modulus(G), 1)
    assert dl == pytest.approx(0.0, abs=1e-9)
    assert prof.slope == 1.0
    assert prof.fit_residual < 1e-8
    assert pl.mean_l_of(pl.uniform_modulus(G), prof) == pytest.approx(1.0, abs=1e-10)


def test_minimize_phase_vonmises_matches_css():
    # modulus of the squeezing-one packet: kappa = 2S
    r = pl.vonmises_modulus(G, 2.0)
    prof, dl = pl.minimize_phase(r, 0)
    rep = pl.css_moments(pl.CssParams(1.0, 0), pl.ModeWindow.symmetric(64))
    assert dl == pytest.approx(rep.delta_l, abs=1e-9)


def test_minimize_phase_winding_is_topological():
    r = pl.random_smooth_modulus(G, 3)
    for w in (-2, -1, 0, 1, 2):
        prof, _ = pl.minimize_phase(r, w)
        assert prof.slope == float(w)
        assert pl.mean_l_of(r, prof) == pytest.approx(w, abs=1e-8)


def test_minimize_phase_half_integer_floor():
    # half-integer windings are admissible on the antiperiodic modulus only
    periodic, r = pl.random_smooth_modulus(G, 11), antiperiodic_modulus(G, 11)
    for w in (0.5, -0.5):
        assert pl.minimize_phase(periodic, w)[0].admissible is False
        with pytest.warns(pl.ModulusZeroWarning):
            prof, dl = pl.minimize_phase(r, w)
        assert prof.admissible and prof.certified
        assert dl >= 0.5 - 1e-9
        assert dl == pytest.approx(linear_phase_floor(r.values, w), rel=1e-13)


def test_minimize_phase_meets_linear_phase_floor_on_criterion_6_moduli():
    # a nowhere-vanishing periodic modulus: the minimum over phases of
    # integer winding w is the linear phase's ||(D - i w) psi|| = ||r'||
    for seed in CRITERION_6_SEEDS:
        r = pl.random_smooth_modulus(G, seed)
        for w in (-2, -1, 1, 2):
            _, dl = pl.minimize_phase(r, w)
            assert dl == pytest.approx(linear_phase_floor(r.values, w), rel=1e-13)


# (1 + a cos phi) cos(phi/2) e^{i phi/2} has the modes -1, 0, 1, 2 with
# weights a/4, (1 + a/2)/2, (1 + a/2)/2, a/4; at a = 0.3, <L> = 1/2 and
# (Delta L)^2 = 287/538 - 1/4 = 305/1076.  At a = 0 (cos(phi/2)),
# Delta L = 1/2.
@pytest.mark.parametrize("ripple, floor", [(0.3, np.sqrt(305 / 1076)), (0.0, 0.5)])
@pytest.mark.parametrize("grid", [128, 512, 1024])
def test_minimize_phase_meets_linear_phase_floor_at_half_winding(ripple, floor, grid):
    phi = pl.grid_angles(grid)
    r = pl.modulus_profile((1.0 + ripple * np.cos(phi)) * np.cos(0.5 * phi))
    assert linear_phase_floor(r.values, 0.5) == pytest.approx(floor, rel=1e-14)
    # cos(phi/2) vanishes at the grid point -pi
    with pytest.warns(pl.ModulusZeroWarning):
        _, dl = pl.minimize_phase(r, 0.5)
    assert dl == pytest.approx(floor, rel=1e-13)


def test_admissibility_is_decided_at_the_seam():
    phi = pl.grid_angles(G)
    # one sign at both ends of [-pi, pi): integer windings only, however
    # often r changes sign in between
    for r in (pl.uniform_modulus(G), pl.modulus_profile(np.cos(phi))):
        assert r.admits(2) and r.admits(0) and not r.admits(0.5) and not r.admits(-1.5)
    # opposite signs: half-integer windings only
    r = pl.modulus_profile(np.cos(0.5 * phi + 0.3))
    assert r.admits(0.5) and r.admits(-1.5) and not r.admits(1) and not r.admits(0)
    # a seam sample at the zero level admits both classes
    for r in (pl.half_winding_modulus(G), antiperiodic_modulus(G, 3)):
        assert r.admits(0.5) and r.admits(1)
    assert pl.modulus_profile(np.roll(pl.half_winding_modulus(G).values, -1)).admits(0)


def test_inadmissible_pair_is_returned_not_raised():
    # the linear phase of a half-integer winding on a positive modulus: psi
    # jumps at the seam, and the grid's Delta L of that jump grows with G
    prof, dl = pl.minimize_phase(pl.vonmises_modulus(G, 2.0), 0.5)
    assert prof.admissible is False and prof.certified is False
    assert prof.fit_residual == 0.0 and dl >= 0.5


def test_minimize_phase_certificate_sees_saddles():
    # |cos(phi/2)| at winding 0 is stationary on the grid but a saddle: the
    # gradient alone would certify it
    with pytest.warns(pl.ModulusZeroWarning):
        prof, _ = pl.minimize_phase(pl.half_winding_modulus(64), 0)
    assert prof.admissible and prof.gradient_norm <= 1e-12
    assert prof.least_curvature < 0.0 and prof.certified is False
    # integer windings off the zero: the gradient is not small
    with pytest.warns(pl.ModulusZeroWarning):
        prof, _ = pl.minimize_phase(pl.half_winding_modulus(128), 1)
    assert prof.least_curvature > 0.0 and prof.certified is False


def test_minimize_phase_raises_when_a_positive_modulus_does_not_certify():
    # von Mises at G = 16 is too coarse for the linear phase to be
    # stationary on the grid
    with pytest.raises(pl.ConvergenceError):
        pl.minimize_phase(pl.vonmises_modulus(16, 2.0), 1)


def test_minimize_phase_rejects_windings_the_grid_aliases():
    # e^{i w phi} on G points is e^{i (w - G) phi}: these once certified
    # <L> = -3, 0, -212 and -24
    for r, w in ((pl.uniform_modulus(8), 5), (pl.uniform_modulus(8), 4), (pl.uniform_modulus(8), -4),
                 (pl.vonmises_modulus(512, 2.0), 300), (pl.vonmises_modulus(512, 2.0), 1000)):
        with pytest.raises(pl.UndersampledError, match="aliases"):
            pl.minimize_phase(r, w)
    # just below G/2 the winding stands
    r = pl.uniform_modulus(8)
    prof, dl = pl.minimize_phase(r, 3)
    assert prof.certified and dl == pytest.approx(0.0, abs=1e-9)
    assert pl.mean_l_of(r, prof) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("grid", [8, 16, 64])
def test_certificate_basis_never_aliases(grid):
    # 40 harmonics on 64 points would alias: a rank-deficient Hessian with
    # least eigenvalue ~ -1e-13 even where the linear phase is the minimum
    with pytest.warns(pl.ModulusZeroWarning):
        prof, dl = pl.minimize_phase(pl.half_winding_modulus(grid), 0.5)
    assert prof.certified and prof.least_curvature > 1e-3
    assert dl == pytest.approx(0.5, abs=1e-12)


def test_minimize_phase_bad_winding():
    with pytest.raises(pl.IntegerWindingError):
        pl.minimize_phase(pl.uniform_modulus(G), 0.3)


def test_modulus_zero_warning():
    r = pl.half_winding_modulus(G)
    with pytest.warns(pl.ModulusZeroWarning):
        pl.minimize_phase(r, 0.5)


def test_first_integral_constant_at_minimum():
    r = pl.random_smooth_modulus(G, 23)
    prof, _ = pl.minimize_phase(r, 1)
    fi = first_integral(r, prof)
    assert np.max(np.abs(fi - np.mean(fi))) <= 1e-6


def test_f_table_basics():
    targets = np.array([0.35, 0.6, 0.9, 1.2]) * PI_SQRT3 / PI_SQRT3  # radians
    table = pl.f_table([0.4, 0.8, 1.2])
    assert np.all(table.converged)
    assert table.is_monotone
    assert np.all(table.f >= 1.0 - 1e-3)
    assert np.all(np.abs(table.delta_phi_p - [0.4, 0.8, 1.2]) < 1e-6)


@pytest.mark.parametrize("m", [0, 3])
def test_f_table_matches_moments_oracle(m):
    # the oracle shifts each ground state by m modes and searches gamma;
    # f_table reads the unshifted state with gamma* = 0
    targets = [0.04] + [f * PI_SQRT3 for f in CRITERION_5_FRACTIONS]
    oracle = f_table_via_moments(targets, m)
    table = pl.f_table(targets)
    assert np.max(np.abs(table.f - oracle.f) / oracle.f) <= 1e-11
    assert np.max(np.abs(table.delta_phi_p - oracle.delta_phi_p)) <= 1e-13
    assert np.array_equal(table.converged, oracle.converged)


def test_ground_state_needs_no_gamma_search():
    # rotating |0> keeps <L^2>, so the ground state of L^2 + mu Phi_p^2
    # already has the smallest <phi_p^2> of its rotations: gamma* = 0
    window = pl.ModeWindow.symmetric(variational.F_MODES)
    L2 = np.diag(window.modes.astype(float) ** 2)
    P2 = pl.build(pl.OperatorId.PHI_P_SQUARED, window).entries.real
    for mu in np.logspace(-2, 4, 13):
        c = np.linalg.eigh(L2 + mu * P2)[1][:, 0]
        dp, gamma = pl.delta_phi_p(pl.normalize(c, window))
        direct = np.sqrt(c @ P2 @ c)
        assert abs(dp - direct) <= 1e-13 * direct, mu
        assert abs(gamma) <= 1e-13, mu


def _ground_state_spreads(v, window, P):
    """(Delta L)^2 about the mean and Delta phi_p of a real window vector."""
    modes = window.modes.astype(float)
    c2 = v**2
    return float(modes**2 @ c2 - (modes @ c2) ** 2), float(np.sqrt(v @ P @ v))


def test_even_sector_matches_full_window():
    window = pl.ModeWindow.symmetric(variational.F_MODES)
    S, L2, P2 = variational._even_sector(window)
    P = pl.build(pl.OperatorId.PHI_P_SQUARED, window).entries.real
    F = variational.F_MODES
    k = np.arange(1, F + 1)
    assert np.max(np.abs(S.T @ S - np.eye(F + 1))) <= 1e-15
    # the fold: <0|P|0>, sqrt2 <0|P|k> and <j|P|k> + <j|P|-k>
    assert P2[0, 0] == P[F, F]
    assert np.allclose(P2[0, 1:], np.sqrt(2.0) * P[F, F + k], rtol=1e-15, atol=0)
    assert np.allclose(P2[1:, 1:], P[np.ix_(F + k, F + k)] + P[np.ix_(F + k, F - k)], rtol=1e-14, atol=1e-17)
    for mu in np.logspace(-3, 5, 9):
        vs = S @ np.linalg.eigh(L2 + mu * P2)[1][:, 0]
        v = full_window_ground_state(mu, F)
        v *= np.sign(v @ vs)
        # measured over these mu: vectors and parity <= 3.0e-13, Delta phi_p
        # <= 3.7e-13 and (Delta L)^2 <= 1.5e-10 relative (at mu = 1e-3, where
        # the full window is the less accurate of the two; see
        # test_even_sector_matches_mpmath); every bound is 3x or more above
        assert np.max(np.abs(v - v[::-1])) <= 1e-12, mu  # the ground state is even
        assert np.max(np.abs(v - vs)) <= 1e-12, mu
        (l2, dp), (l2s, dps) = _ground_state_spreads(v, window, P), _ground_state_spreads(vs, window, P)
        assert abs(l2 - l2s) <= 5e-10 * l2s, mu
        assert abs(dp - dps) <= 2e-12, mu


@pytest.mark.parametrize("mu", [1e-3, 3e-3, 0.3])
def test_even_sector_matches_mpmath(mu):
    pytest.importorskip("mpmath")
    window = pl.ModeWindow.symmetric(variational.F_MODES)
    S, L2, P2 = variational._even_sector(window)
    P = pl.build(pl.OperatorId.PHI_P_SQUARED, window).entries.real
    ref_l2, ref_dp = sector_ground_state_mp(L2, P2, mu)
    ref_l2, ref_dp = float(ref_l2), float(ref_dp)
    l2, dp = _ground_state_spreads(S @ np.linalg.eigh(L2 + mu * P2)[1][:, 0], window, P)
    # measured: (Delta L)^2 <= 9.7e-14 relative and Delta phi_p <= 3.7e-14
    # (at mu = 0.3); bounds about 10x above
    L2_TOL, DP_TOL = 1e-12, 3e-13
    assert abs(l2 - ref_l2) <= L2_TOL * ref_l2
    assert abs(dp - ref_dp) <= DP_TOL
    if mu == 1e-3:
        # the full window's roundoff misses the (Delta L)^2 bound at the
        # widest packet (measured 1.5e-10 relative): the check discriminates
        l2_full, _ = _ground_state_spreads(full_window_ground_state(mu, variational.F_MODES), window, P)
        assert abs(l2_full - ref_l2) > L2_TOL * ref_l2


def test_f_table_errors():
    with pytest.raises(ValueError):
        pl.f_table([0.0])
    with pytest.raises(ValueError):
        pl.f_table([PI_SQRT3])


def test_f_table_rows_ascend():
    # interpolate reads the points as sorted: unsorted rows once
    # interpolated to 1.0 where the sorted table gives 2.747
    with pytest.raises(ValueError, match="ascending"):
        pl.FTable(np.array([1.8, 0.1]), np.array([4.3, 1.0]), np.array([True, True]))
    table = pl.FTable(np.array([0.1, 1.8]), np.array([1.0, 4.3]), np.array([True, True]))
    assert table.interpolate(1.0) == pytest.approx(1.0 + 3.3 * 0.9 / 1.7, rel=1e-15)
    # a repeated point stays allowed: f_table repeats repeated targets
    pl.FTable(np.array([0.5, 0.5]), np.array([2.0, 2.0]), np.array([True, True]))


@pytest.mark.parametrize("flag", ["nan", "2", "-1", "0.5"])
def test_read_f_table_converged_is_0_or_1(flag):
    rows = ["deltaPhiP,f,converged", "0.5,1.2,1", f"1.0,1.7,{flag}"]
    with pytest.raises(ValueError, match="0 or 1"):
        pl.read_f_table(rows)
    assert pl.read_f_table(rows[:2] + ["1.0,1.7,0"]).converged.tolist() == [True, False]


def test_f_table_csv_roundtrip():
    table = pl.f_table([0.5, 1.0])
    rows = table.to_csv_rows()
    assert rows[0] == "deltaPhiP,f,converged"
    back = pl.read_f_table(rows)
    assert np.allclose(back.delta_phi_p, table.delta_phi_p)
    assert np.allclose(back.f, table.f)
    assert back.interpolate(0.75) == pytest.approx(
        np.interp(0.75, table.delta_phi_p, table.f)
    )


@pytest.fixture(scope="module")
def criterion_6_runs():
    runs = {}
    for seed in CRITERION_6_SEEDS:
        r = pl.random_smooth_modulus(G, seed)
        for w in CRITERION_6_WINDINGS:
            runs[seed, w] = pl.minimize_phase(r, w)
    return runs


def test_minimize_phase_reports_certificate(criterion_6_runs):
    built = pl.linear_phase(G, 1)
    assert built.admissible is None and built.gradient_norm is None
    assert built.least_curvature is None and built.certified is None
    assert len(criterion_6_runs) == 140
    for (seed, w), (prof, _) in criterion_6_runs.items():
        if w == round(w):
            # measured: |grad|^2 / (2 lam) <= 1e-24 on these runs
            assert prof.admissible and prof.certified, (seed, w)
            assert prof.gradient_norm**2 / (2.0 * prof.least_curvature) <= 1e-20, (seed, w)
        else:
            # a half-integer winding on a positive (periodic) modulus
            assert prof.admissible is False and prof.certified is False, (seed, w)


def test_minimize_phase_matches_lbfgsb_oracle(criterion_6_runs):
    for (seed, w), (_, dl) in criterion_6_runs.items():
        if w != round(w):
            continue
        _, dl_oracle = minimize_phase_lbfgsb(pl.random_smooth_modulus(G, seed), w)
        assert abs(dl - dl_oracle) <= 1e-12 * dl_oracle, (seed, w)
    # half-integer windings on the antiperiodic moduli, where they are admissible
    for seed in CRITERION_6_SEEDS:
        r = antiperiodic_modulus(G, seed)
        for w in (0.5, -0.5):
            with pytest.warns(pl.ModulusZeroWarning):
                _, dl = pl.minimize_phase(r, w)
                _, dl_oracle = minimize_phase_lbfgsb(r, w)
            # never above the oracle: a higher value would soften the
            # half-integer floor of criterion 6
            assert dl <= dl_oracle * (1.0 + 1e-12), (seed, w)


@pytest.mark.parametrize("grid", [256, 512])
@pytest.mark.parametrize("winding", [1, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_objective_derivatives_match_finite_differences(grid, winding, seed):
    phi = pl.grid_angles(grid)
    ns = np.arange(1, variational.PHASE_HARMONICS + 1)
    basis = np.hstack([np.cos(np.outer(phi, ns)), np.sin(np.outer(phi, ns))])
    n = basis.shape[1]
    rng = np.random.default_rng(seed)
    x = 0.1 * rng.standard_normal(n) / np.tile(ns, 2)
    args = (pl.random_smooth_modulus(grid, 40 + seed).values, winding * phi, basis)
    _, grad, hess = variational._phase_objective(x, *args, hessian=True)
    step = 1e-6 * np.linalg.norm(x)
    eye = np.eye(n)
    fd_grad = np.array([
        (variational._phase_objective(x + step * e, *args)[0]
         - variational._phase_objective(x - step * e, *args)[0]) / (2.0 * step)
        for e in eye
    ])
    fd_hess = np.array([
        (variational._phase_objective(x + step * e, *args)[1]
         - variational._phase_objective(x - step * e, *args)[1]) / (2.0 * step)
        for e in eye
    ])
    assert np.linalg.norm(fd_grad - grad) <= 1e-6 * np.linalg.norm(grad)
    assert np.linalg.norm(fd_hess - hess) <= 1e-6 * np.linalg.norm(hess)
    assert np.linalg.norm(hess - hess.T) <= 1e-12 * np.linalg.norm(hess)


def test_f_table_explains_each_point():
    table = pl.f_table([0.4, 0.8, 1.2])
    assert table.rounds.dtype.kind == "i"
    assert np.all((table.rounds >= 1) & (table.rounds <= variational.F_MAX_OUTER))
    assert np.all(table.violation <= variational.F_NEWTON_TOL)
    assert np.array_equal(table.converged, table.violation <= variational.F_NEWTON_TOL)
    for name in ("rounds", "violation"):
        with pytest.raises(ValueError):
            getattr(table, name)[0] = 0
    # the CSV form is unchanged; a table read back did not record them
    assert all(len(row.split(",")) == 3 for row in table.to_csv_rows())
    back = pl.read_f_table(table.to_csv_rows())
    assert np.all(back.rounds == 0) and np.all(np.isnan(back.violation))
    with pytest.raises(ValueError):
        pl.FTable(table.delta_phi_p, table.f, table.converged, rounds=np.ones(2, dtype=int))


@pytest.mark.parametrize(
    "targets, grid",
    [([0.4, 0.8, 1.2], 256), ([f * PI_SQRT3 for f in CRITERION_5_FRACTIONS], 512)],
    ids=["grid256", "criterion5"],
)
def test_f_table_matches_lbfgsb_oracle(targets, grid):
    # compared at the oracle's own spreads: the oracle stops anywhere inside
    # its 1e-6 constraint band, while f_table meets its targets to roundoff
    oracle = f_table_lbfgsb(targets, grid=grid)
    table = pl.f_table(oracle.delta_phi_p)
    assert np.all(table.converged) and np.all(oracle.converged)
    assert table.is_monotone
    assert np.max(np.abs(table.f - oracle.f) / oracle.f) <= 1e-7
    assert np.max(np.abs(table.delta_phi_p - oracle.delta_phi_p) / oracle.delta_phi_p) <= 1e-7


@pytest.mark.parametrize(
    "targets",
    [[f * PI_SQRT3 for f in CRITERION_5_FRACTIONS], np.linspace(0.03, 0.999 * PI_SQRT3, 60)],
    ids=["criterion5", "sweep60"],
)
def test_f_table_meets_targets_to_roundoff(targets):
    table = pl.f_table(targets)
    assert np.max(np.abs(table.delta_phi_p - targets)) <= 1e-9
    # below Delta phi_p ~ 0.05 the window no longer resolves the ground
    # state (see test_f_table_flags_unresolved_ground_state)
    assert np.array_equal(table.converged, np.asarray(targets) > 0.05)


def test_f_table_flags_unresolved_ground_state():
    # at Delta phi_p = 0.04 the ground state leaves 2.8e-6 of its mass in
    # the outer tenth of the F_MODES window: the target is met, the value
    # is not resolved (F_MODES = 128 and 256 agree on f = 1.000973)
    table = pl.f_table([0.04])
    assert table.violation[0] <= variational.F_NEWTON_TOL
    assert not table.converged[0]
    assert main(["f-scan", "--targets", "0.04"]) == 3


def test_f_table_is_resolved_by_its_window(monkeypatch):
    # phi_p^2 has a kink at +-pi, so the ground state's coefficients decay
    # only as m^-4 and f converges as F_MODES^-5; next to the flat end,
    # where (Delta L)^2 is small, that leaves 1.7e-10 of f at t = 1.8
    targets = [0.09, 0.6, 1.2, 1.8]
    table = pl.f_table(targets)
    monkeypatch.setattr(variational, "F_MODES", 128)
    wide = pl.f_table(targets)
    assert np.all(table.converged) and np.all(wide.converged)
    assert np.max(np.abs(table.f - wide.f) / wide.f) <= 5e-10


@pytest.mark.parametrize("modulus", ["uniform", "vonmises"])
def test_minimize_phase_half_windings_are_mirror_images(modulus):
    # psi -> conj(psi) maps winding +1/2 onto -1/2 without changing Delta L;
    # a spectral derivative that kept the Nyquist mode broke that symmetry
    r = pl.uniform_modulus(G) if modulus == "uniform" else pl.vonmises_modulus(G, 2.0)
    _, up = pl.minimize_phase(r, 0.5)
    _, down = pl.minimize_phase(r, -0.5)
    assert abs(up - down) <= 1e-12
