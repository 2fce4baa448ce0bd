import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import packetlab as pl
from conftest import f_table_lbfgsb, f_table_via_moments, minimize_phase_lbfgsb
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
    src = str(Path(pl.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import packetlab; assert 'scipy.optimize' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_modulus_profile_normalization():
    r = pl.modulus_profile(np.ones(G))
    assert abs(2 * np.pi / G * np.sum(r.values**2) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        pl.ModulusProfile(np.ones(G))  # not normalized
    with pytest.raises(ValueError):
        pl.modulus_profile(np.zeros(G))


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
    rep = pl.css_moments(pl.CssParams(1.0, 0))
    assert dl == pytest.approx(rep.delta_l, abs=1e-9)


@pytest.mark.parametrize("winding", [2, 0.5, -0.5])
def test_minimize_phase_from_perturbed_start(winding):
    rng = np.random.default_rng(5)
    r = pl.random_smooth_modulus(G, 17)
    x0 = 1e-2 * rng.standard_normal(80)
    prof, dl = pl.minimize_phase(r, winding, initial_coeffs=x0)
    assert prof.slope == winding
    # the optimizer found the zero start's value, whatever the winding class
    _, dl_zero = pl.minimize_phase(r, winding)
    assert abs(dl - dl_zero) <= 1e-9 * dl_zero
    if winding == round(winding):
        assert prof.fit_residual <= 1e-6
        assert pl.mean_l_of(r, prof) == pytest.approx(winding, abs=1e-8)


def test_minimize_phase_winding_is_topological():
    r = pl.random_smooth_modulus(G, 3)
    for w in (-2, -1, 0, 1, 2):
        prof, _ = pl.minimize_phase(r, w)
        assert prof.slope == float(w)
        assert pl.mean_l_of(r, prof) == pytest.approx(w, abs=1e-8)


def test_minimize_phase_half_integer_floor():
    r = pl.random_smooth_modulus(G, 11)
    for w in (0.5, -0.5):
        prof, dl = pl.minimize_phase(r, w)
        assert dl >= 0.5 - 1e-9


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
    fi = pl.first_integral(r, prof)
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
        # the golden section resolves gamma* only to ~1e-8
        assert abs(gamma) <= 1e-6, mu


def test_f_table_errors():
    with pytest.raises(ValueError):
        pl.f_table([0.0])
    with pytest.raises(ValueError):
        pl.f_table([PI_SQRT3])


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


def test_minimize_phase_reports_optimizer_result(criterion_6_runs):
    prof, _ = pl.minimize_phase(pl.random_smooth_modulus(G, 29), 1)
    assert isinstance(prof.optimizer_success, bool)
    assert isinstance(prof.optimizer_message, str) and prof.optimizer_message
    built = pl.linear_phase(G, 1)
    assert built.optimizer_success is None and built.optimizer_message == ""
    assert len(criterion_6_runs) == 140
    assert all(prof.optimizer_success for prof, _ in criterion_6_runs.values())


def test_minimize_phase_matches_lbfgsb_oracle(criterion_6_runs):
    for (seed, w), (_, dl) in criterion_6_runs.items():
        _, dl_oracle = minimize_phase_lbfgsb(pl.random_smooth_modulus(G, seed), w)
        if w == round(w):
            assert abs(dl - dl_oracle) <= 1e-12 * dl_oracle, (seed, w)
        else:
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
