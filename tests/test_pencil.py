import numpy as np
import pytest

import packetlab as pl
from conftest import (
    align_phase,
    dense_pencil_eigenvalues,
    dense_smallest_singular_pair,
    oscillator_branches,
    shifted,
    tridiagonal,
    uncertainty_floor_bruteforce,
)

# The banded kernels rescale instead of overflowing; any overflow is a
# failure (pyproject.toml turns every RuntimeWarning into an error).
SYM = pl.ModeWindow.symmetric


def test_problem_validation():
    w = SYM(8)
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, w)
    S = pl.build(pl.OperatorId.SIN_PHI, w)
    with pytest.raises(ValueError):
        pl.PencilProblem(L, S, 0.0, beta=1.0)
    with pytest.raises(pl.IncompatibleFamilyError):
        pl.PencilProblem(S, S, 0.0)
    with pytest.raises(pl.IncompatibleFamilyError):
        pl.PencilProblem(L, L, 0.0)
    with pytest.raises(pl.WindowMismatchError):
        pl.PencilProblem(L, pl.build(pl.OperatorId.SIN_PHI, SYM(9)), 0.0)


def test_integer_alpha_has_physical_continuum():
    sol = pl.solve_pencil(pl.circle_problem(0.0, M=64))
    phys = sol.physical_indices()
    assert phys.size >= 50  # a dialable family, not isolated points
    s_values = sol.eigenvalues[phys].imag
    assert s_values.min() <= 0.2 and s_values.max() >= 7.0
    # residual contract for every returned pair
    Aef, Bef = shifted(sol.problem)
    na = np.max(np.abs(np.diagonal(Aef)))
    nb = np.linalg.norm(Bef, 2)
    for i in range(sol.n):
        bound = 1e-9 * (na + abs(sol.eigenvalues[i]) * nb)
        assert sol.residuals[i] <= bound
        assert abs(np.linalg.norm(sol.vectors[:, i]) - 1.0) < 1e-12
    # every pair's inverse iteration, swept ones included, reaches roundoff
    assert np.all(sol.converged)


def test_physical_eigenvector_matches_squeezed_state():
    sol = pl.solve_pencil(pl.circle_problem(0.0, M=64))
    phys = sol.physical_indices()
    i = phys[np.argmin(sol.eigenvalues[phys].imag)]
    s_min = sol.eigenvalues[i].imag
    vec = sol.state(i).coeffs
    ref = pl.css_state(pl.CssParams(s_min, 0), SYM(64)).coeffs
    assert np.max(np.abs(align_phase(vec, ref) - ref)) < 1e-8


def test_noninteger_alpha_has_no_physical_candidates():
    for alpha in (0.5, 0.3, 1.7):
        sol = pl.solve_pencil(pl.circle_problem(alpha, M=64))
        assert sol.physical_indices().size == 0
        cand = (
            (sol.eigenvalues.imag >= 0.1)
            & (sol.eigenvalues.imag <= 8.0)
            & (sol.tail_masses < 1e-8)
        )
        assert np.all(sol.axis_distances[cand] > 1e-6)


def test_eigenvector_at_certifies_css():
    problem = pl.circle_problem(2.0, M=64)
    state, resid = pl.eigenvector_at(problem, 1.5)
    assert resid < 1e-12
    ref = pl.css_state(pl.CssParams(1.5, 2), SYM(64)).coeffs
    assert np.max(np.abs(align_phase(state.coeffs, ref) - ref)) < 1e-10
    # off the spectrum nothing certifies
    _, resid = pl.eigenvector_at(pl.circle_problem(0.5, M=64), 1.5)
    assert resid > 1e-6


@pytest.mark.parametrize("seed", range(12))
def test_banded_kernel_matches_dense_svd(seed):
    # a random complex tridiagonal shifted next to one of its eigenvalues,
    # as T(iS) is next to an eigenvalue of the pencil
    rng = np.random.default_rng(seed)
    d = int(rng.integers(8, 80))

    def cplx(n):
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    sub, main, sup = cplx(d - 1), cplx(d), cplx(d - 1)
    lam = rng.choice(np.linalg.eigvals(tridiagonal((sub, main, sup))))
    T = (sub, main - lam - 5e-3 * np.exp(2j * np.pi * rng.random()), sup)
    sigma_ref, v_ref = dense_smallest_singular_pair(tridiagonal(T))
    pair = pl.smallest_singular_pair(T)
    assert pair.converged and pair.nudges == 0
    assert abs(pair.sigma - sigma_ref) <= 1e-12 * sigma_ref
    assert abs(np.vdot(pair.vector, v_ref)) >= 1 - 1e-10
    assert pair.sigma == pytest.approx(np.linalg.norm(tridiagonal(T) @ pair.vector), rel=1e-12)


def test_banded_kernel_singular_and_tiny_pivots():
    zero = np.zeros(2, dtype=complex)
    e2 = np.array([0, 1, 0])
    # a pivot of 1e-200 would overflow (T^H T)^{-1} v without the rescale
    pair = pl.smallest_singular_pair((zero, np.array([1, 1e-200, 1], dtype=complex), zero))
    assert pair.converged and pair.nudges == 0
    assert pair.sigma == pytest.approx(1e-200, rel=1e-12)
    assert np.allclose(np.abs(pair.vector), e2)
    # an exactly singular factor is nudged, and the residual is still ||T v||
    pair = pl.smallest_singular_pair((zero, np.array([1, 0, 1], dtype=complex), zero))
    assert pair.converged and pair.nudges == 1
    assert pair.sigma == 0.0
    assert np.allclose(np.abs(pair.vector), e2)


@pytest.mark.parametrize("family", [pl.circle_problem, pl.oscillator_problem])
def test_closed_form_b_norm(family):
    for M in (8, 64, 128):
        for beta in (0.0, 0.3, -0.7):
            problem = family(0.5, beta, M)
            dense = np.linalg.norm(shifted(problem)[1], 2)
            assert problem.b_norm() == pytest.approx(dense, rel=1e-14)


def test_real_qz_matches_complex_qz():
    # well-conditioned (non-integer) number/phase spectra are unaffected by
    # the diag(i^k) similarity and by real arithmetic
    for alpha in (0.5, 1.3, 3.7):
        problem = pl.oscillator_problem(alpha, M=64)
        w = pl.solve_pencil(problem, axis_sweep=False).eigenvalues
        ref = dense_pencil_eigenvalues(problem)
        assert w.size == ref.size
        for lam in w:
            assert np.min(np.abs(ref - lam)) <= 1e-12 * (1 + abs(lam))


def test_floor_examples():
    w = SYM(64)
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, w)
    floor, arg = pl.uncertainty_floor(L, 2.0)
    assert floor == 0.0
    assert abs(arg.coeffs[64 + 2]) == 1.0

    floor, arg = pl.uncertainty_floor(L, 1.5)
    assert floor == pytest.approx(0.5, abs=1e-15)

    floor, arg = pl.uncertainty_floor(L, 0.25)
    assert floor == pytest.approx(np.sqrt(3) / 4, abs=1e-15)
    # the returned state realizes the floor
    rep = pl.moments(arg)
    assert rep.mean_l == pytest.approx(0.25, abs=1e-12)
    assert rep.delta_l == pytest.approx(floor, abs=1e-12)

    with pytest.raises(pl.OutOfRangeError):
        pl.uncertainty_floor(L, 65.0)


def test_floor_against_bruteforce():
    w = SYM(64)
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, w)
    rng = np.random.default_rng(42)
    for _ in range(25):
        alpha = float(rng.uniform(-8, 8))
        floor, _ = pl.uncertainty_floor(L, alpha)
        assert abs(floor - uncertainty_floor_bruteforce(L, alpha)) < 1e-9


def test_quantization_scan_circle():
    alphas = [-1.0, -0.5, 0.0, 0.3, 1.0, 1.7, 2.0]
    scan = pl.quantization_scan("circle", alphas, M=64)
    assert list(scan.flagged_alphas()) == [-1.0, 0.0, 1.0, 2.0]
    flagged = scan.flagged
    assert np.all(scan.min_axis_distance[flagged] <= 1e-8)
    assert np.all(np.isinf(scan.min_axis_distance[~flagged]))
    # floor column equals the two-level formula
    frac = np.asarray(alphas) - np.floor(alphas)
    assert np.allclose(scan.floor, np.sqrt(frac * (1 - frac)), atol=1e-12)


def test_scan_symmetry_under_unit_shift():
    a = pl.quantization_scan("circle", [0.0, 0.3, 0.5], M=48)
    b = pl.quantization_scan("circle", [1.0, 1.3, 1.5], M=48)
    assert list(a.flagged) == list(b.flagged)
    assert np.allclose(a.floor, b.floor, atol=1e-12)


def test_scan_parallel_matches_sequential():
    alphas = [0.0, 0.4, 1.0]
    seq = pl.quantization_scan("circle", alphas, M=32)
    par = pl.quantization_scan("circle", alphas, M=32, max_workers=3)
    assert list(seq.flagged) == list(par.flagged)
    assert np.allclose(seq.min_axis_distance, par.min_axis_distance, equal_nan=True)
    assert np.allclose(seq.floor, par.floor)


def test_scan_flags_stable_under_truncation_doubling():
    alphas = [0.0, 0.3, 1.0]
    small = pl.quantization_scan("circle", alphas, M=64)
    big = pl.quantization_scan("circle", alphas, M=128)
    assert list(small.flagged) == list(big.flagged)


def test_oscillator_pencil_spec_points():
    # At <N> = 5 the truncated Bessel packet's boundary defect (sigma/local =
    # 5.5e-17 at S = 0.1) is below double precision, so the sweep certifies a
    # small-S family, the same one at both truncations ...
    counts = []
    for M in (64, 128):
        problem = pl.oscillator_problem(5.0, M=M)
        sol = pl.solve_pencil(problem)
        assert sol.physical_indices().size > 0
        counts.append(int(np.sum(sol.swept & sol.physical)))
        state, sigma = pl.eigenvector_at(problem, 0.1)
        Aef, Bef = shifted(problem)
        local = np.linalg.norm(Aef @ state.coeffs) + 0.1 * np.linalg.norm(Bef @ state.coeffs)
        assert sigma / local <= np.finfo(float).eps
        # ... nothing at <N> = 3, whose defect (2.7e-13) the certificate resolves,
        # nor at the half-integers 3.5 and 5.5 (no root of I_{-1-<N>} in the window)
        for alpha in (3.0, 3.5, 5.5):
            sol = pl.solve_pencil(pl.oscillator_problem(alpha, M=M))
            assert sol.physical_indices().size == 0
    assert counts[0] == counts[1]


def test_oscillator_branch_oracle():
    for alpha, s_exact in ((0.5, 1.1996786), (2.5, 2.5182147), (4.5, 3.8413161)):
        roots = oscillator_branches(alpha)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(s_exact, abs=1e-7)
    # the <N> = 1/2 branch is the root of tanh S = 1/S
    (s_half,) = oscillator_branches(0.5)
    assert s_half * np.tanh(s_half) == pytest.approx(1.0, abs=1e-14)
    for alpha in (0.0, 1.0, 1.5, 2.0, 3.0, 3.5, 5.5):
        assert oscillator_branches(alpha) == []


def test_oscillator_scan_rejects_out_of_range():
    with pytest.raises(pl.OutOfRangeError):
        pl.quantization_scan("oscillator", [-1.0], M=64)
    with pytest.raises(pl.OutOfRangeError):
        pl.quantization_scan("circle", [40.0], M=64)
    with pytest.raises(ValueError):
        pl.quantization_scan("disk", [0.0], M=64)


def test_scan_records_solver_failures(monkeypatch):
    import packetlab.pencil as pp

    def boom(problem, **kw):
        raise pl.SingularPencilError("synthetic failure")

    monkeypatch.setattr(pp, "solve_pencil", boom)
    scan = pp.quantization_scan("circle", [0.0, 1.0], M=16)
    assert all(e is not None for e in scan.errors)
    assert not scan.flagged.any()
    assert np.all(np.isinf(scan.min_axis_distance))
    # floors are still reported (partial results, not a global failure)
    assert np.allclose(scan.floor, [0.0, 0.0])


def test_scan_csv_format():
    from packetlab.pencil import scan_to_csv_rows, scan_to_dict

    scan = pl.quantization_scan("circle", [0.0, 0.5], M=32)
    rows = scan_to_csv_rows(scan)
    assert rows[0] == "alpha,minImagDistance,floor,flag"
    assert rows[1].startswith("0,") and rows[1].endswith(",1")
    assert rows[2].endswith(",0")
    # the physical eigenvalues stay out of the artifacts
    points = scan_to_dict(scan)["points"]
    assert set(points[0]) == {"alpha", "minImagDistance", "floor", "flag", "eigenvalues", "error"}


def test_scan_keeps_physical_eigenvalues():
    scan = pl.quantization_scan("oscillator", [0.5, 1.5], M=64)
    sol = pl.solve_pencil(pl.oscillator_problem(0.5, M=64))
    assert np.array_equal(scan.physical_eigenvalues[0], sol.eigenvalues[sol.physical])
    assert scan.physical_eigenvalues[0].size == 1
    assert scan.physical_eigenvalues[1].size == 0
