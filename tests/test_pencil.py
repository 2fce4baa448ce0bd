import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import packetlab as pl
import packetlab.pencil as pp
from conftest import (
    IMAG_AXIS_RTOL,
    align_phase,
    complex_pencil_pairs,
    dense_pencil_eigenvalues,
    dense_smallest_singular_pair,
    local_scale,
    oscillator_branches,
    qz_eigenvalues,
    quantization_scan_qz,
    serial_inverse_iteration,
    serial_pencil_pair,
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
    # no state has <A> outside A's truncated spectrum; at alpha = 1e300 the
    # sweep's norms once overflowed and "certified" every point with residual inf
    for alpha in (1e300, -1e300, 8.5):
        with pytest.raises(pl.OutOfRangeError):
            pl.PencilProblem(L, S, alpha)
    with pytest.raises(pl.OutOfRangeError):
        pl.circle_problem(1e300)
    with pytest.raises(pl.OutOfRangeError):
        pl.oscillator_problem(-0.5, M=8)
    assert pl.PencilProblem(L, S, -8.0).alpha == -8.0


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
        assert not np.any(cand)


def test_eigenvector_at_certifies_css():
    problem = pl.circle_problem(2.0, M=64)
    state, resid = pl.eigenvector_at(problem, 1.5)
    assert resid < 1e-12
    ref = pl.css_state(pl.CssParams(1.5, 2), SYM(64)).coeffs
    assert np.max(np.abs(align_phase(state.coeffs, ref) - ref)) < 1e-10
    # off the spectrum nothing certifies
    _, resid = pl.eigenvector_at(pl.circle_problem(0.5, M=64), 1.5)
    assert resid > 1e-6


# sha256 of the vector's bytes then sigma's, as numpy 2.4.6 with OpenBLAS
# 0.3.31 on x86-64 computes them; a BLAS with another summation order in its
# dot kernel may move the last bits
EIGENVECTOR_AT_SHA256 = {
    (-3, 0.25): "77f2a6950152949f231ddac80f3a5202c1a5bbe32d01e787ac64eb7b00cf8e9c",
    (-3, 1.7): "b641d486f0a2e64f29ec08d06124999fcf0404f4b5754b31a07ee30ffaf5e6ec",
    (-3, 4.0): "dd5550e98bc13879639c0db770e6b80af9f68a8de99d989d11cf0a476384964f",
    (0, 0.25): "cb8edb71f7275bf47961926976fbc9ff8ad3e6f8527bc3d94794f22d1162da64",
    (0, 1.7): "e3947b5a83c65f10d314fa8e4ffbf54fbc9dc50f5c0e5db7a141bc0b8125ff10",
    (0, 4.0): "5d254e965167090b7a926dc0e74cdd9a296f919803aca782f94bc6a7ede66f53",
    (2, 0.25): "ef990f4e963e20e273e36bc7b28a4159731b5854f218f4187e9d7f2578e28954",
    (2, 1.7): "43a37d0e6e86e3a4776b559fc32e99e4900919936be1d622fe3ba43f1369a2c4",
    (2, 4.0): "9b61643f37e16050aa90e4fbaa19e4ebf799ca5d7a94da46f494b5cefeeaf489",
}


@pytest.mark.parametrize("ell, S", sorted(EIGENVECTOR_AT_SHA256))
def test_eigenvector_at_bits_unchanged(ell, S):
    # the single-shift path that the states benchmark checks against
    # css_state: a change to the sweep must leave its bits alone
    vec, sigma = pl.eigenvector_at(pl.circle_problem(float(ell), M=64), S)
    digest = hashlib.sha256(vec.coeffs.tobytes() + np.float64(sigma).tobytes()).hexdigest()
    assert digest == EIGENVECTOR_AT_SHA256[ell, S]


def test_eigenvector_at_far_and_non_finite_s():
    # past s = 2^500 the system is iterated scaled down, where ||T v|| once
    # underflowed to a false residual of 0; it tends to its s -> inf limit
    problem = pl.circle_problem(1.0, M=8)
    _, near = pl.eigenvector_at(problem, 1e100)
    for s in (1e200, 1e300, -1e300):
        _, resid = pl.eigenvector_at(problem, s)
        assert resid == pytest.approx(near, rel=1e-12)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite s"):
            pl.eigenvector_at(problem, s)


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


@pytest.mark.parametrize("sub, main, sup", [
    (np.ones(5), 3 * np.ones(5), np.ones(4)),
    (np.ones(4), 3 * np.ones(5), np.ones(5)),
    (np.ones(3), 3 * np.ones(5), np.ones(3)),
    (np.array([]), np.array([]), np.array([])),
], ids=["long-sub", "long-super", "short-both", "empty"])
def test_banded_kernel_rejects_missized_bands(sub, main, sup):
    # a long off-diagonal once filled the zero coupling to the padding rows
    # and returned a wrong sigma (1.6929, 2.2887 and 1.3820 against the true
    # 3 - sqrt(3) = 1.2679); empty bands ended in a ZeroDivisionError
    with pytest.raises(ValueError, match=rf"sub \({sub.size},\), main \({main.size},\), super \({sup.size},\)"):
        pl.smallest_singular_pair((sub, main, sup))


def test_banded_kernel_singular_and_tiny_pivots():
    zero = np.zeros(2, dtype=complex)
    e2 = np.array([0, 1, 0])
    # a pivot of 1e-200 would overflow (T^H T)^{-1} v without the rescale,
    # and the squares of ||T v|| underflow to a false sigma of 0 unless the
    # norm rescales them, in real arithmetic and in complex
    for tiny in (1e-200, 1e-300):
        for dtype in (float, complex):
            z = np.zeros(2, dtype=dtype)
            pair = pl.smallest_singular_pair((z, np.array([1, tiny, 1], dtype=dtype), z))
            assert pair.converged and pair.nudges == 0
            assert pair.sigma == pytest.approx(tiny, rel=1e-12, abs=0)
            assert np.allclose(np.abs(pair.vector), e2)
    # an exactly singular factor is nudged, and the residual is still ||T v||
    pair = pl.smallest_singular_pair((zero, np.array([1, 0, 1], dtype=complex), zero))
    assert pair.converged and pair.nudges == 1
    assert pair.sigma == 0.0
    assert np.allclose(np.abs(pair.vector), e2)


@pytest.mark.parametrize(
    "family, alpha",
    [
        ("circle", 0.0), ("circle", 0.3), ("circle", 2.0),
        ("oscillator", 0.5), ("oscillator", 3.0), ("oscillator", 5.0),
    ],
)
def test_batched_kernel_matches_serial_oracle(family, alpha):
    # every sweep point in one batch and every real-QZ eigenvalue of the
    # pencil (complex shifts, nearly all off the axis) in another, against
    # one serial inverse iteration per shift; at oscillator 5.0 some sweep
    # points certify at working precision, so the certificate is checked
    # right at its threshold

    problem = pp._family_problem(family, alpha, 0.0, 64)
    a, b = problem.bands()
    v0 = pp._start_vector(a.size)
    s = np.linspace(pp.S_WINDOW[0], pp.S_WINDOW[1], pp.SWEEP_POINTS)
    qz = qz_eigenvalues(problem, a, b)
    batched = pp._axis_pairs(a, b, s, v0) + complex_pencil_pairs(a, b, qz, v0)
    serial = [serial_pencil_pair(a, b, 1j * S, v0) for S in s]
    serial += [serial_pencil_pair(a, b, lam, v0, in_complex=True) for lam in qz]
    for p, q in zip(batched, serial):
        assert (p.steps, p.nudges, p.converged) == (q.steps, q.nudges, q.converged)
        assert abs(p.sigma - q.sigma) <= 4 * np.spacing(q.sigma)
        assert np.max(np.abs(p.vector - q.vector)) <= 1e-14
    # the same certified S set as the serial sweep
    certified = []
    Aef, Bef = shifted(problem)
    for S, q in zip(s, serial):
        local = np.linalg.norm(Aef @ q.vector) + S * np.linalg.norm(Bef @ q.vector)
        if q.sigma <= pp.SWEEP_RTOL * local:
            certified.append(S)
    lams, _, swept = pp._sweep_pairs(a, b)
    assert list(lams[swept].imag) == certified
    assert (len(certified) == pp.SWEEP_POINTS) == (family == "circle" and alpha == round(alpha))


def test_batched_kernel_isolates_singular_blocks():
    # an exactly singular block (a zero pivot) and one whose solve overflows
    # (a subnormal pivot) among random blocks: only those two are nudged, and
    # every block comes out bit for bit as the serial kernel has it alone

    rng = np.random.default_rng(7)
    d = 9

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    sub, main, sup = cplx(5, d - 1), cplx(5, d), cplx(5, d - 1)
    for j, pivot in ((1, 0.0), (3, 1e-310)):
        sub[j] = sup[j] = 0.0
        main[j] = 1.0
        main[j, d // 2] = pivot
    v0 = pp._start_vector(d)
    batched = pp._iterate(pp._stack(sub, main, sup), v0)
    for j, p in enumerate(batched):
        q = serial_inverse_iteration((sub[j], main[j], sup[j]), v0)
        assert p.nudges == (1 if j in (1, 3) else 0) == q.nudges
        assert (p.steps, p.converged, p.sigma) == (q.steps, q.converged, q.sigma)
        assert np.array_equal(p.vector, q.vector)


@pytest.mark.parametrize(
    "family, alpha",
    [
        ("circle", 0.3), ("circle", 1.0), ("circle", 2.0),
        ("oscillator", 0.7), ("oscillator", 4.0), ("oscillator", 5.0),
    ],
)
def test_real_sweep_matches_complex_oracle(family, alpha):
    # T(iS) of a sine pencil at beta = 0 is real, so the sweep runs in real
    # arithmetic; the complex serial iteration must certify the same S set,
    # and where it certifies, the two agree to roundoff.  Measured at M = 64:
    # sigma to <= 1.5e-16 * local and vectors, up to a global phase, to
    # <= 3.5e-16; the bounds leave a margin of about 7x and 30x.

    problem = pp._family_problem(family, alpha, 0.0, 64)
    a, b = problem.bands()
    v0 = pp._start_vector(a.size)
    s = np.linspace(pp.S_WINDOW[0], pp.S_WINDOW[1], pp.SWEEP_POINTS)
    real = pp._axis_pairs(a, b, s, v0)
    assert all(p.vector.dtype == np.float64 for p in real)
    Aef, Bef = shifted(problem)
    certified = []
    for S, p in zip(s, real):
        q = serial_pencil_pair(a, b, 1j * S, v0, in_complex=True)
        local = np.linalg.norm(Aef @ q.vector) + S * np.linalg.norm(Bef @ q.vector)
        if q.sigma <= pp.SWEEP_RTOL * local:
            certified.append(S)
            assert abs(p.sigma - q.sigma) <= 1e-15 * local
            assert np.max(np.abs(align_phase(q.vector, p.vector) - p.vector)) <= 1e-14
    lams, _, swept = pp._sweep_pairs(a, b)
    assert list(lams[swept].imag) == certified
    assert (len(certified) == pp.SWEEP_POINTS) == (family == "circle" and alpha == round(alpha))


@pytest.mark.parametrize(
    "family, alpha",
    [
        ("circle", 0.0), ("circle", 0.3), ("circle", 1.0),
        ("oscillator", 0.5), ("oscillator", 2.95), ("oscillator", 4.0),
    ],
)
def test_sweep_local_scale_is_the_direct_formula(family, alpha):
    # the sweep certifies with the local scale its kernel stopped on, read
    # off T v as ||a v|| + ||a v - T v||; it is the direct formula
    # ||(A - alpha)v|| + S ||(B - beta)v|| to roundoff (measured: at most 2 ulps,
    # 3.9e-16 relative)
    s = np.linspace(pp.S_WINDOW[0], pp.S_WINDOW[1], pp.SWEEP_POINTS)
    for M in (64, 128):
        for beta in (0.0, 0.2):
            a, b = pp._family_problem(family, alpha, beta, M).bands()
            pairs = pp._axis_pairs(a, b, s, pp._start_vector(a.size))
            local = np.array([p.local for p in pairs])
            ref = local_scale(a, b, 1j * s, np.array([p.vector for p in pairs]))
            assert np.all(np.abs(local - ref) <= 1e-14 * ref)
    # a bare tridiagonal has no pencil, so no local scale
    assert np.isnan(pl.smallest_singular_pair(b).local)


@pytest.mark.parametrize("family, alpha", [("circle", 0.3), ("circle", 1.0), ("oscillator", 0.5)])
def test_pencil_pairs_independent_of_batch(family, alpha):
    # each S of one axis call, in real arithmetic at beta = 0 and in complex
    # at beta = 0.2, and each real-QZ eigenvalue of one complex call comes
    # out bit for bit as a call with that shift alone gives it

    def same(p, q):
        assert (p.steps, p.nudges, p.converged, p.sigma, p.local, p.sign) == (
            q.steps, q.nudges, q.converged, q.sigma, q.local, q.sign)
        assert p.vector.dtype == q.vector.dtype
        assert np.array_equal(p.vector, q.vector)

    s = np.linspace(pp.S_WINDOW[0], pp.S_WINDOW[1], pp.SWEEP_POINTS)[::8]
    for beta, dtype in ((0.0, np.float64), (0.2, np.complex128)):
        problem = pp._family_problem(family, alpha, beta, 32)
        a, b = problem.bands()
        v0 = pp._start_vector(a.size)
        batch = pp._axis_pairs(a, b, s, v0)
        assert all(p.vector.dtype == dtype for p in batch)
        for S, p in zip(s, batch):
            same(p, pp._axis_pairs(a, b, [S], v0)[0])
    problem = pp._family_problem(family, alpha, 0.0, 32)
    a, b = problem.bands()
    qz = qz_eigenvalues(problem, a, b)[:12]
    for lam, p in zip(qz, complex_pencil_pairs(a, b, qz, v0)):
        same(p, complex_pencil_pairs(a, b, [lam], v0)[0])


def _sweep_bounds(family, alpha, beta, M):
    """s, the absence bound lb of every sweep shift and its limit."""
    a, b = pp._family_problem(family, alpha, beta, M).bands()
    s = np.linspace(pp.S_WINDOW[0], pp.S_WINDOW[1], pp.SWEEP_POINTS)
    lb = pp._sigma_lower_bounds(pp._factor(pp._axis_system(a, b, s)), s.size, a.size)
    return s, lb, pp._absence_limits(a, b, s)


@pytest.mark.parametrize("family", ["circle", "oscillator"])
@pytest.mark.parametrize("M", [32, 64])
def test_absence_bound_is_a_bound(family, M):
    # every shift's lb lies below the dense sigma_min of T(iS), in real
    # arithmetic at beta = 0 and in complex at beta = 0.2
    for beta in (0.0, 0.2):
        for alpha in (0.37, 0.5, 0.999, 0.999999, 1.0, 2.6, 3.0):
            s, lb, _ = _sweep_bounds(family, alpha, beta, M)
            Aef, Bef = shifted(pp._family_problem(family, alpha, beta, M))
            T = Aef[None] - 1j * s[:, None, None] * Bef[None]
            # the dense sigma_min is exact to a small multiple of eps ||T||,
            # all it resolves at an integer alpha
            sv = np.linalg.svd(T, compute_uv=False)
            assert np.all(lb <= sv[:, -1] + 64 * np.finfo(float).eps * sv[:, 0]), (alpha, beta)
            assert np.all(lb >= 0.0)


@pytest.mark.parametrize(
    "family, alpha, beta, M, excluded, iterated",
    [
        ("circle", 0.37, 0.0, 128, 80, 0), ("circle", 0.5, 0.0, 128, 80, 0),
        ("circle", 0.5, 0.2, 128, 80, 0), ("oscillator", 0.5, 0.0, 64, 80, 2),
        ("oscillator", 1.0, 0.0, 64, 80, 0), ("oscillator", 2.6, 0.0, 64, 80, 2),
        ("circle", 0.999, 0.0, 64, 74, 6), ("circle", 0.999999, 0.0, 64, 42, 38),
        ("circle", 0.0, 0.0, 128, 0, 80), ("circle", 1.0, 0.0, 128, 0, 80),
        ("circle", 2.0, 0.0, 128, 0, 80),
    ],
)
def test_absence_bound_exclusion_counts(monkeypatch, family, alpha, beta, M, excluded, iterated):
    # the shifts whose lb beats its limit, and the blocks that the sweep
    # then iterates: the others, plus both ends of a sign change of
    # det T(iS) (oscillator 0.5 and 2.6 have one, where their branch root
    # lies, and a refined root iterates one block per step after them)
    _, lb, limit = _sweep_bounds(family, alpha, beta, M)
    assert int(np.count_nonzero(lb > limit)) == excluded
    blocks = []
    iterate = pp._iterate

    def spy(S, v, a=None):
        blocks.append((S[1].size - 2) // v.size)
        return iterate(S, v, a)

    monkeypatch.setattr(pp, "_iterate", spy)
    pp._sweep_pairs(*pp._family_problem(family, alpha, beta, M).bands())
    assert blocks[:1] == ([iterated] if iterated else [])


@pytest.mark.parametrize(
    "family, alphas",
    [("circle", (0.5, 1.0, 0.999, 0.999999, 2.0)), ("oscillator", (0.5, 0.999999, 2.6, 3.0, 4.0))],
)
def test_absence_bound_keeps_every_bit(monkeypatch, family, alphas):
    # with the margin at infinity nothing is excluded and every shift
    # iterates; the sweep returns the same eigenvalues, masks and pairs
    for M in (32, 64):
        for beta in (0.0, 0.2):
            for alpha in alphas:
                a, b = pp._family_problem(family, alpha, beta, M).bands()
                fast = pp._sweep_pairs(a, b)
                with monkeypatch.context() as m:
                    m.setattr(pp, "_ABSENCE_MARGIN", math.inf)
                    full = pp._sweep_pairs(a, b)
                assert np.array_equal(fast[0], full[0]) and np.array_equal(fast[2], full[2])
                for p, q in zip(fast[1], full[1], strict=True):
                    assert (p.sigma, p.steps, p.nudges, p.converged, p.sign, p.local) == (
                        q.sigma, q.steps, q.nudges, q.converged, q.sign, q.local)
                    assert p.vector.dtype == q.vector.dtype and p.vector.tobytes() == q.vector.tobytes()


def test_absence_bound_of_a_singular_block():
    # a zero pivot makes the comparison solve divide by zero: lb = 0, which
    # excludes nothing, and no RuntimeWarning (pyproject.toml makes it an
    # error); the NaN that a zero coupling makes of the infinity can take
    # the bound of the blocks next to it too, which again excludes nothing
    d = 5
    main = np.ones((3, d))
    main[1, 2] = 0.0
    sub, sup = np.zeros((3, d - 1)), np.zeros((3, d - 1))
    for dtype in (float, complex):
        S = pp._stack(sub.astype(dtype), main.astype(dtype), sup.astype(dtype))
        lb = pp._sigma_lower_bounds(pp._factor(S), 3, d)
        assert lb[1] == 0.0 and np.all((lb == 0.0) | (lb == 1.0))
        for j, want in enumerate((1.0, 0.0, 1.0)):
            assert pp._sigma_lower_bounds(pp._factor(pp._select(S, np.array([j]), d)), 1, d)[0] == want


@pytest.mark.parametrize("k", [515, 600, 1000, -600, -1000])
def test_kernel_scales_huge_systems(k):
    # above ~1e154 the squares of ||T v|| overflowed (sigma inf, converged
    # False), and below ~1e-160 they underflowed (at 2^-600 T, sigma 0 and
    # converged after 4 steps); the kernel now iterates such a system
    # scaled by a power of two, so 2^k T has exactly 2^k times the pair of T
    rng = np.random.default_rng(abs(k))
    d = 24
    sub, main, sup = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (d - 1, d, d - 1))
    for T in ((sub, main, sup), (sub.real, main.real, sup.real)):
        p = pl.smallest_singular_pair(T)
        q = pl.smallest_singular_pair(tuple(x * 2.0**k for x in T))
        assert (q.sigma, q.steps, q.nudges, q.converged) == (np.ldexp(p.sigma, k), p.steps, p.nudges, p.converged)
        assert np.array_equal(q.vector, p.vector)
    # a pencil's local scale comes back scaled too
    a, b = pl.circle_problem(1.0, M=16).bands()
    s, v0 = [0.5, 3.0], pp._start_vector(a.size)
    big = pp._axis_pairs(a * 2.0**k, tuple(x * 2.0**k for x in b), s, v0)
    for p, q in zip(pp._axis_pairs(a, b, s, v0), big):
        assert (q.sigma, q.local, q.steps) == (np.ldexp(p.sigma, k), np.ldexp(p.local, k), p.steps)
        assert np.array_equal(q.vector, p.vector)
    full = np.full
    q = pl.smallest_singular_pair((full(8, 1e155), full(9, 3e155), full(8, 1e155)))
    assert q.converged
    assert q.sigma == pytest.approx(1e155 * pl.smallest_singular_pair((full(8, 1.0), full(9, 3.0), full(8, 1.0))).sigma,
                                    rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_kernel_handles_blocks_under_three_modes(d):
    # scipy's ?gttrf/?gttrs take no system under three rows; the stack pads
    # with decoupled identity rows, so blocks of one and two modes iterate
    # alone and in a batch (sigma stops on its 1e-6 relative change here, so
    # it is checked against dense SVD to 1e-8)
    rng = np.random.default_rng(d)
    sub, main, sup = rng.standard_normal(d - 1), rng.standard_normal(d) + 2.0, rng.standard_normal(d - 1)
    dense = tridiagonal((sub, main, sup))
    sigma_ref, v_ref = dense_smallest_singular_pair(dense)
    pair = pl.smallest_singular_pair((sub, main, sup))
    assert pair.converged
    assert pair.sigma == pytest.approx(sigma_ref, rel=1e-8)
    assert pair.sigma == pytest.approx(np.linalg.norm(dense @ pair.vector), rel=1e-12)
    assert abs(np.dot(pair.vector, v_ref)) >= 1 - 1e-8
    batched = pp._iterate(pp._stack(np.tile(sub, (3, 1)), np.tile(main, (3, 1)), np.tile(sup, (3, 1))),
                          pp._start_vector(d))
    for p in batched:
        assert (p.sigma, p.steps) == (pair.sigma, pair.steps)
        assert np.array_equal(p.vector, pair.vector)


@pytest.mark.parametrize("seed", range(6))
def test_real_kernel_matches_dense_svd(seed):
    # a real tridiagonal with real spectrum (sub * sup > 0, so it is similar
    # to a symmetric one) shifted next to one of its eigenvalues; real bands
    # run the real kernel and return a real vector.  A real spectrum can
    # cluster, so the shift is small enough for the smallest singular value
    # to stand apart; dense SVD resolves that value to roundoff of ||T||,
    # not of itself (measured over 60 seeds: 2.5e-16 ||T||, vectors to 8e-16).
    rng = np.random.default_rng(seed)
    d = int(rng.integers(8, 80))
    sub = rng.standard_normal(d - 1)
    sup = sub * rng.uniform(0.5, 2.0, d - 1)
    main = rng.standard_normal(d)
    lam = rng.choice(np.linalg.eigvals(tridiagonal((sub, main, sup))).real)
    T = (sub, main - lam - 1e-4 * rng.choice([-1.0, 1.0]), sup)
    dense = tridiagonal(T)
    sigma_ref, v_ref = dense_smallest_singular_pair(dense)
    pair = pl.smallest_singular_pair(T)
    assert pair.vector.dtype == np.float64
    assert pair.converged and pair.nudges == 0
    assert abs(pair.sigma - sigma_ref) <= 1e-14 * np.linalg.norm(dense, 2)
    assert abs(np.dot(pair.vector, v_ref)) >= 1 - 1e-10
    assert pair.sigma == pytest.approx(np.linalg.norm(dense @ pair.vector), rel=1e-12)


def test_cosine_pencil_runs_complex():
    # B = cos(phi) has real bands, so T(iS) is complex at every S and has no
    # determinant sign; the sweep alone certifies every grid point at the
    # integers and none in between (measured at M = 32: 80, 80 and 0)
    w = SYM(32)
    L, C = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, w), pl.build(pl.OperatorId.COS_PHI, w)
    a, b = pl.PencilProblem(L, C, 1.0).bands()
    pairs = pp._axis_pairs(a, b, [0.5, 2.0], pp._start_vector(a.size))
    assert all(p.vector.dtype == np.complex128 and p.sign == 0.0 for p in pairs)
    for alpha, n in ((0.0, 80), (1.0, 80), (0.3, 0)):
        sol = pl.solve_pencil(pl.PencilProblem(L, C, alpha))
        assert sol.n == n == int(np.sum(sol.swept & sol.physical & sol.converged))


def same_scan_columns(scan, ref) -> bool:
    # the scan CSV is these columns at 17 digits, which round-trip; the QZ
    # oracle fills no per-point eigenvalues or errors, so its records differ
    return all(
        getattr(scan, c).tobytes() == getattr(ref, c).tobytes() for c in ("alphas", "floor", "flagged")
    )


def test_nonzero_beta_keeps_complex_path():
    # at beta != 0 the diagonal of T(iS) carries -iS(-beta), so the sweep
    # stays complex (and has no determinant sign), and the circle scan still
    # writes the bytes of the real-QZ-plus-sweep classification
    a, b = pp.circle_problem(1.0, beta=0.2, M=32).bands()
    pairs = pp._axis_pairs(a, b, [0.5, 2.0], pp._start_vector(a.size))
    assert all(p.vector.dtype == np.complex128 for p in pairs)
    alphas = [k / 4 for k in range(-8, 9)]
    for M in (32, 64):
        scan = pl.quantization_scan("circle", alphas, beta=0.2, M=M)
        ref = quantization_scan_qz("circle", alphas, M, beta=0.2)
        assert same_scan_columns(scan, ref)


def test_circle_scan_matches_qz_oracle():
    # QZ decides nothing on the circle: the scan writes the same CSV bytes
    # as classifying every point with real QZ plus the sweep
    alphas = [k / 10 for k in range(-20, 21)] + [0.999, 1.001, 0.9999999, -1.01]
    for M in (32, 64):
        scan = pl.quantization_scan("circle", alphas, M=M)
        assert same_scan_columns(scan, quantization_scan_qz("circle", alphas, M))


def test_circle_flags_independent_of_truncation():
    alphas = [k / 2 for k in range(-4, 5)] + [0.3, 1.7]
    for M in (64, 128, 512):
        scan = pl.quantization_scan("circle", alphas, M=M)
        assert list(scan.flagged_alphas()) == [-2.0, -1.0, 0.0, 1.0, 2.0]


def test_quantization_independent_of_truncation():
    # nothing on the scan path is d x d, so M can grow to 4096 (8193 modes;
    # one dense complex operator there would take 1.07 GB): the circle flags
    # stay exactly the integers, and the oscillator branch roots stay on the
    # closed form (measured at M = 4096: 1.1e-16 and 4.4e-16)
    for M in (64, 256, 1024, 4096):
        scan = pl.quantization_scan("circle", [-1.0, -0.5, 0.0, 0.3, 1.0], M=M)
        assert list(scan.flagged_alphas()) == [-1.0, 0.0, 1.0]
    for alpha in (0.25, 2.5):
        sol = pl.solve_pencil(pl.oscillator_problem(alpha, M=4096))
        (s_exact,) = oscillator_branches(alpha)
        assert sol.n == 1 and not sol.swept[0] and sol.physical[0]
        assert abs(sol.eigenvalues[0].imag - s_exact) <= 1e-13


def test_scan_point_memory_is_linear_in_truncation():
    # one circle point at M = 4096 peaks at 59 MB of traced memory (the
    # sweep's (80, 8193) work arrays and certificate)
    tracemalloc.start()
    try:
        pl.quantization_scan("circle", [0.3], M=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160e6


def test_refined_roots_match_complex_qz():
    # the determinant roots are the eigenvalues that dense complex QZ puts on
    # the imaginary axis inside the S window, and there are none off the
    # branches in (0, 1), (2, 3) and (4, 5)
    for alpha in (0.5, 1.3, 2.5, 3.7, 4.5):
        problem = pl.oscillator_problem(alpha, M=64)
        w = pl.solve_pencil(problem, axis_sweep=False).eigenvalues
        ref = dense_pencil_eigenvalues(problem)
        on_axis = np.abs(ref.real) <= IMAG_AXIS_RTOL * (1 + np.abs(ref))
        ref = ref[on_axis & (ref.imag >= pp.S_WINDOW[0]) & (ref.imag <= pp.S_WINDOW[1])]
        assert w.size == ref.size == len(oscillator_branches(alpha))
        for lam in w:
            assert np.min(np.abs(ref - lam)) <= 1e-12 * (1 + abs(lam))


@pytest.mark.parametrize("M", [64, 512])
def test_branch_roots_match_closed_form(M):
    # each branch is one refined root, within 1e-13 of the root of
    # I_{-1-<N>}(S) (measured: 2.2e-14 at both M)
    for alpha in (0.05, 0.25, 0.5, 0.75, 2.2, 2.5, 4.5, 4.9):
        sol = pl.solve_pencil(pl.oscillator_problem(alpha, M=M))
        (s_exact,) = oscillator_branches(alpha)
        assert sol.n == 1 and not sol.swept[0] and sol.physical[0] and sol.converged[0]
        assert sol.eigenvalues[0].real == 0.0
        assert abs(sol.eigenvalues[0].imag - s_exact) <= 1e-13


@pytest.mark.parametrize("M, beta", [(64, 0.0), (128, 0.0), (64, 0.2), (64, -0.5)])
def test_oscillator_scan_flags_match_qz_oracle(M, beta):
    alphas = 0.05 * np.arange(121)
    scan = pl.quantization_scan("oscillator", alphas, beta=beta, M=M)
    ref = quantization_scan_qz("oscillator", alphas, M, beta=beta)
    assert all(e is None for e in scan.errors)
    assert list(scan.flagged) == list(ref.flagged)
    assert scan.flagged.sum() == (60 if beta == 0.0 else 0)


@pytest.mark.parametrize("M", [64, 128])
def test_noninteger_circle_has_no_pair(M):
    # off the integers det T(iS) keeps its sign across the window, so the
    # circle pencil has no bracket and no certified point
    for alpha in (0.3, 0.5, 1.7, -1.01, 0.99999, 0.05):
        assert pl.solve_pencil(pl.circle_problem(alpha, M=M)).n == 0


@pytest.mark.parametrize(
    "beta, csv_sha256, json_sha256",
    [
        pytest.param(0.0, "497e46eb3014c0694c391499a704b064d2b12df3138a1a3636ec792aa50cb10c",
                     "d28e159df07b8a4beaac5ec4c2945f4fafb7abd73e721557d9c3a423280908e8", id="0.0"),
        pytest.param(0.2, "27b09c23814badbc0271992cfa3b23d18c4ed6addf6850d34717067bfa8b6cf4",
                     "b02ce0cb1d5c32df2e6cb4a36453c2a65e0905d7756ea93ee1aaf1fae853c3e2", id="0.2"),
    ],
)
def test_circle_scan_bytes_unchanged(beta, csv_sha256, json_sha256):
    # SHA-256 of the circle scan artifacts written by the solver that ran
    # real QZ, with the minImagDistance column and key (0 or inf, since
    # every certified pair is exactly iS) projected out: the circle has no
    # determinant root, so no other byte moves
    import hashlib
    import json

    from packetlab.cli import scan_artifact

    alphas = -2 + 0.05 * np.arange(81)
    alphas = np.concatenate([alphas, [0.999, 1.001, 0.9999999, 0.999999, 0.99999, -1.01]])
    scan = pl.quantization_scan("circle", alphas, beta=beta, M=64)
    rows, payload = scan_artifact(scan)
    for text, digest in (("\n".join(rows), csv_sha256), (json.dumps(payload), json_sha256)):
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_uncertified_root_is_a_scan_error(monkeypatch, capsys):
    # with one refinement step (and one inverse-iteration step) the bracket
    # at <N> = 1/2 cannot certify: the point records the error and is not
    # flagged, and the CLI exits 3
    from packetlab.cli import main

    monkeypatch.setattr(pp, "_MAX_STEPS", 1)
    scan = pl.quantization_scan("oscillator", [0.5, 1.5], M=32)
    assert "did not certify" in scan.errors[0] and scan.errors[1] is None
    assert not scan.flagged.any()
    argv = ["scan", "--family", "oscillator", "--alpha-min", "0.5", "--alpha-max", "1.5",
            "--alpha-step", "1", "-M", "32", "--output", "csv"]
    assert main(argv) == 3
    assert capsys.readouterr().out.split("\n")[1:3] == [
        "0.5,0.5,0",
        "1.5,0.5,0",
    ]


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
    # a flagged point's physical eigenvalues are iS exactly, and an
    # unflagged point has none
    for ev, flag in zip(scan.physical_eigenvalues, scan.flagged):
        assert (ev.size > 0) == flag and np.all(ev.real == 0.0)
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
    assert all(np.array_equal(x, y) for x, y in zip(seq.eigenvalues, par.eigenvalues))
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
    # both families run the one solver, so the failure goes into it
    def boom(problem, **kw):
        raise pl.SingularPencilError("synthetic failure")

    monkeypatch.setattr(pp, "solve_pencil", boom)
    for family in ("circle", "oscillator"):
        scan = pp.quantization_scan(family, [0.0, 1.0], M=16)
        assert all(e is not None for e in scan.errors)
        assert not scan.flagged.any()
        assert all(ev.size == 0 for ev in scan.eigenvalues)
        # floors are still reported (partial results, not a global failure)
        assert np.allclose(scan.floor, [0.0, 0.0])


def test_scan_csv_format():
    from packetlab.cli import scan_artifact

    scan = pl.quantization_scan("circle", [0.0, 0.5], M=32)
    rows, payload = scan_artifact(scan)
    assert rows[0] == "alpha,floor,flag"
    assert rows[1].startswith("0,") and rows[1].endswith(",1")
    assert rows[2].endswith(",0")
    # the physical eigenvalues stay out of the artifacts
    points = payload["points"]
    assert set(points[0]) == {"alpha", "floor", "flag", "eigenvalues", "error"}


def test_scan_keeps_physical_eigenvalues():
    scan = pl.quantization_scan("oscillator", [0.5, 1.5], M=64)
    sol = pl.solve_pencil(pl.oscillator_problem(0.5, M=64))
    assert np.array_equal(scan.physical_eigenvalues[0], sol.eigenvalues[sol.physical])
    assert scan.physical_eigenvalues[0].size == 1
    assert scan.physical_eigenvalues[1].size == 0
