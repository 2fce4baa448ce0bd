"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run pytest with -s to see the lines for
passing criteria as well).
"""

import time

import numpy as np
import pytest
from scipy.special import ive

import packetlab as pl
from conftest import (
    align_phase,
    eval_state,
    gl_matrix_element,
    oracle_delta_phi_p,
    oracle_moments,
    oscillator_branches,
)

SYM = pl.ModeWindow.symmetric
PI_SQRT3 = np.pi / np.sqrt(3)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}", flush=True)


def test_criterion_1_quantization_circle():
    alphas = [k / 10 for k in range(-20, 21)]
    expected = {-2.0, -1.0, 0.0, 1.0, 2.0}
    t0 = time.perf_counter()
    scan64 = pl.quantization_scan("circle", alphas, M=64)
    scan128 = pl.quantization_scan("circle", alphas, M=128)
    elapsed = time.perf_counter() - t0
    flags64 = {float(a) for a in np.round(scan64.flagged_alphas(), 10)}
    flags128 = {float(a) for a in np.round(scan128.flagged_alphas(), 10)}
    ok = flags64 == expected and flags128 == expected and elapsed <= 60.0
    _report(
        1,
        "quantization theorem, circle family",
        ok,
        f"flags M=64 {sorted(flags64)}, M=128 {sorted(flags128)}, {elapsed:.1f}s",
    )
    assert flags64 == expected, f"M=64 flags {sorted(flags64)} != {sorted(expected)}"
    assert flags128 == expected, f"M=128 flags {sorted(flags128)} != {sorted(expected)}"
    assert elapsed <= 60.0, f"scan took {elapsed:.1f}s > 60s"


def test_criterion_2_css_saturation_and_pencil_eigenvectors():
    worst_sat = 0.0
    worst_vec = 0.0
    for ell in (0, 3):
        problem = pl.circle_problem(float(ell), M=64)
        for S in (0.25, 1.0, 4.0):
            rep = pl.css_moments(pl.CssParams(S, ell), SYM(64))
            sat = abs(rep.delta_l * np.sqrt(rep.var_sin) - 0.5 * rep.mean_cos)
            worst_sat = max(worst_sat, sat)
            vec, resid = pl.eigenvector_at(problem, S)
            ref = pl.css_state(pl.CssParams(S, ell), SYM(64)).coeffs
            diff = float(np.max(np.abs(align_phase(vec.coeffs, ref) - ref)))
            worst_vec = max(worst_vec, diff)
    ok = worst_sat <= 1e-11 and worst_vec <= 1e-8
    _report(
        2,
        "squeezed-state saturation and eigenvectors",
        ok,
        f"max |saturation defect| {worst_sat:.2e}, max eigenvector diff {worst_vec:.2e}",
    )
    assert worst_sat <= 1e-11
    assert worst_vec <= 1e-8


def test_criterion_3_uncertainty_floor():
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, SYM(64))
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(100):
        alpha = float(rng.uniform(-8.0, 8.0))
        analytic, _ = pl.uncertainty_floor(L, alpha)
        brute = pl.uncertainty_floor_bruteforce(L, alpha)
        worst = max(worst, abs(analytic - brute))
    worst_half = 0.0
    for m in range(-8, 8):
        floor, _ = pl.uncertainty_floor(L, m + 0.5)
        worst_half = max(worst_half, abs(floor - 0.5))
    ok = worst <= 1e-9 and worst_half <= 1e-12
    _report(
        3,
        "uncertainty floor vs brute force",
        ok,
        f"max |analytic - LP| {worst:.2e}, max half-integer defect {worst_half:.2e}",
    )
    assert worst <= 1e-9
    assert worst_half <= 1e-12


def test_criterion_4_relation_suite():
    w = SYM(32)
    worst_cos = worst_sin = np.inf
    worst_combined = np.inf
    for seed in range(1000):
        s = pl.random_state(w, seed)
        rep = pl.moments(s)
        dl = rep.delta_l
        worst_cos = min(worst_cos, dl * np.sqrt(rep.var_cos) - 0.5 * abs(rep.mean_sin))
        worst_sin = min(worst_sin, dl * np.sqrt(rep.var_sin) - 0.5 * abs(rep.mean_cos))
        worst_combined = min(worst_combined, dl * rep.delta_phi_combined - 0.5)
    # a broad, nearly uniform state with small Delta L breaks the naive bound
    c = np.zeros(65)
    c[32] = 1.0
    c[31] = c[33] = 0.05
    margins = {m.relation: m for m in pl.relation_margins(pl.normalize(c, w))}
    naive = margins[pl.Relation.NAIVE_ROBERTSON]
    ok = (
        worst_cos >= -1e-12
        and worst_sin >= -1e-12
        and worst_combined > 0.0
        and naive.lhs < naive.rhs
    )
    _report(
        4,
        "relation suite on 1000 random states",
        ok,
        f"min cos margin {worst_cos:.2e}, min sin margin {worst_sin:.2e}, "
        f"min strict combined margin {worst_combined:.2e}, "
        f"naive product {naive.lhs:.3f} < 1/2: {naive.lhs < naive.rhs}",
    )
    assert worst_cos >= -1e-12
    assert worst_sin >= -1e-12
    assert worst_combined > 0.0
    assert naive.lhs < naive.rhs


def test_criterion_5_f_table_endpoints():
    t0 = time.perf_counter()
    fractions = [0.05, 0.1, 0.15, 0.25, 0.4, 0.55, 0.7, 0.85, 0.9, 0.95, 0.97, 0.99]
    table = pl.f_table([f * PI_SQRT3 for f in fractions])
    left = pl.extrapolate_to_zero(table, n_points=3)
    right = pl.extrapolate_to_flat(table, n_points=3)
    elapsed = time.perf_counter() - t0
    ok = (
        bool(np.all(table.converged))
        and table.is_monotone
        and abs(left - 1.0) <= 0.02
        and abs(right - 4.375) <= 0.05 * 4.375
        and elapsed <= 600.0
    )
    _report(
        5,
        "modified-relation f endpoints",
        ok,
        f"f(0) -> {left:.4f}, f(max) -> {right:.4f}, monotone {table.is_monotone}, {elapsed:.0f}s",
    )
    assert np.all(table.converged)
    assert table.is_monotone
    assert abs(left - 1.0) <= 0.02
    assert abs(right - 4.375) <= 0.05 * 4.375
    assert elapsed <= 600.0


def test_criterion_6_linear_phase_minimizer():
    worst_fit = worst_mean = 0.0
    worst_half_floor = np.inf
    for seed in range(100, 120):
        r = pl.random_smooth_modulus(512, seed)
        for w in (-2, -1, 0, 1, 2):
            prof, _ = pl.minimize_phase(r, w)
            worst_fit = max(worst_fit, prof.fit_residual)
            worst_mean = max(worst_mean, abs(pl.mean_l_of(r, prof) - w))
        for w in (0.5, -0.5):
            _, dl = pl.minimize_phase(r, w)
            worst_half_floor = min(worst_half_floor, dl)
    ok = worst_fit <= 1e-6 and worst_mean <= 1e-8 and worst_half_floor >= 0.5 - 1e-9
    _report(
        6,
        "linear-phase minimizer",
        ok,
        f"max fit residual {worst_fit:.2e}, max |<L> - winding| {worst_mean:.2e}, "
        f"min half-integer Delta L {worst_half_floor:.3f}",
    )
    assert worst_fit <= 1e-6
    assert worst_mean <= 1e-8
    assert worst_half_floor >= 0.5 - 1e-9


def test_criterion_7_oscillator_corollary():
    alphas = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    branches = {a: oscillator_branches(a) for a in alphas}
    expected = {a for a, roots in branches.items() if roots}
    scan = pl.quantization_scan("oscillator", alphas, M=64)
    flags = {float(a) for a in np.round(scan.flagged_alphas(), 10)}
    worst_s = 0.0
    for a, physical in zip(alphas, scan.physical_eigenvalues):
        if a in flags & expected:
            for lam in physical:
                worst_s = max(worst_s, min(abs(lam.imag - r) for r in branches[a]))
    ok = flags == expected and worst_s <= 1e-12
    _report(
        7,
        "oscillator corollary",
        ok,
        f"flags {sorted(flags)}, expected {sorted(expected)}, "
        f"max |Im lambda - S_exact| {worst_s:.1e}",
    )
    assert flags == expected, (
        f"number/phase scan flagged {sorted(flags)}, but the closed-form branches "
        f"I_(-1-<N>)(S) = 0 put exact squeezed states at {sorted(expected)}: with "
        "the one-sided shift ('Susskind-Glogower') phase operators they exist "
        "only at non-integer <N> in (2k, 2k+1), and integer <N> carries none; "
        "see notes/decisions.md"
    )
    assert worst_s <= 1e-12, (
        f"flagged eigenvalue Im lambda is {worst_s:.1e} from its closed-form branch S"
    )


def test_criterion_8_oracle_equivalences(gl_rule):
    # operator matrices against 4096-point quadrature
    w = SYM(6)
    worst_op = 0.0
    for op_id, fun in (
        (pl.OperatorId.COS_PHI, np.cos),
        (pl.OperatorId.SIN_PHI, np.sin),
        (pl.OperatorId.PHI_P, lambda p: p),
        (pl.OperatorId.PHI_P_SQUARED, lambda p: p**2),
    ):
        op = pl.build(op_id, w)
        for i, m in enumerate(w.modes):
            for j, n in enumerate(w.modes):
                ref = gl_matrix_element(gl_rule, fun, m, n)
                worst_op = max(worst_op, abs(op.entries[i, j] - ref))

    # moments against grid quadrature
    worst_mom = 0.0
    test_states = [
        pl.css_state(pl.CssParams(1.0, 0), SYM(32)),
        pl.css_state(pl.CssParams(4.0, 2, center=0.5), SYM(32)),
        pl.random_state(SYM(24), 5),
        pl.random_state(SYM(24), 6),
    ]
    for s in test_states:
        rep = pl.moments(s)
        ref = oracle_moments(gl_rule, s)
        for key, val in ref.items():
            worst_mom = max(worst_mom, abs(getattr(rep, key) - val))
    dpp, _ = pl.delta_phi_p(test_states[0])
    ref_dpp, _ = oracle_delta_phi_p(gl_rule, test_states[0])
    worst_mom = max(worst_mom, abs(dpp - ref_dpp))

    # squeezed-state coefficients against the grid transform
    worst_css = 0.0
    for S, ell in ((1.0, 0), (4.0, 3)):
        phis = pl.grid_angles(512)
        f = np.exp(S * np.cos(phis) + 1j * ell * phis)
        proj = pl.from_grid(pl.GridFunction(f), SYM(64))
        ref = pl.css_state(pl.CssParams(S, ell), SYM(64)).coeffs
        worst_css = max(worst_css, float(np.max(np.abs(align_phase(proj.coeffs, ref) - ref))))

    ok = worst_op <= 1e-10 and worst_mom <= 1e-9 and worst_css <= 1e-10
    _report(
        8,
        "oracle equivalences",
        ok,
        f"operators {worst_op:.2e}, moments {worst_mom:.2e}, coefficients {worst_css:.2e}",
    )
    assert worst_op <= 1e-10
    assert worst_mom <= 1e-9
    assert worst_css <= 1e-10
