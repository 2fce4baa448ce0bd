import io
import json

import numpy as np
import pytest

import packetlab as pl
from conftest import gl_matrix_element

SYM = pl.ModeWindow.symmetric
LOW = pl.ModeWindow.bounded_below


def hermiticity_defect(op):
    return np.max(np.abs(op.entries - op.entries.conj().T))


@pytest.mark.parametrize(
    "op_id,window",
    [
        (pl.OperatorId.ANGULAR_MOMENTUM, SYM(8)),
        (pl.OperatorId.COS_PHI, SYM(8)),
        (pl.OperatorId.SIN_PHI, SYM(8)),
        (pl.OperatorId.PHI_P, SYM(8)),
        (pl.OperatorId.PHI_P_SQUARED, SYM(8)),
        (pl.OperatorId.NUMBER, LOW(8)),
        (pl.OperatorId.PHASE_COS, LOW(8)),
        (pl.OperatorId.PHASE_SIN, LOW(8)),
    ],
)
def test_hermitian(op_id, window):
    assert hermiticity_defect(pl.build(op_id, window)) <= 1e-14


def test_diagonal_builds():
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, SYM(2))
    assert np.allclose(L.entries, np.diag([-2, -1, 0, 1, 2]))
    N = pl.build(pl.OperatorId.NUMBER, LOW(3))
    assert np.allclose(N.entries, np.diag([0, 1, 2, 3]))


def test_cos_matrix_m1():
    C = pl.build(pl.OperatorId.COS_PHI, SYM(1))
    expect = np.array([[0, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0]])
    assert np.allclose(C.entries, expect)


def test_family_mismatch():
    with pytest.raises(pl.IncompatibleFamilyError):
        pl.build(pl.OperatorId.COS_PHI, LOW(4))
    with pytest.raises(pl.IncompatibleFamilyError):
        pl.build(pl.OperatorId.NUMBER, SYM(4))


@pytest.mark.parametrize(
    "op_id,fun",
    [
        (pl.OperatorId.COS_PHI, np.cos),
        (pl.OperatorId.SIN_PHI, np.sin),
        (pl.OperatorId.PHI_P, lambda p: p),
        (pl.OperatorId.PHI_P_SQUARED, lambda p: p**2),
    ],
)
def test_quadrature_oracle_equivalence(gl_rule, op_id, fun):
    # every entry equals the integral of e^{-im phi} f(phi) e^{in phi}/(2 pi)
    w = SYM(6)
    op = pl.build(op_id, w)
    modes = w.modes
    for i, m in enumerate(modes):
        for j, n in enumerate(modes):
            ref = gl_matrix_element(gl_rule, fun, m, n)
            assert abs(op.entries[i, j] - ref) < 1e-10


def test_angle_matrix_values():
    # <0|phi_p|1> = i, the sign fixed by direct integration of phi e^{i phi}
    op = pl.build(pl.OperatorId.PHI_P, SYM(1))
    assert op.entries[1, 2] == pytest.approx(1j)
    assert op.entries[2, 1] == pytest.approx(-1j)
    sq = pl.build(pl.OperatorId.PHI_P_SQUARED, SYM(1))
    assert sq.entries[0, 0] == pytest.approx(np.pi**2 / 3)
    assert sq.entries[0, 1] == pytest.approx(-2.0)


def test_commutators_circle():
    w = SYM(10)
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, w)
    C = pl.build(pl.OperatorId.COS_PHI, w)
    S = pl.build(pl.OperatorId.SIN_PHI, w)
    # [L, cos] = i sin and [L, sin] = -i cos hold entrywise (L is diagonal)
    assert np.max(np.abs(pl.commutator(L, C) - 1j * S.entries)) < 1e-13
    assert np.max(np.abs(pl.commutator(L, S) + 1j * C.entries)) < 1e-13
    # [cos, sin] = 0 away from the truncation corners
    CS = pl.commutator(C, S)
    assert np.max(np.abs(CS[1:-1, 1:-1])) < 1e-15
    assert abs(CS[0, 0]) > 0.1  # the corner defect of the truncation


def test_commutators_phase_family():
    w = LOW(10)
    N = pl.build(pl.OperatorId.NUMBER, w)
    C = pl.build(pl.OperatorId.PHASE_COS, w)
    S = pl.build(pl.OperatorId.PHASE_SIN, w)
    assert np.max(np.abs(pl.commutator(N, C) - 1j * S.entries)) < 1e-13
    assert np.max(np.abs(pl.commutator(N, S) + 1j * C.entries)) < 1e-13
    # the phase coordinates genuinely do not commute: the content sits at the
    # physical m = 0 corner (the other corner is the truncation artifact)
    CS = pl.commutator(C, S)
    assert abs(CS[0, 0] + 0.5j) < 1e-14
    assert np.max(np.abs(CS[1:-1, 1:-1])) < 1e-15


def test_pythagoras_identity():
    w = SYM(8)
    C = pl.build(pl.OperatorId.COS_PHI, w).entries
    S = pl.build(pl.OperatorId.SIN_PHI, w).entries
    total = C @ C + S @ S
    inner = total[1:-1, 1:-1]
    assert np.max(np.abs(inner - np.eye(inner.shape[0]))) < 1e-13

    w = LOW(8)
    C = pl.build(pl.OperatorId.PHASE_COS, w).entries
    S = pl.build(pl.OperatorId.PHASE_SIN, w).entries
    total = C @ C + S @ S
    defect = np.eye(9) - total
    # corner defect of 1/2 at both ends, zero elsewhere
    assert defect[0, 0] == pytest.approx(0.5)
    assert defect[-1, -1] == pytest.approx(0.5)
    assert np.max(np.abs(defect[1:-1, 1:-1])) < 1e-15


def test_apply():
    w = SYM(4)
    L = pl.build(pl.OperatorId.ANGULAR_MOMENTUM, w)
    c = np.zeros(9)
    c[7] = 1.0  # m = 3
    s = pl.normalize(c, w)
    assert np.allclose(pl.apply(L, s), 3.0 * s.coeffs)

    C = pl.build(pl.OperatorId.COS_PHI, w)
    c = np.zeros(9)
    c[4] = 1.0  # m = 0
    out = pl.apply(C, pl.normalize(c, w))
    expect = np.zeros(9)
    expect[3] = expect[5] = 0.5
    assert np.allclose(out, expect)

    # the angle operator couples mode 0 to both neighbors at M = 1; the signs
    # follow from the quadrature integrals (<-1|phi|0> = i, <1|phi|0> = -i)
    w1 = SYM(1)
    P = pl.build(pl.OperatorId.PHI_P, w1)
    out = pl.apply(P, pl.normalize(np.array([0, 1.0, 0]), w1))
    assert out[0] == pytest.approx(1j)
    assert out[2] == pytest.approx(-1j)


def test_window_mismatch():
    a = pl.build(pl.OperatorId.COS_PHI, SYM(3))
    b = pl.build(pl.OperatorId.SIN_PHI, SYM(4))
    with pytest.raises(pl.WindowMismatchError):
        pl.commutator(a, b)
    with pytest.raises(pl.WindowMismatchError):
        pl.apply(a, pl.random_state(SYM(4), 0))


def test_matrix_csv_dump():
    op = pl.build(pl.OperatorId.COS_PHI, SYM(1))
    buf = io.StringIO()
    pl.write_matrix_csv(op, buf)
    lines = buf.getvalue().strip().split("\n")
    header = json.loads(lines[0])
    assert header == {"id": "CosPhi", "kind": "symmetric", "M": 1}
    assert lines[1] == "i,j,re,im"
    rows = {tuple(ln.split(",")[:2]) for ln in lines[2:]}
    assert ("-1", "0") in rows and ("0", "1") in rows
    assert len(lines) == 2 + 4  # four nonzero entries at M = 1
    # the sine stencil: +i/2 above the diagonal, -i/2 below, and a plain
    # zero (never "-0") in the real column
    buf = io.StringIO()
    pl.write_matrix_csv(pl.build(pl.OperatorId.SIN_PHI, SYM(1)), buf)
    rows = [ln.split(",") for ln in buf.getvalue().strip().split("\n")[2:]]
    assert {(i, j): (re, im) for i, j, re, im in rows} == {
        ("-1", "0"): ("0", "0.5"),
        ("0", "1"): ("0", "0.5"),
        ("0", "-1"): ("0", "-0.5"),
        ("1", "0"): ("0", "-0.5"),
    }
    assert "-0" not in {field for row in rows for field in row}
