import hashlib
import io
import json

import numpy as np
import pytest

import packetlab as pl
from conftest import dense_stencil, gl_matrix_element

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
    # a banded kind is written from its bands, so M = 4096 (8193 modes, where
    # the dense matrix would take 1.07 GB) writes its 2d - 2 nonzero entries
    buf = io.StringIO()
    pl.write_matrix_csv(pl.build(pl.OperatorId.SIN_PHI, SYM(4096)), buf)
    assert len(buf.getvalue().splitlines()) == 2 + 16384


BANDED = [
    pl.OperatorId.ANGULAR_MOMENTUM, pl.OperatorId.COS_PHI, pl.OperatorId.SIN_PHI,
    pl.OperatorId.NUMBER, pl.OperatorId.PHASE_COS, pl.OperatorId.PHASE_SIN,
]


def window_of(op_id, M):
    return SYM(M) if op_id in pl.operators.CIRCLE_IDS else LOW(M)


@pytest.mark.parametrize("M", [1, 2, 64])
@pytest.mark.parametrize("op_id", BANDED)
def test_band_storage_matches_dense_stencil(op_id, M):
    # L and N keep their real diagonal, the stencils their three diagonals;
    # the dense matrix built from them is the old stencil bit for bit, the
    # sign of every zero included
    window = window_of(op_id, M)
    op = pl.build(op_id, window)
    d = window.dimension
    diagonal = op_id in (pl.OperatorId.ANGULAR_MOMENTUM, pl.OperatorId.NUMBER)
    assert [x.shape for x in op.data] == ([(d,)] if diagonal else [(d - 1,), (d,), (d - 1,)])
    ref = dense_stencil(op_id, window)
    assert op.entries.dtype == ref.dtype
    assert op.entries.tobytes() == ref.tobytes()
    # one shape per kind: the dense matrix is not a second way to store it
    with pytest.raises(ValueError):
        pl.OperatorMatrix(op_id, window, (ref,))


# sha256 of write_matrix_csv at M = 16 as it was written while every
# operator was stored dense
CSV_SHA256 = {
    "AngularMomentum": "ef55942a53185f0b64ec871024610832836c31b554b762cc1e0646ef02e5bc66",
    "CosPhi": "c4d1122d983fad7c73b6f29e9af68d2dcb8d9f1570954cfc523149ace8f3a97a",
    "SinPhi": "980a1b4bf0a383452ad1915ef750d83283816dd29ecbf903bfda3af510705626",
    "PhiP": "011dcb4668f1fcaf7acd27501ccebfcd4513b52507bab3b0fab2eab62b61ef97",
    "PhiPSquared": "8f0f034b3636dc34a9c925af6c548e1698357fee206a1f0a339b6d6841983d14",
    "Number": "7049f8a974e5851e7798870259a89c0514c4d62cafd16ca2b6be07db6c4a4f1f",
    "PhaseCos": "4837aaafece14ab53ef7e90145e998287c45eebe32e95374aa6e62dac1aeb29c",
    "PhaseSin": "efd9e105fd1a58687ee72cc61e1504069765ca2286bd37c20b9b206a0b651171",
}


@pytest.mark.parametrize("op_id", list(pl.OperatorId))
def test_matrix_csv_bytes_unchanged(op_id):
    buf = io.StringIO()
    pl.write_matrix_csv(pl.build(op_id, window_of(op_id, 16)), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CSV_SHA256[op_id.value]
    # and the banded kinds write the nonzero entries of the dense stencil
    if op_id in BANDED:
        window = window_of(op_id, 16)
        m, e = window.modes, dense_stencil(op_id, window)
        rows = [f"{m[i]},{m[j]},{e[i, j].real:.17g},{e[i, j].imag:.17g}" for i, j in zip(*np.nonzero(e))]
        assert buf.getvalue().splitlines()[2:] == rows
