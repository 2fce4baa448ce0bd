import hashlib

import numpy as np
import pytest

import packetlab as pl
from conftest import dense_stencil, gl_matrix_element

SYM = pl.ModeWindow.symmetric
LOW = pl.ModeWindow.bounded_below


def hermiticity_defect(op):
    return np.max(np.abs(op.entries - op.entries.conj().T))


def commutator(X, Y):
    x, y = X.entries, Y.entries
    return x @ y - y @ x


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
    assert np.max(np.abs(commutator(L, C) - 1j * S.entries)) < 1e-13
    assert np.max(np.abs(commutator(L, S) + 1j * C.entries)) < 1e-13
    # [cos, sin] = 0 away from the truncation corners
    CS = commutator(C, S)
    assert np.max(np.abs(CS[1:-1, 1:-1])) < 1e-15
    assert abs(CS[0, 0]) > 0.1  # the corner defect of the truncation


def test_commutators_phase_family():
    w = LOW(10)
    N = pl.build(pl.OperatorId.NUMBER, w)
    C = pl.build(pl.OperatorId.PHASE_COS, w)
    S = pl.build(pl.OperatorId.PHASE_SIN, w)
    assert np.max(np.abs(commutator(N, C) - 1j * S.entries)) < 1e-13
    assert np.max(np.abs(commutator(N, S) + 1j * C.entries)) < 1e-13
    # the phase coordinates genuinely do not commute: the content sits at the
    # physical m = 0 corner (the other corner is the truncation artifact)
    CS = commutator(C, S)
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
    assert np.allclose(L.entries @ s.coeffs, 3.0 * s.coeffs)

    C = pl.build(pl.OperatorId.COS_PHI, w)
    c = np.zeros(9)
    c[4] = 1.0  # m = 0
    out = C.entries @ pl.normalize(c, w).coeffs
    expect = np.zeros(9)
    expect[3] = expect[5] = 0.5
    assert np.allclose(out, expect)

    # the angle operator couples mode 0 to both neighbors at M = 1; the signs
    # follow from the quadrature integrals (<-1|phi|0> = i, <1|phi|0> = -i)
    w1 = SYM(1)
    P = pl.build(pl.OperatorId.PHI_P, w1)
    out = P.entries @ pl.normalize(np.array([0, 1.0, 0]), w1).coeffs
    assert out[0] == pytest.approx(1j)
    assert out[2] == pytest.approx(-1j)


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


# sha256 of build(op, M = 16).entries.tobytes() (complex128, little-endian):
# the one byte-level pin of the dense phi_p and phi_p^2 builds, and of the
# dense matrix every banded kind expands to
ENTRIES_SHA256 = {
    "AngularMomentum": "4400d54a46743765651729575e4a2e275834ad1e0fab6e0271b726a5351bf7cf",
    "CosPhi": "8ed864badad34738468c10bb9df313977759555c932037b1c834036b8fb2d6bf",
    "SinPhi": "acfe491a5f190c45bcf99f2483ff794d38817ba93044d92f7c990f52f796ccd5",
    "PhiP": "872aa1496ddf088dc594103f79466a5ee95d50d862053ae309d91f98556911a4",
    "PhiPSquared": "0bca320f59a080af6449c451443fc901ab9e2d7cbdaa0a1966a40af0ce5f30d0",
    "Number": "1320b47faa1a3c377d9ac70d35019ef7dbb32d50751696fac78791e57add4fb7",
    "PhaseCos": "f44f892ece92a7f22aa0fc3cf3b9c97d18ab742db8260ba1e5d8dd3446ee1412",
    "PhaseSin": "bfedad27c2342092970aff47c43581f4897893b6e321b9e807a25de8529dbaf2",
}


@pytest.mark.parametrize("op_id", list(pl.OperatorId))
def test_build_bytes_unchanged(op_id):
    entries = pl.build(op_id, window_of(op_id, 16)).entries
    assert entries.dtype == np.dtype("<c16")
    assert hashlib.sha256(entries.tobytes()).hexdigest() == ENTRIES_SHA256[op_id.value]
