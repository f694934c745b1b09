"""Matrix layer against the complex-adjoint oracle."""

import ast
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (
    BipartiteState,
    CDensity,
    Generator,
    Observable,
    ProjectorFamily,
    Propagator,
    QMatrix,
    block_purify,
    chi,
    chi_inverse,
    chi_membership_deviation,
    eigvals_hermitian,
    expm_q,
    frobenius_norm,
    integrate,
    is_positive_semidefinite,
    max_abs,
    measurement_interaction,
    rank_q,
    real_trace,
    validate,
)
import qmix
from qmix import dynamics, qmatrix
from qmix.density import _density_gate, _expectations, _lift_blocks
from qmix.errors import (
    DimensionMismatch,
    DriftExceeded,
    NotAntiHermitian,
    NotHermitian,
    NotInChiImage,
    NotNormalized,
    NotOrthogonal,
    NotPositive,
    NotUnitary,
    PairingFailure,
    QmixError,
    TraceNotOne,
)
from qmix.qmatrix import (
    _paired_eigvals,
    chi_membership_deviation,
    hermiticity_deviation,
    numerical_rank,
    require_hermitian,
)
from qmix.quaternion import Quaternion

from support import (
    NON_FINITE_CASES,
    assert_names_value_and_tolerance,
    chi_blocks,
    chi_oracle_matmul,
    qclose,
    random_anti_hermitian_qmatrix,
    random_complex,
    random_hermitian_qmatrix,
    random_qmatrix,
    with_non_finite,
)

J_MAT_1 = QMatrix(np.zeros((1, 1)), np.ones((1, 1)))


# -- chi representation ------------------------------------------------

def test_chi_identity():
    assert np.array_equal(chi(QMatrix.identity(3)), np.eye(6))


def test_chi_of_j():
    assert np.array_equal(chi(J_MAT_1), np.array([[0, -1], [1, 0]]))


def test_chi_round_trip_exact():
    rng = np.random.default_rng(10)
    for n, m in [(2, 2), (3, 5), (4, 1)]:
        mat = random_qmatrix(rng, n, m)
        back = chi_inverse(chi(mat))
        assert np.array_equal(back.alpha, mat.alpha)
        assert np.array_equal(back.beta, mat.beta)


def test_chi_of_a_stack_is_the_stack_of_chis():
    rng = np.random.default_rng(26)
    stack = QMatrix(*(random_complex(rng, 12, 2).reshape(4, 3, 2) for _ in range(2)))
    images = chi(stack)
    assert images.shape == (4, 6, 4)
    for i in range(4):
        assert np.array_equal(images[i], chi_blocks(stack.alpha[i], stack.beta[i]))
    nested = QMatrix(stack.alpha.reshape(2, 2, 3, 2), stack.beta.reshape(2, 2, 3, 2))
    assert np.array_equal(chi(nested).reshape(4, 6, 4), images)


def test_chi_membership():
    rng = np.random.default_rng(11)
    mat = random_qmatrix(rng, 3)
    image = chi(mat)
    assert chi_membership_deviation(image) == 0.0
    image[0, 0] += 1e-6
    with pytest.raises(NotInChiImage):
        chi_inverse(image)


@pytest.mark.parametrize("block,position,value", NON_FINITE_CASES)
def test_chi_inverse_rejects_non_finite(block, position, value):
    mat = with_non_finite(random_qmatrix(np.random.default_rng(14), 3), block, position, value)
    with pytest.raises(NotInChiImage) as excinfo:
        chi_inverse(chi(mat))
    assert_names_value_and_tolerance(excinfo.value, 1e-10)


def test_chi_membership_symmetry_condition():
    # J conj(C) J^{-1} == C for members, with J = [[0, -I], [I, 0]]
    rng = np.random.default_rng(12)
    mat = random_qmatrix(rng, 3)
    image = chi(mat)
    n = 3
    j_block = np.block([[np.zeros((n, n)), -np.eye(n)], [np.eye(n), np.zeros((n, n))]])
    assert np.abs(j_block @ image.conj() @ np.linalg.inv(j_block) - image).max() < 1e-15


# -- products ----------------------------------------------------------

def test_matmul_identity():
    rng = np.random.default_rng(13)
    mat = random_qmatrix(rng, 4)
    assert qclose(mat @ QMatrix.identity(4), mat, tol=0.0)


def test_j_squared_is_minus_identity():
    j3 = QMatrix(np.zeros((3, 3)), np.eye(3))
    assert qclose(j3 @ j3, -QMatrix.identity(3), tol=0.0)


def test_matmul_against_chi_oracle():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(1000):
        a = random_qmatrix(rng, 3)
        b = random_qmatrix(rng, 3)
        direct = a @ b
        oracle = chi_oracle_matmul(a, b)
        worst = max(
            worst,
            np.abs(direct.alpha - oracle.alpha).max(),
            np.abs(direct.beta - oracle.beta).max(),
        )
    assert worst <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_chi_homomorphism(seed, n):
    rng = np.random.default_rng(seed)
    a = random_qmatrix(rng, n)
    b = random_qmatrix(rng, n)
    lhs = chi(a @ b)
    rhs = chi(a) @ chi(b)
    scale = max(1.0, np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale
    assert np.abs(chi(a.h) - chi(a).conj().T).max() == 0.0
    assert np.abs(chi(a + b) - (chi(a) + chi(b))).max() == 0.0


def test_matmul_dimension_check():
    with pytest.raises(DimensionMismatch):
        QMatrix.from_complex(np.zeros((2, 3))) @ QMatrix.from_complex(np.zeros((2, 3)))


def test_scalar_product_matches_quaternion_scalars():
    rng = np.random.default_rng(15)
    for _ in range(100):
        q = Quaternion(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        p = Quaternion(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
        qm = QMatrix(np.array([[q.alpha]]), np.array([[q.beta]]))
        pm = QMatrix(np.array([[p.alpha]]), np.array([[p.beta]]))
        prod = qm @ pm
        want = q * p
        assert prod.alpha[0, 0] == pytest.approx(want.alpha)
        assert prod.beta[0, 0] == pytest.approx(want.beta)


# -- trace and norms ---------------------------------------------------

def test_real_trace_examples():
    assert real_trace(QMatrix.identity(5)) == 5.0
    j5 = QMatrix(np.zeros((5, 5)), np.eye(5))
    assert real_trace(j5) == 0.0


def test_real_trace_vs_chi():
    rng = np.random.default_rng(16)
    for _ in range(100):
        mat = random_qmatrix(rng, 4)
        assert abs(real_trace(mat) - np.trace(chi(mat)).real / 2) <= 1e-13


def test_real_trace_requires_square():
    with pytest.raises(DimensionMismatch):
        real_trace(QMatrix.from_complex(np.zeros((2, 3))))


def test_frobenius_norm_vs_chi():
    rng = np.random.default_rng(17)
    for _ in range(100):
        mat = random_qmatrix(rng, 3)
        lhs = frobenius_norm(mat) ** 2
        rhs = np.linalg.norm(chi(mat)) ** 2 / 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


@pytest.mark.parametrize("n", range(1, 13))
def test_frobenius_norm_of_a_stack_is_bitwise_per_slice(n):
    # one value per slice, each with the bits of np.linalg.norm's formula on
    # the slice alone; magnitudes from 1e-16 to 1 within one stack
    rng = np.random.default_rng(90 + n)
    scales = 10.0 ** rng.uniform(-16, 0, size=(100, 1, 1))
    alpha = random_complex(rng, 100 * n, n).reshape(100, n, n) * scales
    beta = random_complex(rng, 100 * n, n).reshape(100, n, n) * scales[::-1]
    if n == 1:
        # block norms that square to other bits as an array than as scalars
        alpha[0], beta[0] = 0.8040472240795793, 0.8366381276049658
    stack = QMatrix(alpha, beta)
    for m in (stack, stack[:1]):
        norms = frobenius_norm(m)
        assert norms.shape == (len(m.alpha),)
        for i, value in enumerate(norms):
            alone = np.sqrt(np.linalg.norm(m.alpha[i]) ** 2 + np.linalg.norm(m.beta[i]) ** 2)
            assert value == frobenius_norm(m[i]) == alone


@pytest.mark.parametrize(
    "measure,entry,shape",
    [(frobenius_norm, 1e308, (2, 2)), (frobenius_norm, 1e308, (3, 2, 2)),
     (frobenius_norm, 1e160, (2, 2)), (max_abs, 1e200, (2, 2))],
    ids=["frobenius-norm", "frobenius-norm-stack", "frobenius-norm-square", "max-abs"],
)
def test_block_measures_read_inf_past_the_float_range(measure, entry, shape):
    mat = QMatrix(np.full(shape, entry), np.full(shape, entry))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = measure(mat)
    assert np.all(np.isinf(value)) and np.shape(value) == shape[:-2]


def test_max_abs():
    mat = QMatrix(np.array([[3.0, 0], [0, 0]]), np.array([[4.0, 0], [0, 0]]))
    assert max_abs(mat) == pytest.approx(5.0)


# -- hermiticity -------------------------------------------------------

def test_hermitian_characterization_forward():
    rng = np.random.default_rng(18)
    mat = random_hermitian_qmatrix(rng, 4)
    assert hermiticity_deviation(mat) <= 1e-10
    assert np.abs(mat.alpha - mat.alpha.conj().T).max() < 1e-15
    assert np.abs(mat.beta + mat.beta.T).max() < 1e-15


def test_hermitian_characterization_backward():
    rng = np.random.default_rng(19)
    base = random_hermitian_qmatrix(rng, 4)
    bad_alpha = QMatrix(base.alpha + 1e-4 * np.eye(4) * 1j, base.beta)
    assert not hermiticity_deviation(bad_alpha) <= 1e-10
    sym = random_complex(rng, 4)
    bad_beta = QMatrix(base.alpha, (sym + sym.T) / 2)
    assert not hermiticity_deviation(bad_beta) <= 1e-10


def test_skew_beta_example_is_hermitian():
    mat = QMatrix(np.diag([0.5, 0.5]), np.array([[0, -0.5], [0.5, 0]]))
    assert hermiticity_deviation(mat) <= 1e-10


def _block_deviation(m, sign):
    """The oracle: max(|alpha - sign alpha^dag|, |beta + sign beta^T|) per slice."""
    alpha_adj, beta_t = m.alpha.conj().swapaxes(-1, -2), m.beta.swapaxes(-1, -2)
    if sign < 0:
        alpha_adj, beta_t = -alpha_adj, -beta_t
    with np.errstate(over="ignore", invalid="ignore"):
        dev_alpha = np.abs(m.alpha - alpha_adj).max((-2, -1), initial=0.0)
        dev_beta = np.abs(m.beta + beta_t).max((-2, -1), initial=0.0)
    return np.maximum(dev_alpha, dev_beta)


def _deviation_cases():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 5):
        yield random_qmatrix(rng, n, n)
        yield random_hermitian_qmatrix(rng, n)
        yield random_anti_hermitian_qmatrix(rng, n)
        yield random_hermitian_qmatrix(rng, n) + random_qmatrix(rng, n, n) * 1e-11
        yield random_anti_hermitian_qmatrix(rng, n) + random_qmatrix(rng, n, n) * 1e-11
    base = random_hermitian_qmatrix(rng, 3)
    for block, position, value in NON_FINITE_CASES + [("alpha", "off-diagonal", 1.7e308)]:
        yield with_non_finite(base, block, position, value)
        yield with_non_finite(base, block, position, -value)
    slices = [random_hermitian_qmatrix(rng, 3) for _ in range(3)]
    slices.append(with_non_finite(slices[0], "beta", "diagonal", float("inf")))
    slices.append(random_qmatrix(rng, 3, 3))
    yield QMatrix(np.stack([m.alpha for m in slices]), np.stack([m.beta for m in slices]))


@pytest.mark.parametrize("sign", [1, -1])
def test_hermiticity_through_chi_equals_the_block_test(sign):
    # chi is a *-homomorphism: the chi image's deviation from hermiticity
    # is the blockwise one, to the bit, for finite and non-finite entries
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in _deviation_cases():
            got = hermiticity_deviation(m, sign)
            want = _block_deviation(m, sign)
            assert np.shape(got) == want.shape
            assert np.array_equal(got, want, equal_nan=True), (got, want)


# -- eigenvalues, rank, positivity --------------------------------------

def test_eigvals_identity():
    assert np.allclose(eigvals_hermitian(QMatrix.identity(4)), np.ones(4))


def test_eigvals_diagonal_complex():
    mat = QMatrix.from_complex(np.diag([2.0, 3.0]))
    assert np.allclose(eigvals_hermitian(mat), [2.0, 3.0])


def test_eigvals_purified_two_level_state():
    # frozen oracle: the 4x4 complex-adjoint image of this rank-one
    # projector has spectrum {0, 0, 1, 1}
    mat = QMatrix(np.diag([0.5, 0.5]), np.array([[0, -0.5], [0.5, 0]]))
    oracle = np.linalg.eigvalsh(chi_blocks(mat.alpha, mat.beta))
    assert np.allclose(oracle, [0, 0, 1, 1], atol=1e-14)
    assert np.allclose(eigvals_hermitian(mat), [0.0, 1.0], atol=1e-14)


def test_eigvals_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eigvals_hermitian(QMatrix(np.array([[0, 1], [0, 0]]), np.zeros((2, 2))))


def test_eigvals_pairing_on_randoms():
    rng = np.random.default_rng(20)
    for n in range(2, 7):
        mat = random_hermitian_qmatrix(rng, n)
        eigs = np.linalg.eigvalsh(chi_blocks(mat.alpha, mat.beta))
        scale = max(1.0, np.abs(eigs).max())
        assert np.abs(eigs[0::2] - eigs[1::2]).max() <= 1e-8 * scale
        assert eigvals_hermitian(mat).size == n


def test_eigvals_of_a_stack_are_the_per_slice_spectra():
    rng = np.random.default_rng(27)
    mats = [random_hermitian_qmatrix(rng, 4) for _ in range(5)]
    stack = QMatrix(np.stack([m.alpha for m in mats]), np.stack([m.beta for m in mats]))
    eigs = eigvals_hermitian(stack)
    assert eigs.shape == (5, 4)
    deviations = hermiticity_deviation(stack)
    for i, mat in enumerate(mats):
        assert np.array_equal(eigs[i], eigvals_hermitian(mat))
        assert deviations[i] == hermiticity_deviation(mat)
    ranks = numerical_rank(eigs)
    assert ranks.tolist() == [numerical_rank(row) for row in eigs]


def test_eigvals_stack_names_the_non_finite_slice_before_eigensolver(monkeypatch):
    rng = np.random.default_rng(28)
    mats = [random_hermitian_qmatrix(rng, 3) for _ in range(4)]
    mats[2] = with_non_finite(mats[2], "beta", "off-diagonal", float("nan"))
    mats[3] = with_non_finite(mats[3], "alpha", "diagonal", float("inf"))
    stack = QMatrix(np.stack([m.alpha for m in mats]), np.stack([m.beta for m in mats]))

    def no_eigensolver(*args, **kwargs):
        raise AssertionError("non-finite input reached an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    with pytest.raises(NotHermitian) as excinfo:
        eigvals_hermitian(stack)
    assert excinfo.value.index == (2,)
    assert str(excinfo.value).endswith(" at slice 2")
    assert_names_value_and_tolerance(excinfo.value, 1e-10)


def test_positivity_measures_hermiticity_once(monkeypatch):
    calls = []

    def counting(m, sign=1):
        calls.append(m)
        return hermiticity_deviation(m, sign)

    monkeypatch.setattr(qmatrix, "hermiticity_deviation", counting)
    assert is_positive_semidefinite(QMatrix.identity(3))
    assert len(calls) == 1


def test_negative_example_minimum_eigenvalue():
    # frozen: min eigenvalue of this hermitian matrix is 1/2 - sqrt(2/5)
    mat = QMatrix(np.diag([0.7, 0.3]), np.array([[0, 0.6], [-0.6, 0]]))
    eigs = eigvals_hermitian(mat)
    assert eigs.min() == pytest.approx(0.5 - np.sqrt(0.4), abs=1e-12)
    assert not is_positive_semidefinite(mat)


def test_positivity():
    assert is_positive_semidefinite(QMatrix.identity(3))
    assert not is_positive_semidefinite(-QMatrix.identity(3))
    assert not is_positive_semidefinite(QMatrix(np.array([[0, 1], [0, 0]]), np.zeros((2, 2))))


def test_a_non_square_matrix_is_not_positive_semidefinite():
    assert is_positive_semidefinite(QMatrix(np.eye(2, 3), np.zeros((2, 3)))) is False


def test_rank_examples():
    assert rank_q(QMatrix.from_complex(np.zeros((3, 3)))) == 0
    purified = QMatrix(np.diag([0.5, 0.5]), np.array([[0, -0.5], [0.5, 0]]))
    assert rank_q(purified) == 1
    assert rank_q(QMatrix.identity(4)) == 4


def test_rank_from_constructed_spectrum():
    rng = np.random.default_rng(21)
    for m in range(1, 5):
        basis = np.linalg.qr(random_complex(rng, 5))[0]
        weights = rng.uniform(0.5, 1.0, size=m)
        mat = (basis[:, :m] * weights) @ basis[:, :m].conj().T
        qmat = QMatrix.from_complex(mat / np.trace(mat).real)
        assert rank_q(qmat) == m


# -- exponential -------------------------------------------------------

def test_expm_zero():
    assert qclose(expm_q(QMatrix.from_complex(np.zeros((3, 3)))), QMatrix.identity(3), tol=1e-15)


def test_expm_j_pi():
    # exp(j theta) = cos(theta) + j sin(theta); theta = pi gives -1
    mat = QMatrix(np.zeros((1, 1)), np.full((1, 1), np.pi))
    result = expm_q(mat)
    assert result.alpha[0, 0] == pytest.approx(-1.0, abs=1e-14)
    assert result.beta[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_expm_of_anti_hermitian_is_unitary():
    rng = np.random.default_rng(22)
    for n in (2, 4):
        a = random_complex(rng, n)
        b = random_complex(rng, n)
        ham = QMatrix((a - a.conj().T) / 2, (b + b.T) / 2)
        u = expm_q(ham)
        assert max_abs(u.h @ u - QMatrix.identity(n)) <= 1e-10


def test_expm_commutes_with_adjoint():
    rng = np.random.default_rng(23)
    for _ in range(20):
        mat = random_anti_hermitian_qmatrix(rng, 3) * 0.5
        lhs = expm_q(mat.h)
        rhs = expm_q(mat).h
        assert qclose(lhs, rhs, tol=1e-10)


@pytest.mark.parametrize("block,position,value", NON_FINITE_CASES)
def test_expm_rejects_non_finite(block, position, value):
    with pytest.raises(NotAntiHermitian) as excinfo:
        expm_q(with_non_finite(QMatrix.from_complex(np.zeros((2, 2))), block, position, value))
    assert_names_value_and_tolerance(excinfo.value, 1e-10)


def test_expm_rejects_non_anti_hermitian():
    rng = np.random.default_rng(24)
    for mat in (random_hermitian_qmatrix(rng, 3), random_qmatrix(rng, 3)):
        with pytest.raises(NotAntiHermitian):
            expm_q(mat)


def test_expm_phase_guard():
    # phases of exp(s H) carry an error of about |s| |H| eps; past the
    # membership tolerance the exponential refuses instead of guessing
    ham = random_anti_hermitian_qmatrix(np.random.default_rng(25), 4)
    ham = ham / qmatrix.frobenius_norm(ham)
    bound = qmatrix.UNITARY_TOL / np.finfo(np.float64).eps
    u = expm_q(ham * (bound / 4))
    assert max_abs(u.h @ u - QMatrix.identity(4)) <= 1e-13
    with pytest.raises(NotUnitary) as excinfo:
        expm_q(ham * (bound * 4))
    assert f"{bound:.3e}" in str(excinfo.value)


@pytest.mark.parametrize("n", [1, 2, 8, 32, 64])
@pytest.mark.parametrize("norm", [1.0, 30.0, 1e3])
def test_expm_matches_scipy(monkeypatch, n, norm):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    seen = []
    chi_inverse = qmatrix.chi_inverse

    def recording_chi_inverse(c, tol):
        seen.append(chi_membership_deviation(c))
        return chi_inverse(c, tol)

    ham = random_anti_hermitian_qmatrix(np.random.default_rng(26 + n), n)
    ham = ham * (norm / qmatrix.frobenius_norm(ham))
    monkeypatch.setattr(qmatrix, "chi_inverse", recording_chi_inverse)
    u = expm_q(ham)
    monkeypatch.undo()
    reference = scipy_linalg.expm(chi_blocks(ham.alpha, ham.beta))
    assert np.abs(chi_blocks(u.alpha, u.beta) - reference).max() <= 1e-12
    assert max_abs(u.h @ u - QMatrix.identity(n)) <= 1e-13
    assert seen and max(seen) <= 1e-12


# -- construction and arithmetic ----------------------------------------

def test_shape_validation():
    with pytest.raises(DimensionMismatch):
        QMatrix(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        QMatrix(np.zeros(4), np.zeros(4))


def test_adjoint_involution_and_blocks():
    rng = np.random.default_rng(24)
    mat = random_qmatrix(rng, 3, 4)
    adj = mat.h
    assert adj.shape == (4, 3)
    assert np.array_equal(adj.alpha, mat.alpha.conj().T)
    assert np.array_equal(adj.beta, -mat.beta.T)
    assert qclose(adj.h, mat, tol=0.0)


def test_real_scalar_arithmetic():
    mat = QMatrix(np.eye(2), np.eye(2))
    assert qclose(mat * 2.0, QMatrix(2 * np.eye(2), 2 * np.eye(2)), tol=0.0)
    assert qclose(2.0 * mat, mat * 2.0, tol=0.0)
    assert qclose(mat / 2, QMatrix(np.eye(2) / 2, np.eye(2) / 2), tol=0.0)
    assert qclose(mat - mat, QMatrix.from_complex(np.zeros((2, 2))), tol=0.0)


@pytest.mark.parametrize(
    "call,error,message",
    [(lambda m: m * 10**400, QmixError, "scalar = <int of 1329 bits> is not finite"),
     (lambda m: 10**400 * m, QmixError, "scalar = <int of 1329 bits> is not finite"),
     (lambda m: m * -(10**400), QmixError, "scalar = <negative int of 1329 bits> is not finite"),
     (lambda m: m / 10**400, QmixError, "divisor = <int of 1329 bits> is not finite"),
     (lambda m: m * float("nan"), QmixError, "scalar = nan is not finite"),
     (lambda m: m / float("inf"), QmixError, "divisor = inf is not finite"),
     (lambda m: m * True, ValueError, "scalar must be a real number, got True"),
     (lambda m: m / True, ValueError, "divisor must be a real number, got True")],
    ids=["int-past-float-range", "int-past-float-range-on-the-left",
         "negative-int-past-float-range", "divisor-past-float-range", "nan", "infinite-divisor",
         "bool", "bool-divisor"],
)
def test_scalar_arithmetic_names_a_bad_scalar(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as excinfo:
            call(QMatrix.identity(2))
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


# -- spectral helpers on extreme input -------------------------------------------

@pytest.mark.parametrize(
    "block,value", [(b, v) for b in ("alpha", "beta") for v in (np.nan, np.inf, -np.inf, complex(0.0, np.inf))]
)
def test_rank_rejects_a_non_finite_entry_before_the_svd(capfd, block, value):
    blocks = {"alpha": np.eye(2, dtype=np.complex128), "beta": np.zeros((2, 2), dtype=np.complex128)}
    blocks[block][0, 1] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError, match="non-finite entry"):
            rank_q(QMatrix(blocks["alpha"], blocks["beta"]))
    assert capfd.readouterr() == ("", "")  # nothing from LAPACK either


def test_spectral_helpers_on_entries_near_the_float_limit():
    big = QMatrix.from_complex(np.array([[0.0, 1e308], [1e308, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_q(big) == 2
        assert eigvals_hermitian(big).tolist() == [-1e308, 1e308]
        assert rank_q(QMatrix.from_complex(np.diag([1.7e308 + 1.7e308j, 1.0]))) == 1


@pytest.mark.parametrize("spectral", [eigvals_hermitian, is_positive_semidefinite])
def test_a_spectrum_past_the_float_range_is_an_error(spectral):
    # finite entries whose eigenvalue 3.4e308 overflows: one QmixError
    # naming it, before the pairing gap can read inf - inf
    over = QMatrix.from_complex(np.full((2, 2), 1.7e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError, match="eigenvalue magnitude inf is not finite"):
            spectral(over)
        near = QMatrix.from_complex(np.full((2, 2), 8e307))
        assert np.isfinite(eigvals_hermitian(near)).all()
        assert is_positive_semidefinite(near)


def test_rank_is_blind_to_power_of_two_scale():
    rng = np.random.default_rng(90)
    for m in range(1, 5):
        w = random_qmatrix(rng, 4, m)
        psd = w @ w.h
        for k in (-1000, -300, -1, 1, 300, 1000):
            assert rank_q(psd * 2.0**k) == rank_q(psd) == m


def test_rank_of_a_stack_is_one_rank_per_slice():
    # each slice is scaled by its own power of two, so a tiny slice beside a
    # huge one keeps its rank
    rng = np.random.default_rng(91)
    slices = []
    for m, k in ((1, 0), (3, 0), (2, -1000), (3, 1000), (0, 0)):
        w = random_qmatrix(rng, 3, m)
        slices.append((w @ w.h) * 2.0**k)
    stack = QMatrix(np.stack([s.alpha for s in slices]), np.stack([s.beta for s in slices]))
    ranks = rank_q(stack)
    assert ranks.tolist() == [rank_q(s) for s in slices] == [1, 3, 2, 3, 0]
    assert rank_q(stack[:2]).tolist() == [1, 3]
    grid = QMatrix(stack.alpha[:4].reshape(2, 2, 3, 3), stack.beta[:4].reshape(2, 2, 3, 3))
    assert rank_q(grid).tolist() == [[1, 3], [2, 3]]


# -- input errors ----------------------------------------------------------------

@pytest.mark.parametrize(
    "call,error,fragment",
    [
        (lambda: hermiticity_deviation(np.zeros((2, 3))), DimensionMismatch,
         "hermiticity argument must be square, got (2, 3)"),
        (lambda: hermiticity_deviation(QMatrix(np.zeros((2, 3)), np.zeros((2, 3)))),
         DimensionMismatch, "hermiticity argument must be square, got (2, 3)"),
        (lambda: hermiticity_deviation(np.zeros(4)), DimensionMismatch,
         "hermiticity argument must be square, got (4,)"),
        (lambda: expm_q(QMatrix(np.zeros((2, 3)), np.zeros((2, 3)))), DimensionMismatch,
         "exponent must be square, got (2, 3)"),
        (lambda: chi_membership_deviation(np.zeros((3, 4))), DimensionMismatch,
         "chi image must have even shape, got (3, 4)"),
        (lambda: chi_membership_deviation(np.zeros((4, 3))), DimensionMismatch,
         "chi image must have even shape, got (4, 3)"),
        (lambda: chi_membership_deviation(np.zeros(4)), DimensionMismatch,
         "chi image must be one 2-D matrix, got shape (4,)"),
        (lambda: chi_inverse(np.zeros((2, 4, 4))), DimensionMismatch,
         "chi image must be one 2-D matrix, got shape (2, 4, 4)"),
        (lambda: chi_inverse(np.zeros((3, 4))), DimensionMismatch,
         "chi image must have even shape, got (3, 4)"),
        # a finite scalar whose product or quotient is not finite: refused, no numpy warning
        (lambda: QMatrix.identity(2) / 0, QmixError, "divisor = 0 gives 8 non-finite entries"),
        (lambda: QMatrix.identity(2) * 1e308 * 10, QmixError,
         "scalar = 10 gives 2 non-finite entries"),
    ],
    ids=["hermiticity-array", "hermiticity-qmatrix", "hermiticity-one-axis", "expm", "chi-odd-rows",
         "chi-odd-cols", "chi-one-dimensional", "chi-inverse-stack", "chi-inverse-odd-rows",
         "divide-by-zero", "multiply-overflow"],
)
def test_input_errors(call, error, fragment):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as excinfo:
            call()
    assert type(excinfo.value) is error
    assert fragment in str(excinfo.value)


def test_sums_differences_and_products_refuse_an_overflow():
    # finite operands whose sum, difference or product is not finite: one
    # QmixError naming the operation, and no numpy warning; a non-finite
    # operand passes through, quietly, to the gate that reads it
    m = QMatrix.identity(2) * 1e308
    nan = QMatrix.from_complex(np.full((2, 2), np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, what in ((lambda: m + m, "sum"), (lambda: m - (-m), "difference"),
                           (lambda: m @ m, "product")):
            with pytest.raises(QmixError) as excinfo:
                call()
            assert type(excinfo.value) is QmixError
            assert str(excinfo.value) == f"{what} gives 2 non-finite entries"
        for out in (nan + m, m - nan, nan @ m, m @ nan, nan * 2.0, nan / 0.5):
            assert np.isnan(out.alpha).all()


@pytest.mark.parametrize(
    "value,cls,message",
    [(np.eye(2), QMatrix, "x must be a QMatrix, got ndarray of shape (2, 2)"),
     (None, Observable, "x must be an Observable, got None"),
     (0, np.random.Generator, "x must be a numpy.random.Generator, got 0"),
     (10**400, QMatrix, "x must be a QMatrix, got <int of 1329 bits>"),
     # its repr runs to 71,475 characters
     (random_qmatrix(np.random.default_rng(31), 31), Generator,
      "x must be a Generator, got QMatrix of shape (31, 31)"),
     (np.array(0.5), QMatrix, "x must be a QMatrix, got array(0.5)")],
    ids=["array-for-qmatrix", "none-for-observable", "int-for-numpy-generator", "huge-int",
         "qmatrix-n31-for-generator", "zero-dimensional-array"],
)
def test_check_type_names_the_argument_and_the_class(value, cls, message):
    # an array or matrix is named by its type and shape, not its repr, so
    # no refusal passes one short line
    assert qmatrix.check_type("x", QMatrix.identity(1), QMatrix) is None
    with pytest.raises(ValueError) as excinfo:
        qmatrix.check_type("x", value, cls)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message
    assert len(message) <= 80


# -- the shape rule ----------------------------------------------------------------

#: One input of each refused shape: not square, a stack, one axis.  Each is
#: otherwise what its callable asks for (a density, hermitian, anti-hermitian
#: or unitary), so the shape is all that is wrong.
DENSITIES = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]).astype(np.complex128)
SHAPE_INPUTS = {
    "non-square": np.eye(2, 3) / 2,
    "stack": DENSITIES,
    "one-axis": np.full(4, 0.25),
}
UNITARIES = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(np.complex128)


#: Every public callable that takes one matrix, by the name its message
#: gives the argument.  A QMatrix is at least 2-D by construction, so the
#: one-axis input reaches only the callables that take an array.
SINGLE_MATRIX_CALLS = {
    "validate": ("density matrix", lambda x: validate(QMatrix.from_complex(x))),
    "CDensity.from_matrix": ("density matrix", CDensity.from_matrix),
    "Observable.from_qmatrix": (
        "observable", lambda x: Observable.from_qmatrix(QMatrix.from_complex(x))
    ),
    "Observable.from_complex": ("observable", Observable.from_complex),
    "real_trace": ("trace argument", lambda x: real_trace(QMatrix.from_complex(x))),
    "expm_q": ("exponent", lambda x: expm_q(QMatrix.from_complex(1j * x))),
    "Generator": ("generator", lambda x: Generator(QMatrix.from_complex(1j * x))),
    "Propagator": (
        "propagator", lambda x: Propagator(QMatrix.from_complex(UNITARIES if x.ndim == 3 else x))
    ),
}
ARRAY_CALLS = {"CDensity.from_matrix", "Observable.from_complex"}


@pytest.mark.parametrize(
    "callable_name,shape",
    [(c, s) for c in sorted(SINGLE_MATRIX_CALLS) for s in sorted(SHAPE_INPUTS)
     if s != "one-axis" or c in ARRAY_CALLS],
)
def test_single_matrix_callables_refuse_every_other_shape(callable_name, shape):
    name, call = SINGLE_MATRIX_CALLS[callable_name]
    x = SHAPE_INPUTS[shape]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch) as excinfo:
            call(x)
    assert str(excinfo.value) == f"{name} must be square, got {x.shape}"


@pytest.mark.parametrize(
    "helper", [chi, hermiticity_deviation, eigvals_hermitian, frobenius_norm, rank_q],
    ids=lambda f: f.__name__,
)
def test_stack_helpers_give_one_result_per_slice(helper):
    stack = QMatrix(DENSITIES, np.stack([np.zeros((2, 2)), [[0.0, 0.25], [-0.25, 0.0]]]))
    got = np.asarray(helper(stack))
    want = np.stack([np.asarray(helper(stack[i])) for i in range(len(DENSITIES))])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "shape,dim,stack,message",
    [((2, 3), None, False, "m must be square, got (2, 3)"),
     ((4,), None, True, "m must be square, got (4,)"),
     ((), None, True, "m must be square, got ()"),
     ((2, 2, 2), None, False, "m must be square, got (2, 2, 2)"),
     ((2, 2, 3), None, True, "m must be square, got (2, 2, 3)"),
     ((3, 3), 2, False, "m dimension 3 != state dimension 2"),
     ((5, 3, 3), 2, True, "m dimension 3 != state dimension 2")],
    ids=["non-square", "one-axis", "scalar", "stack", "non-square-stack", "dimension",
         "stack-dimension"],
)
def test_check_square_names_the_argument(shape, dim, stack, message):
    with pytest.raises(DimensionMismatch) as excinfo:
        qmatrix.check_square("m", shape, dim, stack)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "shape,dim,stack",
    [((2, 2), None, False), ((0, 0), 0, False), ((3, 3), 3, False), ((4, 2, 2), 2, True),
     ((2, 2), None, True), ((1, 2, 5, 5), None, True)],
)
def test_check_square_takes_square_matrices(shape, dim, stack):
    assert qmatrix.check_square("m", shape, dim, stack) is None


# -- every tolerance failure message -----------------------------------------------

_I2 = np.eye(2, dtype=np.complex128)


def _gate_stack(second) -> np.ndarray:
    """A valid 2x2 complex density, then ``second``: a stack whose slice 1 fails."""
    return np.stack([_I2 / 2, np.asarray(second, dtype=np.complex128)])


def _lift_with_skewed_vectors():
    # two sources of one spectrum (1/2, 1/2): the first with the identity
    # as eigenvectors, the second with a pair that is off orthonormal by 0.1
    eigs = np.full((2, 2), 0.5)
    vecs = np.stack([_I2, [[1.0, 0.1], [0.0, 1.0]]]).astype(np.complex128)
    sources = CDensity(mat=np.stack([_I2 / 2] * 2), eigenvalues=eigs)
    sources.__dict__["eigenpairs"] = (eigs, vecs)  # a cached_property, read by _lift_blocks
    return _lift_blocks(sources, [0, 1], [1, 1])


_PURE_HALF = validate(QMatrix.from_complex(np.full((2, 2), 0.5)))


def _integrate_with_eigenvectors_off_unitary():
    # the closed form keeps hermiticity and trace to rounding, so only an
    # eigensolver whose vectors are off unitary (here scaled by 1.001)
    # reaches the final correction gate: the trace reads 1.001**4
    eigh = qmatrix._anti_hermitian_eigh
    with mock.patch.object(dynamics, "_anti_hermitian_eigh",
                           lambda k: (eigh(k)[0], eigh(k)[1] * 1.001)):
        integrate(_PURE_HALF, Generator(QMatrix.from_complex(np.diag([1j, -1j]))), 1.0, 1)


# One row per tolerance test in src/qmix: a failing input, the error type,
# the whole message and the failing slice (``()`` for one matrix).
TOLERANCE_FAILURES = {
    "chi-inverse": (
        lambda: chi_inverse(np.diag([1.0, 0.0])), NotInChiImage,
        "block symmetry deviation 1.000e+00 exceeds 1.000e-10", ()),
    "hermitian": (
        lambda: require_hermitian(np.array([np.zeros((2, 2)), [[0.0, 1.0], [0.0, 0.0]]]), 1e-10),
        NotHermitian,
        "hermiticity deviation 1.000e+00 exceeds 1.000e-10 at slice 1", (1,)),
    "anti-hermitian": (
        lambda: expm_q(QMatrix.identity(2)), NotAntiHermitian,
        "exponent deviates from anti-hermiticity by 2.000e+00, beyond 1.000e-10", ()),
    "pairing-gap": (
        lambda: _paired_eigvals(np.array([[0.0, 0.0], [0.0, 1.0]])), PairingFailure,
        "adjacent eigenvalue gap 1.000e+00 exceeds 1e-08 * 1.000e+00 at slice 1", (1,)),
    "spectral-radius": (
        lambda: expm_q(QMatrix.from_complex(1e7j * np.eye(1))), NotUnitary,
        "exponent spectral radius 1.000e+07 exceeds 4.504e+06, "
        "the bound for phases accurate to 1e-09", ()),
    "propagator-unitarity": (
        lambda: Propagator(QMatrix.identity(2) * 2.0), NotUnitary,
        "U^dag U deviates from identity by 3.000e+00, beyond 1.000e-09", ()),
    # chi(H) has the spectrum -i (-1, -1, 1, 1): one RK4 step of h = 2
    # across the gap 2 grows by |R(4i)| = sqrt(1 + 4**6 * 8 / 576)
    "integrate-drift": (
        lambda: integrate(_PURE_HALF, Generator(QMatrix.from_complex(np.diag([1j, -1j]))), 2.0, 1),
        DriftExceeded, "rk4 growth factor 7.608e+00 after 1 steps of h = 2.0 exceeds 1 + 1e-06: "
        "|h| times the widest spectral gap 2.000e+00 is 4.000e+00, past the stability bound "
        "2 sqrt 2", ()),
    "integrate-correction": (
        _integrate_with_eigenvectors_off_unitary, DriftExceeded,
        "rk4 correction 4.006e-03 after 1 steps of h = 1.0 exceeds 1e-06", ()),
    "state-norm": (
        lambda: BipartiteState((2, 2), [2.0, 0.0, 0.0, 0.0]), NotNormalized,
        "state norm 2.0 off unity by 1.000e+00", ()),
    "family-orthogonality": (
        lambda: ProjectorFamily.from_projectors([_I2, _I2]), NotOrthogonal,
        "projector products deviate from orthogonality by 1.000e+00", ()),
    "family-completeness": (
        lambda: ProjectorFamily.from_projectors([np.diag([1.0, 0.0])]), NotNormalized,
        "projector sum deviates from identity by 1.000e+00", ()),
    "interaction-norm": (
        lambda: measurement_interaction((1.0, 1.0)), NotNormalized,
        "|c+|^2 + |c-|^2 = 2.0 off unity by 1.000e+00", ()),
    "block-purify-norm": (
        lambda: block_purify([1.0, 0.0], [0.0, 3.0], 1.0, 1.0), NotNormalized,
        "v has norm 3.0, off unity by 2.000e+00", ()),
    "block-purify-orthogonality": (
        lambda: block_purify([1.0, 0.0], [1.0, 0.0], 1.0, 1.0), NotOrthogonal,
        "|<u, v>| = 1.000e+00 exceeds 1.000e-10", ()),
    "gate-trace": (
        lambda: _density_gate(_gate_stack(_I2), 1e-10), TraceNotOne,
        "real trace 2.0 deviates from 1 by 1.000e+00, beyond 1.000e-10 at slice 1", (1,)),
    "gate-magnitude": (
        lambda: _density_gate(_gate_stack(np.diag([2.0, -1.0])), 1e-10), NotPositive,
        "entry magnitude 2.000e+00 exceeds 1.0000000005, the bound for a unit-trace "
        "matrix with no eigenvalue below -1.000e-10 at slice 1", (1,)),
    "gate-lowest-eigenvalue": (
        lambda: _density_gate(_gate_stack([[0.5, 0.501], [0.501, 0.5]]), 1e-10), NotPositive,
        "minimum eigenvalue -1.000e-03 below -1.000e-10 at slice 1", (1,)),
    "lift-gram": (
        _lift_with_skewed_vectors, NotOrthogonal,
        "paired eigenvectors deviate from orthonormal by 1.000e-01, beyond 1.000e-10 "
        "at slice 1", (1,)),
}


@pytest.mark.parametrize("row", sorted(TOLERANCE_FAILURES))
def test_every_tolerance_failure_message(row):
    call, error, message, index = TOLERANCE_FAILURES[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError) as excinfo:
            call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    assert excinfo.value.index == index


def test_tolerance_tests_have_one_path():
    # an `if not <comparison>: raise` written out by hand would be a second
    # tolerance test beside check_slices, which owns the rule
    hand_written = []
    for path in sorted(pathlib.Path(qmix.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        tree.body = [node for node in tree.body if getattr(node, "name", "") != "check_slices"]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.If)
                and isinstance(node.test, ast.UnaryOp)
                and isinstance(node.test.op, ast.Not)
                and isinstance(node.test.operand, ast.Compare)
                and any(isinstance(stmt, ast.Raise) for stmt in node.body)
            ):
                hand_written.append(f"{path.name}:{node.lineno}")
    assert hand_written == []


@pytest.mark.parametrize(
    "owners,phrases",
    [(("check_int",), ("must be >=", "must be an integer", "need dimension", "is not an integer")),
     (("check_real", "check_tol"), ("is not finite", "must be a real number", "must be finite")),
     (("check_square",), ("must be square", "needs a square", "!= state dimension")),
     (("check_type",), ("must be a QMatrix", "must be an Observable", "must be a QDensity",
                        "Generator, got"))],
    ids=["integer", "real", "square", "type"],
)
def test_arguments_have_one_path(owners, phrases):
    # a count, dimension or seed (check_int), a time, step, angle or tol
    # (check_real, check_tol), a matrix shape (check_square) or an argument's
    # type (check_type) refused by a hand-written raise would be a second
    # rule beside its owner, in the CLI too, whose argument types call the
    # owners; a SchemaError names an entry of a matrix file, not an
    # argument, so it is not one
    hand_written = []
    for path in sorted(pathlib.Path(qmix.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        tree.body = [node for node in tree.body if getattr(node, "name", "") not in owners]
        for node in ast.walk(tree):
            text = ast.unparse(node) if isinstance(node, ast.Raise) else ""
            if any(p in text for p in phrases) and not text.startswith("raise SchemaError("):
                hand_written.append(f"{path.name}:{node.lineno}")
    assert hand_written == []


@pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(3), np.intp(0)])
def test_check_int_takes_integers_and_numpy_integers(value):
    assert qmatrix.check_int("count", value, 0) is None


@pytest.mark.parametrize(
    "value,error,message",
    [(-1, ValueError, "count must be >= 0, got -1"),
     (np.int64(-2), ValueError, "count must be >= 0, got -2"),
     (2.0, ValueError, "count must be an integer, got 2.0"),
     (np.float64(2.0), ValueError, "count must be an integer, got np.float64(2.0)"),
     (True, ValueError, "count must be an integer, got True"),
     (np.bool_(True), ValueError, "count must be an integer, got np.True_"),
     ("2", ValueError, "count must be an integer, got '2'"),
     (None, DimensionMismatch, "count must be an integer, got None"),
     (-(10**300), ValueError, f"count must be >= 0, got {-(10**300)}"),
     (-(10**5000), ValueError, "count must be >= 0, got <negative int of 16610 bits>"),
     # their reprs run to 3,191 and 4,371 characters
     (np.full(961, 3), ValueError, "count must be an integer, got ndarray of shape (961,)"),
     (np.zeros((31, 31)), DimensionMismatch, "count must be an integer, got ndarray of shape (31, 31)"),
     (np.array(3), ValueError, "count must be an integer, got array(3)")],
    ids=["negative", "numpy-negative", "float", "numpy-float", "bool", "numpy-bool", "string",
         "none-as-dimension", "negative-int-in-float-range", "negative-int-past-the-digit-limit",
         "int-array", "float-matrix-as-dimension", "zero-dimensional-int-array"],
)
def test_check_int_names_the_argument(value, error, message):
    with pytest.raises(error) as excinfo:
        qmatrix.check_int("count", value, 0, error)
    assert str(excinfo.value) == message
    # an array is named by its type and shape, not its repr: one short line
    assert len(message) <= 80 or not np.ndim(value)


@pytest.mark.parametrize(
    "value", [0, -2.5, 1e308, 10**300, np.float32(0.5), np.float64(-1.0), np.int64(3), np.uint8(3)],
    ids=["zero", "float", "largest-float", "large-int", "numpy-float32", "numpy-float64",
         "numpy-int64", "numpy-uint8"],
)
def test_check_real_takes_finite_real_numbers(value):
    assert qmatrix.check_real("t", value) is None


@pytest.mark.parametrize(
    "value,error,message",
    [(True, ValueError, "t must be a real number, got True"),
     (np.bool_(True), ValueError, "t must be a real number, got np.True_"),
     ("1", ValueError, "t must be a real number, got '1'"),
     (None, ValueError, "t must be a real number, got None"),
     (1j, ValueError, "t must be a real number, got 1j"),
     (float("nan"), QmixError, "t = nan is not finite"),
     (float("-inf"), QmixError, "t = -inf is not finite"),
     (np.float32("inf"), QmixError, "t = np.float32(inf) is not finite"),
     (10**400, QmixError, "t = <int of 1329 bits> is not finite"),
     (-(10**400), QmixError, "t = <negative int of 1329 bits> is not finite"),
     (10**5000, QmixError, "t = <int of 16610 bits> is not finite"),
     (np.array([0.5, 1.5]), ValueError, "t must be a real number, got ndarray of shape (2,)"),
     (np.array(0.5), ValueError, "t must be a real number, got array(0.5)"),
     (np.array([np.inf]), ValueError, "t must be a real number, got ndarray of shape (1,)"),
     # its repr runs to 5,323 characters
     (np.full(961, 0.5), ValueError, "t must be a real number, got ndarray of shape (961,)")],
    ids=["bool", "numpy-bool", "string", "none", "complex", "nan", "negative-inf",
         "numpy-float32-inf", "int-past-float-range", "negative-int-past-float-range",
         "int-past-the-digit-limit", "float-array", "zero-d-float-array",
         "non-finite-float-array", "long-float-array"],
)
def test_check_real_names_the_argument(value, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as excinfo:
            qmatrix.check_real("t", value)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    assert len(message) <= 80 or not np.ndim(value)


@pytest.mark.parametrize(
    "bad,shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")],
    ids=["nan", "inf", "negative-inf"],
)
def test_check_reals_names_the_first_non_finite_value_of_an_array(bad, shown):
    # one call checks a float array; the first failing value, row-major, is
    # named with its slice, and a later one is not
    values = np.arange(6.0).reshape(2, 3)
    values[1, 1], values[1, 2] = bad, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError) as excinfo:
            qmatrix._check_reals("t", values)
        assert qmatrix._check_reals("t", np.arange(6.0).reshape(2, 3)) is None
    assert type(excinfo.value) is QmixError
    assert str(excinfo.value) == f"t = {shown} is not finite at slice (1, 1)"
    assert excinfo.value.index == (1, 1)


def test_a_zero_dimensional_array_reads_as_its_value():
    # one expectation value is a 0-d array: its message is the scalar's
    with pytest.raises(QmixError) as excinfo:
        qmatrix._check_reals("t", np.array(-np.inf))
    assert str(excinfo.value) == "t = -inf is not finite"
    assert excinfo.value.index == ()


def test_an_overflowing_expectation_is_named_once():
    # Re Tr(A rho) = 2e308 overflows; the scalar message has no slice, and a
    # stack of pairs names the first overflowing one
    huge = Observable.from_qmatrix(QMatrix.from_complex(np.full((2, 2), 1e308)))
    rho = validate(QMatrix.from_complex(np.full((2, 2), 0.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError) as excinfo:
            qmix.expectation(huge, rho)
        assert str(excinfo.value) == "expectation value Re Tr(A rho) = inf is not finite"
        observables = QMatrix(np.stack([np.eye(2), huge.mat.alpha]), np.zeros((2, 2, 2)))
        with pytest.raises(QmixError) as excinfo:
            _expectations(observables, rho.mat)
    assert str(excinfo.value) == "expectation value Re Tr(A rho) = inf is not finite at slice 1"
