"""Dense quaternionic matrices as complex pairs, plus spectral tools.

A quaternionic matrix M = M_alpha + j*M_beta is stored as two complex
arrays of equal shape.  The product rule mirrors the scalar one:

    (A_a + j*A_b)(B_a + j*B_b)
        = (A_a B_a - conj(A_b) B_b) + j*(conj(A_a) B_b + A_b B_a)

and the adjoint is (M_alpha + j*M_beta)^dag = M_alpha^dag - j*M_beta^T,
so M is hermitian exactly when M_alpha is hermitian and M_beta is
skew-symmetric.

All spectral work (eigenvalues, rank, positivity, the exponential) is
routed through the complex-adjoint image

    chi(M) = [[M_alpha, -conj(M_beta)], [M_beta, conj(M_alpha)]],

a 2n x 2m complex matrix.  chi is an algebra homomorphism, which lets
well-tested complex LAPACK kernels do the heavy lifting; no native
quaternionic eigensolver is attempted.  Eigenvalues and singular values
of a chi image occur in pairs, and the pair structure is checked, not
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotHermitian, NotInChiImage, PairingFailure

#: Max entry deviation allowed when reading a matrix back out of a chi image.
CHI_MEMBERSHIP_TOL = 1e-10
#: Allowed membership deviation after a matrix exponential in the chi image.
EXPM_MEMBERSHIP_TOL = 1e-9
#: Relative gap allowed between the two copies of each chi eigenvalue.
EIG_PAIRING_TOL = 1e-8
#: Max entry deviation allowed by hermiticity, positivity and trace checks.
VALIDATION_TOL = 1e-10
#: Relative floor of the numerical-rank rule (see :func:`numerical_rank`).
RANK_REL_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class QMatrix:
    """Quaternionic matrix alpha + j*beta; both blocks share one shape."""

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        beta = np.asarray(self.beta, dtype=np.complex128)
        if alpha.ndim != 2:
            raise DimensionMismatch(f"alpha must be 2-D, got ndim={alpha.ndim}")
        if beta.shape != alpha.shape:
            raise DimensionMismatch(
                f"beta shape {beta.shape} != alpha shape {alpha.shape}"
            )
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    # -- constructors -------------------------------------------------
    @classmethod
    def from_complex(cls, alpha: np.ndarray) -> "QMatrix":
        """Embed a complex matrix (beta = 0)."""
        alpha = np.asarray(alpha, dtype=np.complex128)
        return cls(alpha, np.zeros_like(alpha))

    @classmethod
    def zeros(cls, rows: int, cols: int | None = None) -> "QMatrix":
        cols = rows if cols is None else cols
        return cls(np.zeros((rows, cols), np.complex128), np.zeros((rows, cols), np.complex128))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls.from_complex(np.eye(n, dtype=np.complex128))

    # -- shape --------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.alpha.shape[0]

    @property
    def cols(self) -> int:
        return self.alpha.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.alpha.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # -- algebra ------------------------------------------------------
    @property
    def h(self) -> "QMatrix":
        """Quaternionic adjoint: alpha -> alpha^dag, beta -> -beta^T."""
        return QMatrix(self.alpha.conj().T, -self.beta.T)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return QMatrix(
            self.alpha @ other.alpha - self.beta.conj() @ other.beta,
            self.alpha.conj() @ other.beta + self.beta @ other.alpha,
        )

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return QMatrix(self.alpha + other.alpha, self.beta + other.beta)

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {other.shape} from {self.shape}")
        return QMatrix(self.alpha - other.alpha, self.beta - other.beta)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.alpha, -self.beta)

    def __mul__(self, scalar):
        # Real scalars only: they commute with j, so left/right agree.
        if not isinstance(scalar, Real):
            return NotImplemented
        return QMatrix(self.alpha * float(scalar), self.beta * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, Real):
            return NotImplemented
        return QMatrix(self.alpha / float(scalar), self.beta / float(scalar))


# ---------------------------------------------------------------------
# complex-adjoint representation
# ---------------------------------------------------------------------

def chi(m: QMatrix) -> np.ndarray:
    """Complex-adjoint image [[alpha, -conj(beta)], [beta, conj(alpha)]]."""
    return np.block([[m.alpha, -m.beta.conj()], [m.beta, m.alpha.conj()]])


def chi_membership_deviation(c: np.ndarray) -> float:
    """Max entry deviation of ``c`` from the chi block symmetry.

    A 2n x 2m complex matrix C lies in the chi image iff
    J conj(C) J^{-1} = C with J = [[0, -I], [I, 0]], equivalently its
    blocks satisfy C22 = conj(C11) and C12 = -conj(C21).
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 2 or c.shape[0] % 2 or c.shape[1] % 2:
        raise DimensionMismatch(f"chi image must have even shape, got {c.shape}")
    n, m = c.shape[0] // 2, c.shape[1] // 2
    dev_diag = np.abs(c[n:, m:] - c[:n, :m].conj()).max(initial=0.0)
    dev_off = np.abs(c[:n, m:] + c[n:, :m].conj()).max(initial=0.0)
    return float(np.maximum(dev_diag, dev_off))  # NaN-propagating, unlike max()


def chi_inverse(c: np.ndarray, tol: float = CHI_MEMBERSHIP_TOL) -> QMatrix:
    """Read a quaternionic matrix back out of its chi image.

    The redundant blocks are averaged, which projects small numerical
    noise back onto the chi image.  Raises :class:`NotInChiImage` when
    the block symmetry deviates by more than ``tol``.
    """
    c = np.asarray(c, dtype=np.complex128)
    deviation = chi_membership_deviation(c)
    if not deviation <= tol:
        raise NotInChiImage(
            f"block symmetry deviation {deviation:.3e} exceeds {tol:.3e}"
        )
    n, m = c.shape[0] // 2, c.shape[1] // 2
    alpha = (c[:n, :m] + c[n:, m:].conj()) / 2
    beta = (c[n:, :m] - c[:n, m:].conj()) / 2
    return QMatrix(alpha, beta)


# ---------------------------------------------------------------------
# traces, norms, structure tests
# ---------------------------------------------------------------------

def real_trace(m: QMatrix) -> float:
    """Re Tr M = Re Tr M_alpha; equals (1/2) Re Tr chi(M)."""
    if not m.is_square:
        raise DimensionMismatch(f"trace needs a square matrix, got {m.shape}")
    return float(np.trace(m.alpha).real)


def frobenius_norm(m: QMatrix) -> float:
    """Entrywise quaternion-norm Frobenius norm; equals ||chi(M)||_F / sqrt(2)."""
    return float(np.sqrt(np.linalg.norm(m.alpha) ** 2 + np.linalg.norm(m.beta) ** 2))


def max_abs(m: QMatrix) -> float:
    """Largest entrywise quaternion norm."""
    mags = np.abs(m.alpha) ** 2 + np.abs(m.beta) ** 2
    return float(np.sqrt(mags.max(initial=0.0)))


def hermiticity_deviation(m: QMatrix, sign: int = 1) -> float:
    """Max entry deviation of M from sign * M^dag.

    ``sign=-1`` measures anti-hermiticity (alpha anti-hermitian, beta
    symmetric).  A non-finite entry always gives a non-finite deviation.
    """
    if not m.is_square:
        raise DimensionMismatch(f"hermiticity needs a square matrix, got {m.shape}")
    dev_alpha = np.abs(m.alpha - sign * m.alpha.conj().T).max(initial=0.0)
    dev_beta = np.abs(m.beta + sign * m.beta.T).max(initial=0.0)
    return float(np.maximum(dev_alpha, dev_beta))


def require_hermitian(deviation: float, tol: float) -> None:
    """Raise :class:`NotHermitian` unless ``deviation <= tol``; NaN fails."""
    if not deviation <= tol:
        raise NotHermitian(f"hermiticity deviation {deviation:.3e} exceeds {tol:.3e}")


def is_hermitian(m: QMatrix, tol: float = VALIDATION_TOL) -> bool:
    return m.is_square and hermiticity_deviation(m) <= tol


def is_positive_semidefinite(m: QMatrix, tol: float = VALIDATION_TOL) -> bool:
    """Hermitian with all eigenvalues >= -tol."""
    if not m.is_square or not is_hermitian(m, tol):
        return False
    eigs = eigvals_hermitian(m, tol=tol)
    return bool(eigs.size == 0 or eigs.min() >= -tol)


# ---------------------------------------------------------------------
# spectral computations (all through chi)
# ---------------------------------------------------------------------

def eigvals_hermitian(
    m: QMatrix,
    tol: float = VALIDATION_TOL,
    pairing_tol: float = EIG_PAIRING_TOL,
) -> np.ndarray:
    """Eigenvalues of a hermitian quaternionic matrix, ascending.

    The eigenvalues of chi(M) occur in even-multiplicity pairs; adjacent
    sorted values are paired and each pair returned once (as the pair
    mean).  A pair gap beyond ``pairing_tol`` relative to the spectral
    scale raises :class:`PairingFailure`, which indicates a bug rather
    than a data condition.  The hermiticity check runs first, so a
    non-finite entry never reaches the eigensolver.
    """
    require_hermitian(hermiticity_deviation(m), tol)
    eigs = np.linalg.eigvalsh(chi(m))
    first, second = eigs[0::2], eigs[1::2]
    scale = max(float(np.abs(eigs).max(initial=0.0)), 1.0)
    worst = float(np.abs(first - second).max(initial=0.0))
    if worst > pairing_tol * scale:
        raise PairingFailure(
            f"adjacent eigenvalue gap {worst:.3e} exceeds {pairing_tol:.0e} * {scale:.3e}"
        )
    return (first + second) / 2


def numerical_rank(values: np.ndarray, tol: float | None = None) -> int:
    """Count ``values`` above ``tol`` times the largest magnitude.

    The package's one numerical-rank rule, applied to the cached spectrum
    of a density and to the singular-value pairs in :func:`rank_q`.  The
    default ``tol`` is ``max(values.size * eps, RANK_REL_TOL)``.
    """
    scale = float(np.abs(values).max(initial=0.0))
    if scale == 0.0:
        return 0
    if tol is None:
        tol = max(values.size * np.finfo(np.float64).eps, RANK_REL_TOL)
    return int(np.count_nonzero(values > tol * scale))


def rank_q(m: QMatrix, tol: float | None = None) -> int:
    """Quaternionic rank: half the numerical rank of chi(M).

    Singular values of a chi image come in pairs; adjacent sorted values
    are averaged and the pairs counted by :func:`numerical_rank`.
    """
    sigma = np.linalg.svd(chi(m), compute_uv=False)
    return numerical_rank((sigma[0::2] + sigma[1::2]) / 2, tol)


def expm_q(m: QMatrix) -> QMatrix:
    """Matrix exponential, computed as chi^{-1}(exp(chi(M))).

    The chi block symmetry commutes with every power of the argument,
    hence with the exponential series, so the result is read back with
    a membership assertion rather than a silent projection.
    """
    if not m.is_square:
        raise DimensionMismatch(f"exponential needs a square matrix, got {m.shape}")
    return chi_inverse(scipy.linalg.expm(chi(m)), tol=EXPM_MEMBERSHIP_TOL)
