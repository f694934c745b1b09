"""Dense quaternionic matrices as complex pairs, plus spectral tools.

A quaternionic matrix M = M_alpha + j*M_beta is stored as two complex
arrays of equal shape.  The product rule mirrors the scalar one:

    (A_a + j*A_b)(B_a + j*B_b)
        = (A_a B_a - conj(A_b) B_b) + j*(conj(A_a) B_b + A_b B_a)

and the adjoint is (M_alpha + j*M_beta)^dag = M_alpha^dag - j*M_beta^T,
so M is hermitian exactly when M_alpha is hermitian and M_beta is
skew-symmetric.

All spectral work (eigenvalues, rank, positivity, the exponential) and
the one hermiticity measure are routed through the complex-adjoint image

    chi(M) = [[M_alpha, -conj(M_beta)], [M_beta, conj(M_alpha)]],

a 2n x 2m complex matrix.  chi is a *-homomorphism (chi(M^dag) =
chi(M)^dag), so M is hermitian exactly when chi(M) is, and it lets
numpy's complex LAPACK kernels do the heavy lifting; no native
quaternionic eigensolver is attempted, and numpy is the only numerical
dependency.  Eigenvalues and singular values of a chi image occur in
pairs, and the pair structure is checked, not assumed.  The exponential
is taken of anti-hermitian matrices only, by their eigenvectors.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAntiHermitian,
    NotHermitian,
    NotInChiImage,
    NotUnitary,
    PairingFailure,
    QmixError,
)

#: Error allowed in one computed unitary: its chi read-back, its phases, U^dag U - I.
UNITARY_TOL = 1e-9
#: Relative gap allowed between the two copies of each chi eigenvalue.
EIG_PAIRING_TOL = 1e-8
#: Max entry deviation allowed by hermiticity, positivity, trace and chi-membership checks.
VALIDATION_TOL = 1e-10
#: Relative floor of the numerical-rank rule (see :func:`numerical_rank`).
RANK_REL_TOL = 1e-12

_EPS = np.finfo(np.float64).eps
_FLOAT_MAX = float(np.finfo(np.float64).max)


@dataclass(frozen=True, eq=False)
class QMatrix:
    """Quaternionic matrix alpha + j*beta; both blocks share one shape.

    Blocks of shape (..., rows, cols) hold a stack of matrices indexed by
    the leading axes; products, sums, the adjoint and the stack-aware
    helpers :func:`chi`, :func:`frobenius_norm`,
    :func:`hermiticity_deviation`, :func:`eigvals_hermitian` and
    :func:`rank_q` act slice by slice, and indexing selects slices.
    Sums, differences, products and real scalings of finite operands are
    finite or raise :class:`QmixError`, and never make numpy warn.
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.complex128)
        beta = np.asarray(self.beta, dtype=np.complex128)
        if alpha.ndim < 2:
            raise DimensionMismatch(f"alpha must be at least 2-D, got ndim={alpha.ndim}")
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
    def identity(cls, n: int) -> "QMatrix":
        check_int("identity dimension", n, 0, DimensionMismatch)
        return cls.from_complex(np.eye(n, dtype=np.complex128))

    # -- shape --------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.alpha.shape[-2]

    @property
    def cols(self) -> int:
        return self.alpha.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.alpha.shape

    def __getitem__(self, index) -> "QMatrix":
        """Slices of a stack, by an index over its leading axes."""
        return QMatrix(self.alpha[index], self.beta[index])

    # -- algebra ------------------------------------------------------
    @property
    def h(self) -> "QMatrix":
        """Quaternionic adjoint: alpha -> alpha^dag, beta -> -beta^T."""
        return QMatrix(self.alpha.conj().swapaxes(-1, -2), -self.beta.swapaxes(-1, -2))

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return _finite_result("product", (self, other), lambda: (
            self.alpha @ other.alpha - self.beta.conj() @ other.beta,
            self.alpha.conj() @ other.beta + self.beta @ other.alpha,
        ))

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot add {self.shape} and {other.shape}")
        return _finite_result(
            "sum", (self, other), lambda: (self.alpha + other.alpha, self.beta + other.beta)
        )

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionMismatch(f"cannot subtract {other.shape} from {self.shape}")
        return _finite_result(
            "difference", (self, other), lambda: (self.alpha - other.alpha, self.beta - other.beta)
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.alpha, -self.beta)

    def __mul__(self, scalar):
        return self._scaled(scalar, "scalar", np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._scaled(scalar, "divisor", np.divide)

    def _scaled(self, scalar, name: str, op) -> "QMatrix":
        """Both blocks ``op`` a real scalar, which commutes with j."""
        if not isinstance(scalar, Real):
            return NotImplemented
        check_real(name, scalar)
        return _finite_result(
            f"{name} = {scalar!r}", (self,),
            lambda: (op(self.alpha, float(scalar)), op(self.beta, float(scalar))),
        )


def _all_finite(m: QMatrix) -> bool:
    return bool(np.isfinite(m.alpha).all() and np.isfinite(m.beta).all())


def _finite_result(what: str, operands: tuple, blocks: Callable[[], tuple]) -> QMatrix:
    """The QMatrix of ``blocks()``, computed with numpy's warnings off.

    ``QMatrix`` arithmetic's one overflow rule: finite operands give a
    finite result, or a :class:`QmixError` naming ``what`` and counting
    the non-finite entries; a non-finite operand passes through, as it
    would in numpy, to the gate that reads it.  The result is scanned,
    since a BLAS worker thread's overflow raises no floating-point flag
    in the caller's.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # refused below
        out = QMatrix(*blocks())
    if _all_finite(out) or not all(_all_finite(m) for m in operands):
        return out
    bad = np.count_nonzero(~np.isfinite(out.alpha)) + np.count_nonzero(~np.isfinite(out.beta))
    raise QmixError(f"{what} gives {bad} non-finite entries")


# ---------------------------------------------------------------------
# complex-adjoint representation
# ---------------------------------------------------------------------

def chi(m: QMatrix) -> np.ndarray:
    """Complex-adjoint image [[alpha, -conj(beta)], [beta, conj(alpha)]].

    A stack of shape (..., n, m) gives a stack of shape (..., 2n, 2m).
    """
    alpha, beta = m.alpha, m.beta
    n, k = alpha.shape[-2:]
    out = np.empty(alpha.shape[:-2] + (2 * n, 2 * k), dtype=np.complex128)
    out[..., :n, :k] = alpha
    upper_right = out[..., :n, k:]
    np.conjugate(beta, out=upper_right)
    np.negative(upper_right, out=upper_right)
    out[..., n:, :k] = beta
    np.conjugate(alpha, out=out[..., n:, k:])
    return out


def chi_membership_deviation(c: np.ndarray) -> float:
    """Max entry deviation of ``c`` from the chi block symmetry.

    A 2n x 2m complex matrix C lies in the chi image iff
    J conj(C) J^{-1} = C with J = [[0, -I], [I, 0]], equivalently its
    blocks satisfy C22 = conj(C11) and C12 = -conj(C21).
    """
    c = np.asarray(c, dtype=np.complex128)
    if c.ndim != 2:
        raise DimensionMismatch(f"chi image must be one 2-D matrix, got shape {c.shape}")
    if c.shape[0] % 2 or c.shape[1] % 2:
        raise DimensionMismatch(f"chi image must have even shape, got {c.shape}")
    n, m = c.shape[0] // 2, c.shape[1] // 2
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and NaN fails
        dev_diag = np.abs(c[n:, m:] - c[:n, :m].conj()).max(initial=0.0)
        dev_off = np.abs(c[:n, m:] + c[n:, :m].conj()).max(initial=0.0)
    return float(np.maximum(dev_diag, dev_off))  # NaN-propagating, unlike max()


def chi_inverse(c: np.ndarray, tol: float = VALIDATION_TOL) -> QMatrix:
    """Read a quaternionic matrix back out of its chi image.

    The redundant blocks are averaged, which projects small numerical
    noise back onto the chi image.  Raises :class:`NotInChiImage` when
    the block symmetry deviates by more than ``tol`` (a max entry
    deviation, so ``VALIDATION_TOL`` by default; see :func:`check_tol`).
    """
    check_tol(tol)
    c = np.asarray(c, dtype=np.complex128)
    deviation = chi_membership_deviation(c)
    check_slices(
        deviation, tol, NotInChiImage,
        lambda i: f"block symmetry deviation {deviation:.3e} exceeds {tol:.3e}",
    )
    n, m = c.shape[0] // 2, c.shape[1] // 2
    alpha = (c[:n, :m] + c[n:, m:].conj()) / 2
    beta = (c[n:, :m] - c[:n, m:].conj()) / 2
    return QMatrix(alpha, beta)


# ---------------------------------------------------------------------
# traces, norms, structure tests
# ---------------------------------------------------------------------

def check_slices(measured, tol, error: type[QmixError], describe: Callable[[tuple], str]) -> None:
    """Raise ``error`` at the first slice where ``measured <= tol`` fails.

    The package's one tolerance test: a NaN measure compares False, so it
    fails.  ``measured`` and ``tol`` are numbers, or arrays over the leading
    axes of a stack.  ``describe(index)`` gives the message for the failing
    index (``()`` for a single matrix).  For a stack the message ends by
    naming the slice, and the error's ``index`` attribute holds it.
    """
    ok = measured <= tol
    if ok.all() if isinstance(ok, np.ndarray) else ok:
        return
    index = tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), np.shape(ok)))
    message = describe(index)
    if index:
        message += f" at slice {index[0] if len(index) == 1 else index}"
    exc = error(message)
    exc.index = index
    raise exc


def check_int(name: str, value, least: int, error: type[Exception] = ValueError) -> None:
    """The one rule for counts, dimensions and seeds: an int or np.integer, no bool, >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {_shown(value)}")
    if value < least:
        raise error(f"{name} must be >= {least}, got {_shown(value, str)}")


def check_type(name: str, value, cls: type) -> None:
    """The one rule for an argument's type: an instance of ``cls``, else a ValueError naming it.

    The class is named as it is imported: a qmix class by its name, any
    other by its public module path, and the wrong value as :func:`_shown` names it.
    """
    if isinstance(value, cls):
        return
    path = [part for part in cls.__module__.split(".") if not part.startswith("_")]
    label = cls.__name__ if path[0] == "qmix" else ".".join([*path, cls.__name__])
    article = "an" if label[0] in "AEIOU" else "a"
    raise ValueError(f"{name} must be {article} {label}, got {_shown(value)}")


def check_real(name: str, value) -> None:
    """The one rule for times, steps and angles: a real number, no bool, and finite.

    Anything else is a ValueError naming the argument; NaN, +-inf and an int
    past the float range are a :class:`QmixError`, and no value makes numpy warn.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {_shown(value)}")
    mag = abs(value if isinstance(value, int) else float(value))  # no overflow, no numpy cast
    check_slices(mag, _FLOAT_MAX, QmixError, lambda i: f"{name} = {_shown(value)} is not finite")


def _check_reals(name: str, values: np.ndarray) -> None:
    """:func:`check_real`'s finiteness test on a float array the package computed, in one call.

    A :class:`QmixError` names the first non-finite value and, past 0-d, its
    slice; a 0-d array reads as its value.  Not for arguments: their rule is
    :func:`check_real`, which takes one number.
    """
    check_slices(np.abs(values), _FLOAT_MAX, QmixError,
                 lambda i: f"{name} = {values[i].item()!r} is not finite")


def _shown(value, text=repr) -> str:
    """``text(value)``, short: an array or matrix by its type and shape (a ``shape`` that is not
    empty), an int past the float range by its bit length, as either's text can run to many kB."""
    if getattr(value, "shape", ()):
        return f"{type(value).__name__} of shape {value.shape}"
    if isinstance(value, int) and abs(value) > _FLOAT_MAX:
        return f"<{'negative ' if value < 0 else ''}int of {value.bit_length()} bits>"
    return text(value)


def check_square(name: str, shape: tuple, dim: int | None = None, stack: bool = False) -> None:
    """The one rule for matrix shapes: one square matrix, of dimension ``dim`` when given.

    ``stack=True`` also admits leading axes.  Anything else is a
    :class:`DimensionMismatch` naming the argument.
    """
    if len(shape) < 2 or (len(shape) > 2 and not stack) or shape[-2] != shape[-1]:
        raise DimensionMismatch(f"{name} must be square, got {shape}")
    if dim is not None and shape[-1] != dim:
        raise DimensionMismatch(f"{name} dimension {shape[-1]} != state dimension {dim}")


def check_tol(tol) -> None:
    """The rule for a ``tol`` argument, as on the command line: a real number, 0 < tol < 1."""
    if isinstance(tol, Real) and 0 < tol < 1:
        return
    raise ValueError(f"tol must be a real number with 0 < tol < 1, got {_shown(tol)}")


def real_trace(m: QMatrix) -> float:
    """Re Tr M = Re Tr M_alpha; equals (1/2) Re Tr chi(M)."""
    check_square("trace argument", m.shape)
    return float(np.trace(m.alpha).real)


def slice_norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each slice of a complex stack, of shape ``x.shape[:-2]``.

    The package's one block-norm measure, 0-d for one matrix.  Slices are
    read in memory order, so C-ordered, Fortran-ordered and strided input
    keeps the bits of ``np.linalg.norm``: roots of BLAS dots (``np.vecdot``)
    of the real and imaginary parts.
    """
    flat = x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],), order="A")
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def frobenius_norm(m: QMatrix):
    """Entrywise quaternion-norm Frobenius norm; one per slice for a stack.

    Equals ||chi(M)||_F / sqrt(2).  A slice of a C-ordered stack has the
    bits of the matrix alone: block norms are :func:`slice_norms`, squared
    as numpy scalars (by libm ``pow``, which an array square misses about
    once in a thousand).  A norm past the float range is inf.
    """
    with np.errstate(over="ignore"):
        pairs = zip(slice_norms(m.alpha).ravel(), slice_norms(m.beta).ravel())
        norms = [np.sqrt(a**2 + b**2) for a, b in pairs]
    return float(norms[0]) if m.alpha.ndim == 2 else np.reshape(norms, m.shape[:-2])


def max_abs(m: QMatrix) -> float:
    """Largest entrywise quaternion norm; inf past the float range."""
    with np.errstate(over="ignore"):
        mags = np.abs(m.alpha) ** 2 + np.abs(m.beta) ** 2
    return float(np.sqrt(mags.max(initial=0.0)))


def hermiticity_deviation(m: QMatrix | np.ndarray, sign: int = 1):
    """Max entry deviation of M from sign * M^dag; one per slice for a stack.

    A QMatrix is measured through its chi image, a complex array as
    given: chi is a *-homomorphism, so M is hermitian exactly when chi(M)
    is, that is alpha hermitian and beta skew (``sign=-1``: alpha
    anti-hermitian and beta symmetric).  A non-finite entry always gives
    a non-finite deviation, and no entry size makes numpy warn.
    """
    check_square("hermiticity argument", m.shape, stack=True)
    image = chi(m) if isinstance(m, QMatrix) else m
    adjoint = image.conj().swapaxes(-2, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail every test
        gap = image - adjoint if sign > 0 else image + adjoint
        deviation = np.abs(gap).max((-2, -1), initial=0.0)
    return float(deviation) if deviation.ndim == 0 else deviation


def require_hermitian(m: QMatrix | np.ndarray, tol: float) -> None:
    """The one hermiticity gate: :class:`NotHermitian` unless every slice's deviation <= tol.

    It measures :func:`hermiticity_deviation` of ``m`` itself; a non-finite entry fails.
    """
    deviation = hermiticity_deviation(m)
    check_slices(
        deviation, tol, NotHermitian,
        lambda i: f"hermiticity deviation {np.asarray(deviation)[i]:.3e} exceeds {tol:.3e}",
    )


def require_anti_hermitian(m: QMatrix | np.ndarray, what: str) -> None:
    """Raise :class:`NotAntiHermitian` unless M is anti-hermitian at ``VALIDATION_TOL``.

    ``m`` is a QMatrix or its chi image; ``what`` names the matrix in the
    message; a non-finite entry fails.
    """
    deviation = hermiticity_deviation(m, sign=-1)
    check_slices(
        deviation, VALIDATION_TOL, NotAntiHermitian,
        lambda i: f"{what} deviates from anti-hermiticity by {deviation:.3e}, "
        f"beyond {VALIDATION_TOL:.3e}",
    )


def is_positive_semidefinite(m: QMatrix) -> bool:
    """Hermitian with all eigenvalues >= -VALIDATION_TOL; a spectrum past the float range raises."""
    if m.rows != m.cols:
        return False
    try:
        eigs = eigvals_hermitian(m)
    except NotHermitian:
        return False
    return bool(eigs.size == 0 or eigs.min() >= -VALIDATION_TOL)


# ---------------------------------------------------------------------
# spectral computations (all through chi)
# ---------------------------------------------------------------------

def eigvals_hermitian(m: QMatrix) -> np.ndarray:
    """Eigenvalues of a hermitian quaternionic matrix, ascending.

    The chi image is built once: its hermiticity is tested at
    ``VALIDATION_TOL`` first, so a non-finite entry never reaches the
    eigensolver, and its spectrum is paired by :func:`_paired_eigvals`.
    A stack of shape (..., n, n) gives spectra of shape (..., n), and
    every slice is checked before the one eigensolver call.
    """
    image = chi(m)
    require_hermitian(image, VALIDATION_TOL)
    return _paired_eigvals(np.linalg.eigvalsh(image))


def _paired_eigvals(eigs: np.ndarray) -> np.ndarray:
    """Adjacent values of ascending chi spectra, paired: one pair mean each.

    A spectrum past the float range raises :class:`QmixError`; a pair gap
    beyond ``EIG_PAIRING_TOL`` relative to the spectral scale raises
    :class:`PairingFailure`, which indicates a bug, not a data condition.
    """
    first, second = eigs[..., 0::2], eigs[..., 1::2]
    top = np.abs(eigs).max(-1, initial=0.0)
    check_slices(top, _FLOAT_MAX, QmixError,
                 lambda i: f"eigenvalue magnitude {top[i]} is not finite")
    scale = np.maximum(top, 1.0)
    worst = np.abs(first - second).max(-1, initial=0.0)
    check_slices(
        worst, EIG_PAIRING_TOL * scale, PairingFailure,
        lambda i: f"adjacent eigenvalue gap {worst[i]:.3e} exceeds "
        f"{EIG_PAIRING_TOL:.0e} * {scale[i]:.3e}",
    )
    return first / 2 + second / 2  # (first + second) / 2, bit for bit, that cannot overflow


def numerical_rank(values: np.ndarray):
    """Count the n ``values`` above ``max(n * eps, RANK_REL_TOL)`` times their magnitude sum.

    The package's one numerical-rank rule, which no caller overrides,
    applied to the cached spectrum of a density and to the singular-value
    pairs in :func:`rank_q`.  For a density that sum is its trace, which a
    lift keeps, so lifting cannot move the threshold.  Counts along the
    last axis: an int for one spectrum, an integer array for a stack.
    """
    tol = max(values.shape[-1] * _EPS, RANK_REL_TOL)
    above = values > tol * np.abs(values).sum(-1, keepdims=True)
    if above.ndim == 1:
        return int(np.count_nonzero(above))
    return np.count_nonzero(above, axis=-1)


def rank_q(m: QMatrix):
    """Quaternionic rank: half the numerical rank of chi(M); one per slice for a stack.

    Singular values of a chi image come in pairs; adjacent sorted values
    are averaged and the pairs counted by :func:`numerical_rank`, so the
    threshold is relative to their sum (the trace, for a density).  Each
    image is first scaled by the power of two that brings its largest
    entry into [0.5, 1): exact, and invisible to that relative rule, but
    no singular value or sum then overflows.  A non-finite entry raises
    :class:`QmixError`.
    """
    parts = chi(m).view(np.float64)  # real and imaginary parts, interleaved
    if not np.isfinite(parts).all():
        raise QmixError("rank is undefined for a matrix with a non-finite entry")
    exponent = np.frexp(np.abs(parts).max((-2, -1), keepdims=True, initial=0.0))[1]
    sigma = np.linalg.svd(np.ldexp(parts, -exponent).view(np.complex128), compute_uv=False)
    return numerical_rank(sigma[..., 0::2] / 2 + sigma[..., 1::2] / 2)


def _anti_hermitian_eigh(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with -i K = V diag(w) V^dag for an anti-hermitian image K, w ascending.

    The one eigendecomposition behind both dynamics solvers: :func:`expm_q`
    and ``dynamics.integrate``.  ``np.linalg.eigh`` reads the lower triangle.
    """
    return np.linalg.eigh(-1j * image)


def expm_q(m: QMatrix) -> QMatrix:
    """Exponential of an anti-hermitian matrix, a quaternionic unitary.

    chi(M) is anti-hermitian with M, so -i chi(M) is hermitian and, with
    (w, V) = eigh(-i chi(M)), exp(chi(M)) = V diag(e^{iw}) V^dag: the
    eigenvector method, sound for normal matrices (Moler & Van Loan,
    SIAM Rev. 45, 2003).  Any other argument raises
    :class:`NotAntiHermitian`.  A phase w carries an error of about
    |w| * eps, so a spectral radius that puts it beyond
    ``UNITARY_TOL`` raises :class:`NotUnitary` rather than return
    a unitary of meaningless phases.  The result is read back with a
    membership assertion rather than a silent projection.
    """
    check_square("exponent", m.shape)
    image = chi(m)
    require_anti_hermitian(image, "exponent")
    w, v = _anti_hermitian_eigh(image)
    radius = float(np.abs(w).max(initial=0.0))
    check_slices(
        radius * _EPS, UNITARY_TOL, NotUnitary,
        lambda i: f"exponent spectral radius {radius:.3e} exceeds {UNITARY_TOL / _EPS:.3e}, "
        f"the bound for phases accurate to {UNITARY_TOL:.0e}",
    )
    return chi_inverse((v * np.exp(1j * w)) @ v.conj().T, tol=UNITARY_TOL)
