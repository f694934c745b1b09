"""Density matrices over the quaternions and their complex projection.

The complex projection P(M) = (1/2)(M - i M i) = M_alpha maps every
quaternionic density matrix to a complex one, and partitions the set of
quaternionic densities into classes sharing a projection.  Each class
contains exactly one purely complex member (beta = 0); states with
beta = 0 are classified here as *proper* mixtures and states with
beta != 0 as *improper* mixtures.  Complex observables cannot tell the
members of a class apart; the observable j*rho_beta can, which is what
makes the classification physically meaningful.

Constructive content:

* ``lift`` builds, for a complex density of rank m > 1 and any target
  rank m' with ceil(m/2) <= m' <= m, a quaternionic density of rank m'
  projecting back onto it, by replacing pairs of spectral terms with
  rank-one quaternionic blocks (``block_purify``).  Its alpha block is
  the full spectral sum of the source, every eigenpair of one ``eigh``
  call, so terms below the rank threshold are kept too.
* ``purify`` is the extreme case m' = 1, possible exactly when m <= 2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NotNormalized,
    NotOrthogonal,
    NotPositive,
    NotPurifiable,
    QmixError,
    RankOne,
    RankOutOfRange,
    TraceNotOne,
)
from .qmatrix import (
    VALIDATION_TOL,
    QMatrix,
    _paired_eigvals,
    check_slices,
    chi,
    hermiticity_deviation,
    numerical_rank,
    real_trace,
    require_hermitian,
)


class MixtureKind(enum.Enum):
    """Classification of a quaternionic density by its beta block."""

    PROPER = "Proper"
    IMPROPER = "Improper"


def proper_tolerance(n: int, alpha_norm: float) -> float:
    """Scale-aware zero test for ||rho_beta||_F.

    The mathematical distinction is exact (beta = 0 versus beta != 0);
    floating point needs a threshold that grows with dimension and with
    the size of the complex block.
    """
    return n * 1e-12 * (1.0 + alpha_norm)


@dataclass(frozen=True, eq=False)
class QDensity:
    """Validated quaternionic density with cached classification and spectrum.

    ``eigenvalues`` are the paired chi eigenvalues, one per pair, ascending.
    """

    mat: QMatrix
    classification: MixtureKind
    beta_norm: float
    eigenvalues: np.ndarray

    @cached_property
    def rank(self) -> int:
        return numerical_rank(self.eigenvalues)

    @property
    def alpha(self) -> np.ndarray:
        return self.mat.alpha

    @property
    def beta(self) -> np.ndarray:
        return self.mat.beta

    @property
    def dim(self) -> int:
        return self.mat.rows


@dataclass(frozen=True, eq=False)
class CDensity:
    """Complex density matrix (hermitian, positive, unit trace) with spectrum."""

    mat: np.ndarray
    eigenvalues: np.ndarray

    @classmethod
    def from_matrix(cls, mat: np.ndarray, tol: float = VALIDATION_TOL) -> "CDensity":
        """Validate a complex matrix as a density matrix; see :func:`_density_gate`."""
        mat = np.asarray(mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {mat.shape}")
        return cls(mat=mat, eigenvalues=_density_gate(mat, tol))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def rank(self) -> int:
        return numerical_rank(self.eigenvalues)

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every eigenpair of one ``eigh`` call, computed once.

        Eigenvalues descend, ties keep ``eigh``'s order, and each
        eigenvector is phase-normalized (:func:`_phase_normalize`).
        Every lift of this density reads them, whatever its target rank.
        """
        eigs, vecs = np.linalg.eigh(self.mat)
        order = np.argsort(-eigs, kind="stable")
        return eigs[order], _phase_normalize(vecs[:, order])


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian quaternionic operator; flagged complex when beta ~ 0."""

    mat: QMatrix
    is_complex: bool

    @classmethod
    def from_qmatrix(cls, mat: QMatrix, tol: float = VALIDATION_TOL) -> "Observable":
        require_hermitian(hermiticity_deviation(mat), tol)
        with np.errstate(over="ignore"):  # an overflowing norm reads inf: not complex
            beta_norm = float(np.linalg.norm(mat.beta))
        return cls(mat=mat, is_complex=beta_norm <= tol)

    @classmethod
    def from_complex(cls, mat: np.ndarray) -> "Observable":
        return cls.from_qmatrix(QMatrix.from_complex(mat))


# ---------------------------------------------------------------------
# validation and classification
# ---------------------------------------------------------------------

def _density_gate(mat: QMatrix | np.ndarray, tol: float) -> np.ndarray:
    """The one density gate: hermitian, unit real trace and positive at ``tol``.

    ``mat`` is a square QMatrix, whose chi image is built once and read
    by the hermiticity, magnitude and eigenvalue steps, or a square
    complex array, read as given.  The tests run in that order, each read as
    ``measured <= tol`` so that NaN fails: a non-finite entry fails as a
    :class:`NotHermitian`.  Before the eigensolver, an entry above
    1 + (2n + 1) tol fails as :class:`NotPositive`, so nothing overflows
    there: no eigenvalue below -tol and trace 1 +- tol bound the norm by
    1 + n tol, and the rest covers the hermiticity deviation admitted.
    Returns the spectrum, ascending; the raised error names the violated
    invariant, the measured value and the tolerance.

    A stack of shape (..., n, n) is gated in one pass and gives spectra
    of shape (..., n).  Each invariant is tested on every slice before
    the next, and the first failing slice raises the error it would
    raise alone, with its index in the message and in ``index``.
    """
    quaternionic = isinstance(mat, QMatrix)
    image, alpha = (chi(mat), mat.alpha) if quaternionic else (mat, mat)
    deviation = hermiticity_deviation(image)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail every test
        magnitude = np.abs(image).max((-2, -1), initial=0.0)
        trace = np.trace(alpha, axis1=-2, axis2=-1).real
        trace_deviation = abs(trace - 1.0)
    require_hermitian(deviation, tol)
    check_slices(
        trace_deviation <= tol,
        TraceNotOne,
        lambda i: f"real trace {float(trace[i])!r} deviates from 1 by "
        f"{trace_deviation[i]:.3e}, beyond {tol:.3e}",
    )
    bound = 1.0 + (2 * mat.shape[-1] + 1) * tol
    check_slices(
        magnitude <= bound,
        NotPositive,
        lambda i: f"entry magnitude {magnitude[i]:.3e} exceeds {bound!r}, "
        f"the bound for a unit-trace matrix with no eigenvalue below -{tol:.3e}",
    )
    eigs = np.linalg.eigvalsh(image)
    if quaternionic:
        eigs = _paired_eigvals(eigs)
    lowest = eigs.min(-1, initial=0.0)
    check_slices(
        -lowest <= tol,
        NotPositive,
        lambda i: f"minimum eigenvalue {lowest[i]:.3e} below -{tol:.3e}",
    )
    return eigs


def _mixture_kind(m: QMatrix) -> tuple[MixtureKind, float]:
    """Classification by the zero test :func:`proper_tolerance`, and ||beta||_F."""
    beta_norm = float(np.linalg.norm(m.beta))
    alpha_norm = float(np.linalg.norm(m.alpha))
    proper = beta_norm <= proper_tolerance(m.rows, alpha_norm)
    return (MixtureKind.PROPER if proper else MixtureKind.IMPROPER), beta_norm


def validate(m: QMatrix, tol: float = VALIDATION_TOL) -> QDensity:
    """Validate a quaternionic matrix as a density matrix and classify it.

    Runs :func:`_density_gate` and keeps its spectrum.  The
    proper/improper classification uses the scale-aware zero test
    :func:`proper_tolerance` on ||rho_beta||_F.
    """
    if len(m.shape) != 2 or not m.is_square:
        raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
    eigs = _density_gate(m, tol)
    kind, beta_norm = _mixture_kind(m)
    return QDensity(mat=m, classification=kind, beta_norm=beta_norm, eigenvalues=eigs)


def complex_projection(rho: QDensity) -> CDensity:
    """P(rho) = (1/2)(rho - i rho i) = rho_alpha, validated as a density.

    The projection is trace preserving and positivity preserving, so
    validation of the result is a structural self-check, not a data
    filter.
    """
    return CDensity.from_matrix(rho.alpha)


def embed_proper(rho_alpha: CDensity) -> QDensity:
    """Embed a complex density as the beta = 0 member of its class."""
    return validate(QMatrix.from_complex(rho_alpha.mat))


def expectation(a: Observable, rho: QDensity) -> float:
    """Re Tr(A rho) = Re Tr(A_alpha rho_alpha - conj(A_beta) rho_beta).

    For a complex observable the second term vanishes and the value
    coincides with the complex-theory prediction Tr(A_alpha rho_alpha),
    whatever rho_beta is.  A value that overflows raises
    :class:`QmixError`.
    """
    if a.mat.shape != rho.mat.shape:
        raise DimensionMismatch(
            f"observable {a.mat.shape} does not match state {rho.mat.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        value = np.trace(a.mat.alpha @ rho.alpha)
        value -= np.trace(a.mat.beta.conj() @ rho.beta)
    value = float(value.real)
    if not math.isfinite(value):
        raise QmixError(f"expectation value Re Tr(A rho) = {value!r} is not finite")
    return value


def discriminating_observable(rho: QDensity) -> Observable:
    """The witness A = j*rho_beta, hermitian because rho_beta is skew.

    Its expectation is ||rho_beta||_F^2 on ``rho`` and zero on the
    beta = 0 member of the same projection class, which separates the
    two whenever rho is improper.
    """
    return Observable.from_qmatrix(QMatrix(np.zeros_like(rho.beta), rho.beta.copy()))


def rank_bounds_check(rho: QDensity) -> tuple[int, int, bool]:
    """Return (m, rank of projection, whether m <= rank <= 2m holds).

    Both ranks come from cached spectra under the one rank rule; chi's
    eigenvalues pair up (F. Zhang, LAA 251, 1997), so no SVD is needed.
    """
    m = rho.rank
    rank_alpha = complex_projection(rho).rank
    return m, rank_alpha, (m <= rank_alpha <= 2 * m)


# ---------------------------------------------------------------------
# purification blocks, lift, purify
# ---------------------------------------------------------------------

def block_purify(u: np.ndarray, v: np.ndarray, cu: complex, cv: complex) -> QMatrix:
    """Rank-one quaternionic block projecting onto |cu|^2 uu* + |cv|^2 vv*.

    For an orthonormal pair (u, v) and weights (cu, cv), returns the
    (unnormalized) projector onto the right-module line spanned by
    u*cu + v*cv*j:

        alpha = |cu|^2 uu^dag + |cv|^2 vv^dag
        beta  = conj(cu) conj(cv) (conj(v) u^dag - conj(u) v^dag)

    with real trace |cu|^2 + |cv|^2 and quaternionic rank one.  With
    cv = 0 the block degenerates to a purely complex rank-one term.
    Unit norms and orthogonality are checked at ``VALIDATION_TOL``; a
    non-finite vector fails them.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if u.shape != v.shape:
        raise DimensionMismatch(f"vector shapes differ: {u.shape} vs {v.shape}")
    for name, vec in (("u", u), ("v", v)):
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= VALIDATION_TOL:
            raise NotNormalized(f"{name} has norm {norm!r}, off unity by {abs(norm - 1.0):.3e}")
    overlap = abs(np.vdot(u, v))
    if not overlap <= VALIDATION_TOL:
        raise NotOrthogonal(f"|<u, v>| = {overlap:.3e} exceeds {VALIDATION_TOL:.3e}")
    cu = complex(cu)
    cv = complex(cv)
    weight = abs(cu) ** 2 + abs(cv) ** 2
    if weight == 0.0:
        raise NotNormalized("cu and cv cannot both vanish")
    alpha = abs(cu) ** 2 * np.outer(u, u.conj()) + abs(cv) ** 2 * np.outer(v, v.conj())
    cross = np.conj(cu) * np.conj(cv)
    beta = cross * (np.outer(v.conj(), u.conj()) - np.outer(u.conj(), v.conj()))
    return QMatrix(alpha, beta)


def _phase_normalize(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column's global phase so its largest component is real positive.

    The columns are eigenvectors, of unit norm, so no pivot is zero.
    """
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    return vecs * (np.conj(pivots) / np.abs(pivots))


def _lift_blocks(rho_alpha: CDensity, target_rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The (alpha, beta) blocks of :func:`lift`, not yet validated.

    Checks the admissible range and runs the Gram-matrix orthogonality
    test of the paired eigenvectors; the density gate is left to the
    caller, which may gate many lifts as one stack.
    """
    m = rho_alpha.rank
    if m <= 1:
        raise RankOne("rank-one complex densities admit no lift to lower rank")
    lo = (m + 1) // 2
    if not lo <= target_rank <= m:
        raise RankOutOfRange(
            f"target rank {target_rank} outside admissible range "
            f"[{lo}, {m}] for projection rank {m}"
        )
    eigs, vecs = rho_alpha.eigenpairs
    k = 2 * (m - target_rank)  # the leading k eigenpairs form the pairs
    gram = vecs[:, :k].conj().T @ vecs[:, :k]
    gram.flat[:: k + 1] -= 1.0  # subtract the identity
    deviation = float(np.abs(gram).max(initial=0.0))
    if not deviation <= VALIDATION_TOL:
        raise NotOrthogonal(
            f"paired eigenvectors deviate from orthonormal by {deviation:.3e}, "
            f"beyond {VALIDATION_TOL:.3e}"
        )
    u, v = vecs[:, 0:k:2], vecs[:, 1:k:2]
    weights = np.sqrt(eigs[0:k:2]) * np.sqrt(eigs[1:k:2])
    alpha = (vecs * eigs) @ vecs.conj().T
    cross = (v.conj() * weights) @ u.conj().T
    return alpha, cross - cross.T


def lift(rho_alpha: CDensity, target_rank: int) -> QDensity:
    """Quaternionic density of rank ``target_rank`` projecting onto ``rho_alpha``.

    Requires m = rank(rho_alpha) > 1 and ceil(m/2) <= target_rank <= m.
    The construction pairs the eigenvectors of :attr:`CDensity.eigenpairs`
    (one ``eigh`` call; ties kept in its order), largest eigenvalues first
    and adjacent in the descending order, and replaces each of the
    k = m - target_rank pairs by a rank-one quaternionic block
    (:func:`block_purify` with weights sqrt(lambda)); every other
    spectral term stays complex.  Terms below the rank threshold are
    never paired.

    Summed over the blocks, alpha is the full spectral sum of rho_alpha
    and beta is B - B^T with B = sum_k sqrt(lambda_u lambda_v) conj(v) u^dag,
    one product each.  Pairing keeps the trace, against which
    :func:`~qmix.qmatrix.numerical_rank` measures, so the lift lands on
    ``target_rank``.  The paired eigenvectors must be orthonormal within
    ``VALIDATION_TOL`` (one Gram-matrix test).

    Two steps: the builder :func:`_lift_blocks` checks the target and the
    pairing and returns the blocks, and :func:`validate` gates and
    classifies the result.  The audit calls the builder alone and gates
    the lifts of many sources as one stack.
    """
    return validate(QMatrix(*_lift_blocks(rho_alpha, target_rank)))


def _purify_blocks(rho_alpha: CDensity) -> tuple[np.ndarray, np.ndarray]:
    """The (alpha, beta) blocks of :func:`purify`, not yet validated."""
    if rho_alpha.rank == 1:
        return rho_alpha.mat, np.zeros_like(rho_alpha.mat)
    if rho_alpha.rank == 2:
        return _lift_blocks(rho_alpha, 1)
    raise NotPurifiable(
        f"projection rank {rho_alpha.rank} exceeds 2, the largest rank "
        "a quaternionic pure state can project onto"
    )


def purify(rho_alpha: CDensity) -> QDensity:
    """Quaternionic rank-one density projecting onto ``rho_alpha``.

    Possible exactly when rank(rho_alpha) <= 2.  Rank-one input is
    already the projection of a pure state and is embedded unchanged
    (beta = 0, as :func:`embed_proper` does); rank-two input is lifted
    to rank one.  Like :func:`lift`, a builder (:func:`_purify_blocks`)
    followed by :func:`validate`.
    """
    return validate(QMatrix(*_purify_blocks(rho_alpha)))


# ---------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------

def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_density(n: int, kind: MixtureKind | str, seed=None) -> QDensity:
    """Random valid density of the requested kind, deterministic per seed.

    Kinds: ``Proper`` (beta = 0), ``Improper`` (beta != 0), ``Pure-Q``
    (quaternionic rank one, whose projection has rank two almost
    surely).  Improper and Pure-Q require n >= 2: a 1 x 1 hermitian
    quaternion has no skew part.
    """
    return validate(_random_density_matrix(n, kind, _as_rng(seed)))


def _random_density_matrix(n: int, kind: MixtureKind | str, rng: np.random.Generator) -> QMatrix:
    """The unvalidated draw behind :func:`random_density`, at unit real trace.

    Improper and Pure-Q draws are repeated, up to 16 times, while the
    classification rule of :func:`validate` calls them proper.
    """
    label = kind.value.lower() if isinstance(kind, MixtureKind) else str(kind).lower()
    if label == "proper":
        g = _ginibre(rng, n)
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        return QMatrix.from_complex(mat)
    if label not in ("improper", "pure-q"):
        raise ValueError(f"unknown density kind: {kind!r}")
    if n < 2:
        raise DimensionMismatch(
            "improper and pure quaternionic densities need dimension >= 2"
        )
    for _ in range(16):
        if label == "improper":
            g = QMatrix(_ginibre(rng, n), _ginibre(rng, n))
            mat = g @ g.h
        else:
            wa = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            wb = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w = QMatrix(wa.reshape(-1, 1), wb.reshape(-1, 1))
            mat = w @ w.h
        mat = mat / real_trace(mat)
        if _mixture_kind(mat)[0] is MixtureKind.IMPROPER:
            return mat
    raise RuntimeError(f"random {label} generation kept landing on beta ~ 0")
