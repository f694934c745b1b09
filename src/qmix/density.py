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
  rank-one quaternionic blocks of ``block_purify``'s formula, which
  ``_lift_blocks`` builds for every pair at once without calling
  ``block_purify``.  Its alpha block is the full spectral sum of the
  source, every eigenpair of one ``eigh`` call, so terms below the rank
  threshold are kept too.
* ``purify`` is the extreme case m' = 1, possible exactly when m <= 2.
"""

from __future__ import annotations

import enum
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
    _check_reals,
    _paired_eigvals,
    _shown,
    check_int,
    check_slices,
    check_square,
    check_tol,
    check_type,
    chi,
    numerical_rank,
    require_hermitian,
    slice_norms,
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
    """Complex density matrix (hermitian, positive, unit trace) with spectrum.

    The lift builder :func:`_lift_blocks` also reads a stack of them:
    ``mat`` of shape (s, n, n) and ``eigenvalues`` of shape (s, n), whose
    ``rank`` is then one count per slice.
    """

    mat: np.ndarray
    eigenvalues: np.ndarray

    @classmethod
    def from_matrix(cls, mat: np.ndarray, tol: float = VALIDATION_TOL) -> "CDensity":
        """Validate a complex matrix as a density matrix; see :func:`_density_gate`."""
        check_tol(tol)
        mat = np.asarray(mat, dtype=np.complex128)
        check_square("density matrix", mat.shape)
        return cls(mat=mat, eigenvalues=_density_gate(mat, tol))

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    @cached_property
    def rank(self) -> int:
        return numerical_rank(self.eigenvalues)

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every eigenpair of one ``eigh`` call, computed once.

        Eigenvalues descend, ties keep ``eigh``'s order, and each
        eigenvector is phase-normalized (:func:`_phase_normalize`).  A
        stack is decomposed in one call, each slice as ``eigh`` decomposes
        it alone.  Every lift of this density reads them, whatever its
        target rank.
        """
        eigs, vecs = np.linalg.eigh(self.mat)
        order = np.argsort(-eigs, axis=-1, kind="stable")
        vecs = np.take_along_axis(vecs, order[..., None, :], -1)
        return np.take_along_axis(eigs, order, -1), _phase_normalize(vecs)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian quaternionic operator; flagged complex when beta ~ 0."""

    mat: QMatrix
    is_complex: bool

    @classmethod
    def from_qmatrix(cls, mat: QMatrix, tol: float = VALIDATION_TOL) -> "Observable":
        """One square QMatrix, hermitian at ``tol``; complex when ``slice_norms(beta) <= tol``."""
        check_tol(tol)
        check_type("observable", mat, QMatrix)
        check_square("observable", mat.shape)
        require_hermitian(mat, tol)
        with np.errstate(over="ignore"):  # an overflowing norm reads inf: not complex
            beta_norm = float(slice_norms(mat.beta))
        return cls(mat=mat, is_complex=beta_norm <= tol)

    @classmethod
    def from_complex(cls, mat: np.ndarray) -> "Observable":
        """Embed one square complex matrix (beta = 0), its hermiticity measured as given."""
        check_square("observable", np.shape(mat))
        mat = QMatrix.from_complex(mat)
        require_hermitian(mat.alpha, VALIDATION_TOL)
        return cls(mat=mat, is_complex=True)


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
    require_hermitian(image, tol)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail every test
        magnitude = np.abs(image).max((-2, -1), initial=0.0)
        trace = np.trace(alpha, axis1=-2, axis2=-1).real
        trace_deviation = abs(trace - 1.0)
    check_slices(
        trace_deviation, tol, TraceNotOne,
        lambda i: f"real trace {float(trace[i])!r} deviates from 1 by "
        f"{trace_deviation[i]:.3e}, beyond {tol:.3e}",
    )
    bound = 1.0 + (2 * mat.shape[-1] + 1) * tol
    check_slices(
        magnitude, bound, NotPositive,
        lambda i: f"entry magnitude {magnitude[i]:.3e} exceeds {bound!r}, "
        f"the bound for a unit-trace matrix with no eigenvalue below -{tol:.3e}",
    )
    eigs = np.linalg.eigvalsh(image)
    if quaternionic:
        eigs = _paired_eigvals(eigs)
    lowest = eigs.min(-1, initial=0.0)
    check_slices(
        -lowest, tol, NotPositive, lambda i: f"minimum eigenvalue {lowest[i]:.3e} below -{tol:.3e}"
    )
    return eigs


#: ``MixtureKind`` indexed by the zero test's outcome (False, True).
_KINDS = np.array([MixtureKind.IMPROPER, MixtureKind.PROPER], dtype=object)


def _mixture_kind(m: QMatrix) -> tuple:
    """Classification by the zero test :func:`proper_tolerance`, and ||beta||_F.

    One rule: the norms are :func:`slice_norms`, 0-d for a matrix and one
    per slice of a stack, which gets an object array of kinds.
    """
    beta_norm = slice_norms(m.beta)
    proper = beta_norm <= proper_tolerance(m.rows, slice_norms(m.alpha))
    return _KINDS[proper.astype(np.intp)], beta_norm


def validate(m: QMatrix, tol: float = VALIDATION_TOL) -> QDensity:
    """Validate a quaternionic matrix as a density matrix and classify it.

    ``m`` is a QMatrix (else a ValueError).  Runs :func:`_density_gate`
    and keeps its spectrum.  The proper/improper classification uses the
    scale-aware zero test :func:`proper_tolerance` on ||rho_beta||_F.
    ``tol`` follows :func:`~qmix.qmatrix.check_tol`, as it does for the
    other public gates.
    """
    check_tol(tol)
    check_type("density matrix", m, QMatrix)
    check_square("density matrix", m.shape)
    eigs = _density_gate(m, tol)
    kind, beta_norm = _mixture_kind(m)
    return QDensity(mat=m, classification=kind, beta_norm=float(beta_norm), eigenvalues=eigs)


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
    whatever rho_beta is.  An ``a`` that is not an :class:`Observable`,
    or a ``rho`` that is not a :class:`QDensity`, is a ValueError; a value
    that overflows raises :class:`QmixError` (see :func:`check_real`).
    """
    check_type("a", a, Observable)
    check_type("rho", rho, QDensity)
    check_square("observable", a.mat.shape, rho.dim)
    return _expectations(a.mat, rho.mat)


def _expectations(a: QMatrix, rho: QMatrix):
    """Re Tr(A rho) behind :func:`expectation`, on stacks that broadcast together.

    The values go through one :func:`~qmix.qmatrix._check_reals` call, which
    names the first non-finite one and its slice; a float for one pair, else
    lists, row-major.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        value = np.trace(a.alpha @ rho.alpha, axis1=-2, axis2=-1)
        value -= np.trace(a.beta.conj() @ rho.beta, axis1=-2, axis2=-1)
    values = np.asarray(value.real)  # 0-d for one pair
    _check_reals("expectation value Re Tr(A rho)", values)
    return values.tolist()


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
    u*cu + v*cv*j, with real trace |cu|^2 + |cv|^2 and quaternionic rank
    one (the formula is :func:`_pair_block`'s).  With cv = 0 the block
    degenerates to a purely complex rank-one term.  Unit norms and
    orthogonality are checked at ``VALIDATION_TOL``; a non-finite vector
    fails them, and weights whose |cu|^2 + |cv|^2 is zero or not finite
    raise :class:`NotNormalized`.  It gates nothing: the caller gates the
    block.  The scenario calls the kernel alone and gates its block in its
    one density gate, since its basis is the constant measured one and the
    coupling has already held |cu|^2 + |cv|^2 to 1.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if u.shape != v.shape:
        raise DimensionMismatch(f"vector shapes differ: {u.shape} vs {v.shape}")
    for name, vec in (("u", u), ("v", v)):
        norm = float(np.linalg.norm(vec))
        check_slices(
            abs(norm - 1.0), VALIDATION_TOL, NotNormalized,
            lambda i: f"{name} has norm {norm!r}, off unity by {abs(norm - 1.0):.3e}",
        )
    overlap = abs(np.vdot(u, v))
    check_slices(
        overlap, VALIDATION_TOL, NotOrthogonal,
        lambda i: f"|<u, v>| = {overlap:.3e} exceeds {VALIDATION_TOL:.3e}",
    )
    cu = complex(cu)
    cv = complex(cv)
    with np.errstate(over="ignore"):  # an overflowing weight is refused below
        weight = np.float64(abs(cu)) ** 2 + np.float64(abs(cv)) ** 2
    if weight == 0.0:
        raise NotNormalized("cu and cv cannot both vanish")
    if not np.isfinite(weight):
        raise NotNormalized(f"weights cu = {cu!r} and cv = {cv!r} give |cu|^2 + |cv|^2 = {weight}")
    return QMatrix(*_pair_block(u, v, cu, cv))


def _pair_block(u: np.ndarray, v: np.ndarray, cu: complex, cv: complex) -> tuple:
    """The (alpha, beta) blocks behind :func:`block_purify`, unchecked:

        alpha = |cu|^2 uu^dag + |cv|^2 vv^dag
        beta  = conj(cu) conj(cv) (conj(v) u^dag - conj(u) v^dag)

    ``u`` and ``v`` are complex vectors of one length, and the caller has
    established what :func:`block_purify` checks.
    """
    wu, wv = np.float64(abs(cu)) ** 2, np.float64(abs(cv)) ** 2  # libm pow, as for floats
    alpha = wu * np.outer(u, u.conj()) + wv * np.outer(v, v.conj())
    cross = np.conj(cu) * np.conj(cv)
    return alpha, cross * (np.outer(v.conj(), u.conj()) - np.outer(u.conj(), v.conj()))


def _phase_normalize(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column's global phase so its largest component is real positive.

    The columns are eigenvectors, of unit norm, so no pivot is zero.  A
    stack is normalized slice by slice.
    """
    rows = np.argmax(np.abs(vecs), axis=-2)
    pivots = np.take_along_axis(vecs, rows[..., None, :], -2)
    return vecs * (np.conj(pivots) / np.abs(pivots))


def _lift_blocks(sources: CDensity, owner, targets) -> tuple[np.ndarray, np.ndarray]:
    """The (alpha, beta) blocks of lifts of ``sources``, not yet validated.

    ``sources`` is one density or a stack of them.  Lift j is of source
    ``owner[j]`` to rank ``targets[j]``; the two broadcast together, and
    scalars give one lift, with (n, n) blocks and errors that name no
    slice.  The targets are integers; every lift is checked for a target
    in its admissible range (:class:`RankOne`, :class:`RankOutOfRange`) and
    the orthonormality of its paired eigenvectors (:class:`NotOrthogonal`,
    one Gram-matrix test), each through :func:`~qmix.qmatrix.check_slices`.

    The eigenpairs of all the sources come from one stacked ``eigh``
    (:attr:`CDensity.eigenpairs`), alpha is built once for every source
    in the stack (each caller lifts all of its sources), and the Gram
    test and beta once per pair count k = 2 (m - target), as stacked
    products that give each lift the bits a stack of one gives it.  The
    density gate is left to the caller, which may gate many lifts as one
    stack.
    """
    owner, targets = np.broadcast_arrays(owner, targets)
    m = np.reshape(sources.rank, -1)[owner]
    lo = (m + 1) // 2
    check_slices(  # 2 - m <= 0: the rank is at least two
        2 - m, 0, RankOne, lambda i: "rank-one complex densities admit no lift to lower rank"
    )
    # lo <= target <= m, one bound at a time: a target past int64 is a Python
    # int, which np.maximum of the two differences would overflow converting
    for excess in (lo - targets, targets - m):
        check_slices(
            excess, 0, RankOutOfRange,
            lambda i: f"target rank {_shown(targets[i], str)} outside admissible range "
            f"[{lo[i]}, {m[i]}] for projection rank {m[i]}",
        )
    n = sources.dim
    eigs, vecs = sources.eigenpairs
    eigs, vecs = eigs.reshape(-1, n), vecs.reshape(-1, n, n)
    owner, pairs = owner.reshape(-1), np.reshape(2 * (m - targets), -1)
    alpha = ((vecs * eigs[:, None, :]) @ vecs.conj().swapaxes(-1, -2))[owner]
    beta = np.zeros_like(alpha)
    deviation = np.zeros(len(owner))
    for k in sorted(set(pairs.tolist()) - {0}):  # the leading k eigenpairs form the pairs
        lifts = np.flatnonzero(pairs == k)
        e, q = eigs[owner[lifts]], vecs[owner[lifts]]
        gram = q[..., :k].conj().swapaxes(-1, -2) @ q[..., :k]
        gram[:, range(k), range(k)] -= 1.0  # subtract the identity
        deviation[lifts] = np.abs(gram).max((-2, -1))
        u, v = q[..., 0:k:2], q[..., 1:k:2]
        weights = np.sqrt(e[:, 0:k:2]) * np.sqrt(e[:, 1:k:2])
        cross = (v.conj() * weights[:, None, :]) @ u.conj().swapaxes(-1, -2)
        beta[lifts] = cross - cross.swapaxes(-1, -2)
    deviation = deviation.reshape(m.shape)
    check_slices(
        deviation, VALIDATION_TOL, NotOrthogonal,
        lambda i: f"paired eigenvectors deviate from orthonormal by {deviation[i]:.3e}, "
        f"beyond {VALIDATION_TOL:.3e}",
    )
    return alpha.reshape(*m.shape, n, n), beta.reshape(*m.shape, n, n)


def lift(rho_alpha: CDensity, target_rank: int) -> QDensity:
    """Quaternionic density of rank ``target_rank`` projecting onto ``rho_alpha``.

    Requires m = rank(rho_alpha) > 1 and ceil(m/2) <= target_rank <= m.
    The construction pairs the eigenvectors of :attr:`CDensity.eigenpairs`
    (one ``eigh`` call; ties kept in its order), largest eigenvalues first
    and adjacent in the descending order, and replaces each of the
    k = m - target_rank pairs by a rank-one quaternionic block, the one
    :func:`block_purify` gives with weights sqrt(lambda), though
    :func:`_lift_blocks` builds them all without calling it; every other
    spectral term stays complex.  Terms below the rank threshold are
    never paired.

    Summed over the blocks, alpha is the full spectral sum of rho_alpha
    and beta is B - B^T with B = sum_k sqrt(lambda_u lambda_v) conj(v) u^dag,
    one product each.  Pairing keeps the trace, against which
    :func:`~qmix.qmatrix.numerical_rank` measures, so the lift lands on
    ``target_rank``.  The paired eigenvectors must be orthonormal within
    ``VALIDATION_TOL`` (one Gram-matrix test).

    A ``target_rank`` that is not an integer >= 1 is a :class:`RankOutOfRange`
    (:func:`~qmix.qmatrix.check_int`).  Then two steps: the stacked builder
    :func:`_lift_blocks`, called here with one source and one target,
    checks the target's range and the pairing and returns the blocks, and
    :func:`validate` gates and classifies the result.  The audit calls the
    same builder once per dimension, on every lift and every purification
    (a lift to rank one) of it, and gates them as one stack.
    """
    check_int("target rank", target_rank, 1, RankOutOfRange)
    return validate(QMatrix(*_lift_blocks(rho_alpha, 0, target_rank)))


def purify(rho_alpha: CDensity) -> QDensity:
    """Quaternionic rank-one density projecting onto ``rho_alpha``.

    Possible exactly when rank(rho_alpha) <= 2.  Rank-one input is
    already the projection of a pure state and is embedded unchanged
    (:func:`embed_proper`); rank-two input is lifted to rank one
    (``lift(rho_alpha, 1)``); any other rank raises :class:`NotPurifiable`.
    """
    if rho_alpha.rank == 1:
        return embed_proper(rho_alpha)
    if rho_alpha.rank != 2:
        raise NotPurifiable(
            f"projection rank {rho_alpha.rank} exceeds 2, the largest rank "
            "a quaternionic pure state can project onto"
        )
    return lift(rho_alpha, 1)


# ---------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------

def _ginibre(parts: np.ndarray) -> np.ndarray:
    """Complex Ginibre matrices from standard normals of shape (..., 2k, r, c).

    Parts 2i and 2i + 1 are the real and imaginary parts of matrix i; the
    result has shape (..., k, r, c).  One ``standard_normal`` call of 2k
    parts gives the bits, and leaves the stream where, k pairs of calls of
    one part each would.
    """
    return parts[..., 0::2, :, :] + 1j * parts[..., 1::2, :, :]


def random_density(n: int, kind: MixtureKind | str, seed=None) -> QDensity:
    """Random valid density of the requested kind, deterministic per seed.

    One rule, g g^dag / Re Tr(g g^dag) over a Ginibre draw g: complex
    n x n for ``Proper`` (beta = 0), quaternionic n x n for ``Improper``
    (beta != 0) and quaternionic n x 1 for ``Pure-Q`` (rank one, whose
    projection has rank two almost surely).  Improper and Pure-Q need
    n >= 2: a 1 x 1 hermitian quaternion has no skew part.  A smaller n
    is a :class:`DimensionMismatch`.  ``seed`` is None, a generator or an
    integer >= 0 (:func:`~qmix.qmatrix.check_int`); anything else is a ValueError.
    """
    if seed is not None and not isinstance(seed, np.random.Generator):
        check_int("seed", seed, 0)
    return validate(_random_density_matrix(n, kind, [np.random.default_rng(seed)])[0])


def _random_density_matrix(n: int, kind: MixtureKind | str, rngs) -> QMatrix:
    """The unvalidated stack of draws behind :func:`random_density`, at unit real trace.

    ``rngs`` is a sequence of generators, one per draw of the stack.
    Each generator makes one ``standard_normal`` call, and the arithmetic
    runs once on the stack, giving each slice the bits its generator alone
    gives.  Drawn once: an Improper or Pure-Q draw that the classification
    rule of :func:`validate` calls proper raises :class:`QmixError`.
    """
    label = kind.value.lower() if isinstance(kind, MixtureKind) else str(kind).lower()
    if label not in ("proper", "improper", "pure-q"):
        raise ValueError(f"unknown density kind: {kind!r}")
    check_int(f"{label} density dimension", n, 1 if label == "proper" else 2, DimensionMismatch)
    shape = (2, n, n) if label == "proper" else (4, n, n if label == "improper" else 1)
    parts = np.empty((len(rngs), *shape))
    for part, r in zip(parts, rngs):
        r.standard_normal(shape, out=part)
    g = _ginibre(parts)
    if label == "proper":
        mat = QMatrix.from_complex(g[:, 0] @ g[:, 0].conj().swapaxes(-1, -2))
    else:
        g = QMatrix(g[:, 0], g[:, 1])
        mat = g @ g.h
    trace = np.trace(mat.alpha, axis1=-2, axis2=-1).real[:, None, None]
    mat = QMatrix(mat.alpha / trace, mat.beta / trace)
    if label != "proper":
        kinds, beta_norm = _mixture_kind(mat)
        called_proper = np.flatnonzero(kinds == MixtureKind.PROPER)
        if called_proper.size:
            i = called_proper[0]
            tol = proper_tolerance(n, float(slice_norms(mat.alpha[i])))
            raise QmixError(
                f"random {label} draw is proper: ||beta||_F = {beta_norm[i]:.3e} <= {tol:.3e}"
            )
    return mat
