"""Complex bipartite machinery: Schmidt terms, partial trace, projective update.

This module stays entirely inside complex quantum mechanics.  It supplies
the two standard routes to a mixed state of a subsystem:

* tracing out the partner of an entangled pure state (the improper route),
* the nonselective projective update rho -> sum_i P_i rho P_i (the proper
  route).

Index convention is row-major throughout: the compound basis vector
(a, b) sits at position a * n2 + b, matching ``numpy.kron``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import CDensity
from .errors import DimensionMismatch, NotNormalized, NotOrthogonal
from .qmatrix import check_slices, check_square, check_type

#: Unit-norm tolerance for state vectors.
STATE_NORM_TOL = 1e-12
#: Orthonormality / completeness tolerance for bases and projector families.
FAMILY_TOL = 1e-10

#: P+ (x) I + P- (x) X: the pointer is held on |+> and shifted on |->.
_COUPLING = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Unit-norm pure state on a tensor product of dimensions ``dims``."""

    dims: tuple[int, int]
    vec: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.vec, dtype=np.complex128).reshape(-1)
        n1, n2 = self.dims
        if vec.size != n1 * n2:
            raise DimensionMismatch(
                f"vector length {vec.size} != {n1} * {n2}"
            )
        norm = float(np.linalg.norm(vec))
        check_slices(
            abs(norm - 1.0), STATE_NORM_TOL, NotNormalized,
            lambda i: f"state norm {norm!r} off unity by {abs(norm - 1.0):.3e}",
        )
        object.__setattr__(self, "dims", (int(n1), int(n2)))
        object.__setattr__(self, "vec", vec)

    def density(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


def schmidt(state: BipartiteState) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
    """Schmidt terms of the state: (weight, left vector, right vector) triples.

    The state is reshaped to an n1 x n2 coefficient matrix and factored
    by SVD; singular values are the Schmidt weights (descending) and the
    factors give the orthonormal left/right families.  Weights at or
    below ``FAMILY_TOL`` carry no correlation and are dropped.
    """
    check_type("state", state, BipartiteState)
    n1, n2 = state.dims
    coeff = state.vec.reshape(n1, n2)
    left, weights, right_h = np.linalg.svd(coeff)
    return tuple(
        (float(w), left[:, i].copy(), right_h[i, :].copy())
        for i, w in enumerate(weights)
        if w > FAMILY_TOL
    )


def partial_trace(rho: np.ndarray, dims: tuple[int, int], over: int) -> CDensity:
    """Trace out one factor of a density matrix on a tensor product.

    ``over`` selects the discarded factor (1 or 2).  The result is
    validated as a complex density on the kept factor.
    """
    return CDensity.from_matrix(_partial_trace(rho, dims, over))


def _partial_trace(rho: np.ndarray, dims: tuple[int, int], over: int) -> np.ndarray:
    """The kept factor's matrix behind :func:`partial_trace`, not yet gated."""
    n1, n2 = dims
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (n1 * n2, n1 * n2):
        raise DimensionMismatch(f"density shape {rho.shape} != ({n1 * n2}, {n1 * n2})")
    four = rho.reshape(n1, n2, n1, n2)
    if over == 2:
        return np.einsum("abcb->ac", four)
    if over == 1:
        return np.einsum("abad->bd", four)
    raise ValueError(f"over must be 1 or 2, got {over!r}")


@dataclass(frozen=True, eq=False)
class ProjectorFamily:
    """Orthogonal complex projectors summing to the identity, at ``FAMILY_TOL``."""

    projectors: tuple[np.ndarray, ...]

    @classmethod
    def from_projectors(cls, projectors) -> "ProjectorFamily":
        mats = tuple(np.asarray(p, dtype=np.complex128) for p in projectors)
        if not mats:
            raise ValueError("projector family cannot be empty")
        n = mats[0].shape[0]
        for idx, p in enumerate(mats):
            if p.shape != (n, n):
                raise DimensionMismatch(f"projector {idx} has shape {p.shape}, expected ({n}, {n})")
        # np.max, unlike max(), propagates NaN, so a non-finite family fails
        worst = float(np.max([
            np.abs(p @ q - (p if i == j else 0.0)).max()
            for i, p in enumerate(mats)
            for j, q in enumerate(mats)
        ]))
        check_slices(
            worst, FAMILY_TOL, NotOrthogonal,
            lambda i: f"projector products deviate from orthogonality by {worst:.3e}",
        )
        completeness = float(np.abs(sum(mats) - np.eye(n)).max())
        check_slices(
            completeness, FAMILY_TOL, NotNormalized,
            lambda i: f"projector sum deviates from identity by {completeness:.3e}",
        )
        return cls(projectors=mats)

    @classmethod
    def from_basis(cls, basis: np.ndarray) -> "ProjectorFamily":
        """Rank-one family from the columns of a unitary basis matrix."""
        basis = np.asarray(basis, dtype=np.complex128)
        return cls.from_projectors(
            [np.outer(basis[:, i], basis[:, i].conj()) for i in range(basis.shape[1])]
        )


def lueders_nonselective(rho: CDensity, family: ProjectorFamily) -> CDensity:
    """Nonselective projective update rho -> sum_i P_i rho P_i.

    The result commutes with every family member and the update is
    idempotent, which the tests exercise; here only shape compatibility
    is enforced and the output revalidated.
    """
    check_type("rho", rho, CDensity)
    check_type("family", family, ProjectorFamily)
    check_square("family", family.projectors[0].shape, rho.dim)
    return CDensity.from_matrix(_lueders(rho.mat, family))


def _lueders(mat: np.ndarray, family: ProjectorFamily) -> np.ndarray:
    """sum_i P_i mat P_i behind :func:`lueders_nonselective`, not yet gated."""
    out = np.zeros_like(mat)
    for p in family.projectors:
        out += p @ mat @ p
    return out


def measurement_interaction(phi0) -> tuple[np.ndarray, BipartiteState]:
    """Premeasurement coupling of a two-level system to a two-level pointer.

    ``phi0 = (c_plus, c_minus)`` are the coefficients of the system
    state in the measured basis.  The returned unitary U completes the
    map |+>|0> -> |+>|u>, |->|0> -> |->|d> by a controlled shift of the
    pointer basis label, with {|u>, |d>} the pointer's computational
    basis and |0> = |u>.  The returned state is U(phi0 (x) |0>); its
    Schmidt weights, from :func:`schmidt`, are (|c_plus|, |c_minus|).
    """
    phi0 = np.asarray(phi0, dtype=np.complex128).reshape(-1)
    if phi0.size != 2:
        raise DimensionMismatch(f"system state must have two components, got {phi0.size}")
    norm2 = float(np.vdot(phi0, phi0).real)
    check_slices(
        abs(norm2 - 1.0), STATE_NORM_TOL, NotNormalized,
        lambda i: f"|c+|^2 + |c-|^2 = {norm2!r} off unity by {abs(norm2 - 1.0):.3e}",
    )
    unitary = _COUPLING.copy()
    vec = unitary @ np.array([phi0[0], 0.0, phi0[1], 0.0])  # phi0 (x) |0>
    return unitary, BipartiteState(dims=(2, 2), vec=vec)
