"""End-to-end measurement scenario and randomized structural audits.

The scenario couples a two-level system to a two-level pointer, then
derives the system's mixed state twice: by tracing out the pointer
(the improper route) and by the nonselective projective update of the
uncoupled system (the proper route).  The two complex matrices coincide
entrywise, yet the package represents them differently: the proper
mixture keeps beta = 0, while the improper mixture is purified into a
quaternionic rank-one state whose projection is the shared complex
matrix.  Every complex observable then agrees on the two states and the
witness j*rho_beta separates them, which the report records check by
check with measured residuals.

``check_propositions`` is a seeded audit of the structural facts the
rest of the package leans on: the projection of a density is a density,
its rank is pinched between m and 2m, lifts round-trip at every
admissible rank, and purification works exactly up to projection
rank two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import (
    ProjectorFamily,
    lueders_nonselective,
    measurement_interaction,
    partial_trace,
)
from .density import (
    CDensity,
    MixtureKind,
    Observable,
    QDensity,
    block_purify,
    complex_projection,
    discriminating_observable,
    embed_proper,
    expectation,
    lift,
    purify,
    random_density,
    validate,
)
from .errors import (
    NotNormalized,
    NotPurifiable,
    PropositionViolated,
    QmixError,
)
from .qmatrix import QMatrix, frobenius_norm

#: Entrywise tolerance for the two mixture routes agreeing.
MIXTURE_MATCH_TOL = 1e-12
#: Tolerance for complex observables agreeing across the two states.
COMPLEX_AGREEMENT_TOL = 1e-11
#: Tolerance on the discriminator value against its closed form.
DISCRIMINATOR_TOL = 1e-10
#: Tolerance on the discriminator vanishing on the proper state.
DISCRIMINATOR_ZERO_TOL = 1e-12
#: Idempotency tolerance certifying the purified state is a projector.
PURITY_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named scenario check, with its measured residual."""

    passed: bool
    residual: float
    tolerance: float


@dataclass(frozen=True)
class ExpectationRow:
    """One complex observable evaluated on both mixture representations."""

    label: str
    on_proper: float
    on_improper: float
    difference: float


@dataclass(frozen=True, eq=False)
class DiscriminatorResult:
    """The quaternionic witness and its two expectation values."""

    observable: Observable
    on_proper: float
    on_improper: float


@dataclass(frozen=True, eq=False)
class ScenarioReport:
    """Full record of one scenario run; residuals always accompany booleans."""

    c_plus: complex
    c_minus: complex
    n_hat: tuple[float, float]
    rho_improper: QDensity
    rho_proper: QDensity
    complex_expectation_table: tuple[ExpectationRow, ...]
    quaternionic_discriminator: DiscriminatorResult
    checks: dict[str, CheckResult]
    improper_representation: str = "purified"

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks.values())


def direction_basis(theta: float, phi: float) -> np.ndarray:
    """Eigenbasis of the spin component along (theta, phi), as columns."""
    plus = np.array(
        [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)], dtype=np.complex128
    )
    minus = np.array(
        [-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)], dtype=np.complex128
    )
    return np.column_stack([plus, minus])


def spin_along(theta: float, phi: float) -> np.ndarray:
    """Pauli vector contracted with the unit direction (theta, phi)."""
    direction = np.array(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
    )
    return direction[0] * PAULI_X + direction[1] * PAULI_Y + direction[2] * PAULI_Z


def run_scenario(
    c_plus: complex, c_minus: complex, n_hat: tuple[float, float] = (0.0, 0.0)
) -> ScenarioReport:
    """Run the measurement scenario for amplitudes (c_plus, c_minus).

    ``n_hat`` gives the measured spin direction as polar/azimuthal
    angles in radians; all matrices in the report are expressed in that
    direction's eigenbasis.  Raises :class:`NotNormalized` unless
    |c_plus|^2 + |c_minus|^2 = 1.
    """
    c_plus = complex(c_plus)
    c_minus = complex(c_minus)
    norm2 = abs(c_plus) ** 2 + abs(c_minus) ** 2
    if abs(norm2 - 1.0) > 1e-12:
        raise NotNormalized(
            f"|c+|^2 + |c-|^2 = {norm2!r} off unity by {abs(norm2 - 1.0):.3e}"
        )
    theta, phi = float(n_hat[0]), float(n_hat[1])

    # Improper route: couple to the pointer, trace the pointer out.
    _, psi_t = measurement_interaction((c_plus, c_minus))
    rho_traced = partial_trace(psi_t.density(), dims=(2, 2), over=2)

    # Proper route: nonselective update of the uncoupled system.
    phi0 = np.array([c_plus, c_minus], dtype=np.complex128)
    family = ProjectorFamily.from_basis(np.eye(2, dtype=np.complex128))
    rho_lueders = lueders_nonselective(
        CDensity.from_matrix(np.outer(phi0, phi0.conj())), family
    )
    mixture_gap = float(np.abs(rho_traced.mat - rho_lueders.mat).max())

    rho_proper = embed_proper(rho_lueders)
    basis_plus = np.array([1.0, 0.0], dtype=np.complex128)
    basis_minus = np.array([0.0, 1.0], dtype=np.complex128)
    rho_improper = validate(block_purify(basis_plus, basis_minus, c_plus, c_minus))

    projection_gap = float(
        np.abs(complex_projection(rho_improper).mat - rho_proper.alpha).max()
    )

    # Purity of the improper representative: rank one and idempotent.
    scaled = rho_improper.mat
    idem_residual = frobenius_norm(scaled @ scaled - scaled)
    rank_one = rho_improper.rank == 1

    # Complex observables, transformed into the measured eigenbasis.
    basis = direction_basis(theta, phi)
    named = (
        ("identity", np.eye(2, dtype=np.complex128)),
        ("spin_along_n", spin_along(theta, phi)),
        ("sigma_x", PAULI_X),
        ("sigma_y", PAULI_Y),
        ("sigma_z", PAULI_Z),
    )
    table = []
    for label, mat in named:
        obs = Observable.from_complex(basis.conj().T @ mat @ basis)
        on_proper = expectation(obs, rho_proper)
        on_improper = expectation(obs, rho_improper)
        table.append(
            ExpectationRow(label, on_proper, on_improper, abs(on_proper - on_improper))
        )
    worst_gap = max(row.difference for row in table)

    witness = discriminating_observable(rho_improper)
    disc = DiscriminatorResult(
        observable=witness,
        on_proper=expectation(witness, rho_proper),
        on_improper=expectation(witness, rho_improper),
    )
    disc_theory = 2.0 * abs(c_plus * c_minus) ** 2

    checks = {
        "partial_trace_matches_lueders": CheckResult(
            mixture_gap <= MIXTURE_MATCH_TOL, mixture_gap, MIXTURE_MATCH_TOL
        ),
        "projection_matches_proper": CheckResult(
            projection_gap <= MIXTURE_MATCH_TOL, projection_gap, MIXTURE_MATCH_TOL
        ),
        "improper_state_is_pure": CheckResult(
            rank_one and idem_residual <= PURITY_TOL, idem_residual, PURITY_TOL
        ),
        "complex_observables_agree": CheckResult(
            worst_gap <= COMPLEX_AGREEMENT_TOL, worst_gap, COMPLEX_AGREEMENT_TOL
        ),
        "discriminator_on_improper": CheckResult(
            abs(disc.on_improper - disc_theory) <= DISCRIMINATOR_TOL,
            abs(disc.on_improper - disc_theory),
            DISCRIMINATOR_TOL,
        ),
        "discriminator_on_proper": CheckResult(
            abs(disc.on_proper) <= DISCRIMINATOR_ZERO_TOL,
            abs(disc.on_proper),
            DISCRIMINATOR_ZERO_TOL,
        ),
    }
    return ScenarioReport(
        c_plus=c_plus,
        c_minus=c_minus,
        n_hat=(theta, phi),
        rho_improper=rho_improper,
        rho_proper=rho_proper,
        complex_expectation_table=tuple(table),
        quaternionic_discriminator=disc,
        checks=checks,
    )


# ---------------------------------------------------------------------
# randomized structural audit
# ---------------------------------------------------------------------

@dataclass(frozen=True)
class PropositionRow:
    """Audit tally for one structural check."""

    name: str
    attempts: int
    failures: int
    worst_residual: float


@dataclass(frozen=True)
class PropositionSummary:
    """Per-check tallies for a completed audit run."""

    rows: tuple[PropositionRow, ...]
    trials: int
    n_max: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(row.failures == 0 for row in self.rows)


_AUDIT_KINDS = (MixtureKind.IMPROPER, "Pure-Q", MixtureKind.PROPER)


def _random_complex_density_of_rank(
    rng: np.random.Generator, n: int, rank: int
) -> CDensity:
    frame = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))[0]
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    mat = (frame * weights) @ frame.conj().T
    return CDensity.from_matrix(mat)


def check_propositions(
    n_max: int, trials: int, seed: int, corrupt: bool = False
) -> PropositionSummary:
    """Audit the structural facts behind the projection machinery.

    Runs ``trials`` seeded rounds over dimensions 2..n_max and tallies:

    * projection_is_density - the complex projection of every generated
      density is hermitian, positive and unit trace;
    * projection_rank_bounds - m <= rank of projection <= 2m;
    * lift_round_trip - every admissible lift target succeeds, projects
      back entrywise, and lands on the requested rank;
    * purify_rank_two - rank-two projections purify to quaternionic
      rank one (idempotent), rank-three ones are refused.

    Any failure raises :class:`PropositionViolated` naming the check and
    the offending trial seed.  ``corrupt=True`` deliberately breaks the
    skew symmetry of generated states (a negative control: the audit
    must catch it).
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    tallies = {
        name: [0, 0, 0.0]
        for name in (
            "projection_is_density",
            "projection_rank_bounds",
            "lift_round_trip",
            "purify_rank_two",
        )
    }

    def record(name: str, ok: bool, residual: float, trial_seed: int, detail: str):
        entry = tallies[name]
        entry[0] += 1
        entry[2] = max(entry[2], residual)
        if not ok:
            entry[1] += 1
            raise PropositionViolated(name, trial_seed, detail)

    for trial in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(trial,))
        )
        n = 2 + trial % (n_max - 1)
        kind = _AUDIT_KINDS[trial % len(_AUDIT_KINDS)]
        try:
            rho = random_density(n, kind, rng)
            if corrupt:
                beta = (rho.beta + rho.beta.T) / 2 + 0.1 * np.eye(n)
                rho = validate(QMatrix(rho.alpha, beta))
        except QmixError as exc:
            raise PropositionViolated(
                "projection_is_density", trial, f"state generation failed: {exc}"
            ) from exc

        projected = complex_projection(rho)
        herm = float(np.abs(projected.mat - projected.mat.conj().T).max())
        negativity = max(0.0, float(-projected.eigenvalues.min()))
        trace_dev = abs(float(np.trace(projected.mat).real) - 1.0)
        record(
            "projection_is_density",
            herm <= 1e-10 and negativity <= 1e-10 and trace_dev <= 1e-12,
            max(herm, negativity, trace_dev),
            trial,
            f"projection invalid: herm={herm:.3e} neg={negativity:.3e} trace={trace_dev:.3e}",
        )

        # Ranks come from the spectra the density gate cached: no SVD.
        m = rho.rank
        record(
            "projection_rank_bounds",
            m <= projected.rank <= 2 * m,
            0.0,
            trial,
            f"rank bounds broken: m={m}, rank_alpha={projected.rank}",
        )

        source = _random_complex_density_of_rank(rng, n, rng.integers(2, n + 1))
        worst = 0.0
        ok = True
        detail = ""
        for target in range((source.rank + 1) // 2, source.rank + 1):
            lifted = lift(source, target)
            round_trip = float(np.abs(lifted.alpha - source.mat).max())
            worst = max(worst, round_trip)
            got = lifted.rank
            if round_trip > 1e-12 or got != target:
                ok = False
                detail = f"target {target}: round_trip={round_trip:.3e}, rank={got}"
                break
        record("lift_round_trip", ok, worst, trial, detail)

        two = _random_complex_density_of_rank(rng, n, 2)
        pure = purify(two)
        idem = frobenius_norm(pure.mat @ pure.mat - pure.mat)
        rank_ok = pure.rank == 1
        refusal_ok = True
        if n >= 3:
            three = _random_complex_density_of_rank(rng, n, 3)
            try:
                purify(three)
                refusal_ok = False
            except NotPurifiable:
                pass
        record(
            "purify_rank_two",
            rank_ok and idem <= PURITY_TOL and refusal_ok,
            idem,
            trial,
            f"purify failed: rank_ok={rank_ok} idem={idem:.3e} refusal_ok={refusal_ok}",
        )

    rows = tuple(
        PropositionRow(name, entry[0], entry[1], entry[2])
        for name, entry in tallies.items()
    )
    return PropositionSummary(rows=rows, trials=trials, n_max=n_max, seed=seed)
