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
rank two.  A batched pass over stacks proves success; only when it
raises does a replay run the trials one at a time, through the public
functions, to raise what the first failing trial raises.
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
    _density_gate,
    _ginibre,
    _lift_blocks,
    _random_density_matrix,
    purify,
    validate,
)
from .errors import DimensionMismatch, NotPurifiable, PropositionViolated, QmixError
from .qmatrix import (
    VALIDATION_TOL, QMatrix, check_int, check_real, frobenius_norm, hermiticity_deviation,
    numerical_rank,
)

#: Entrywise tolerance on a complex block against the density it must equal:
#: the two mixture routes, a projection and a lift's round trip.
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
    |c_plus|^2 + |c_minus|^2 = 1 (the coupling tests it), then
    :class:`DimensionMismatch` unless ``n_hat`` holds two angles; each
    angle then goes through :func:`check_real` (ValueError unless a real
    number, :class:`QmixError` unless finite).
    """
    c_plus = complex(c_plus)
    c_minus = complex(c_minus)
    # Improper route: couple to the pointer, trace the pointer out.
    _, psi_t = measurement_interaction((c_plus, c_minus))
    if len(n_hat) != 2:
        raise DimensionMismatch(f"n_hat needs two angles (theta, phi), got {len(n_hat)}")
    check_real("direction angle theta", n_hat[0])
    check_real("direction angle phi", n_hat[1])
    theta, phi = float(n_hat[0]), float(n_hat[1])
    rho_traced = partial_trace(psi_t.density(), dims=(2, 2), over=2)

    # Proper route: nonselective update of the uncoupled system.
    phi0 = np.array([c_plus, c_minus], dtype=np.complex128)
    measured = np.eye(2, dtype=np.complex128)
    family = ProjectorFamily.from_basis(measured)
    rho_lueders = lueders_nonselective(
        CDensity.from_matrix(np.outer(phi0, phi0.conj())), family
    )
    mixture_gap = float(np.abs(rho_traced.mat - rho_lueders.mat).max())

    rho_proper = embed_proper(rho_lueders)
    rho_improper = validate(block_purify(measured[:, 0], measured[:, 1], c_plus, c_minus))

    projection_gap = float(
        np.abs(complex_projection(rho_improper).mat - rho_proper.alpha).max()
    )

    # Purity of the improper representative: rank one and idempotent.
    pure = rho_improper.mat
    idem_residual = frobenius_norm(pure @ pure - pure)
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

    def check(residual: float, tolerance: float, also: bool = True) -> CheckResult:
        return CheckResult(also and residual <= tolerance, residual, tolerance)

    checks = {
        "partial_trace_matches_lueders": check(mixture_gap, MIXTURE_MATCH_TOL),
        "projection_matches_proper": check(projection_gap, MIXTURE_MATCH_TOL),
        "improper_state_is_pure": check(idem_residual, PURITY_TOL, also=rank_one),
        "complex_observables_agree": check(worst_gap, COMPLEX_AGREEMENT_TOL),
        "discriminator_on_improper": check(
            abs(disc.on_improper - disc_theory), DISCRIMINATOR_TOL
        ),
        "discriminator_on_proper": check(abs(disc.on_proper), DISCRIMINATOR_ZERO_TOL),
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
#: Most trials of one dimension that the audit's batched pass holds at once.
AUDIT_BLOCK_TRIALS = 64


def _complex_densities(parts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Stack of (Q w) Q^dag for frame draws of one rank r.

    ``parts`` has shape (s, 2, n, r): the standard normals of each frame's
    Ginibre draw, whose orthonormal QR factor is Q.  ``weights`` has shape
    (s, r), each row normalized here to unit sum.  One stacked QR gives
    each slice the factor a QR of that frame alone gives.
    """
    frames = np.linalg.qr(_ginibre(parts)[:, 0])[0]
    weights = weights / weights.sum(-1, keepdims=True)
    return (frames * weights[:, None, :]) @ frames.conj().swapaxes(-1, -2)


def _draw_trials(seed: int, trials: range, n: int) -> tuple[QMatrix, np.ndarray]:
    """Every random draw of the audit trials ``trials``, all of dimension n.

    Each trial draws from its own stream, ``SeedSequence(entropy=seed,
    spawn_key=(trial,))``, and makes only its RNG calls, in this order: the
    state's Ginibre parts, ``integers`` for the source rank, then the
    normals and ``uniform`` weights of each frame (the source's, rank two's
    and, for n >= 3, rank three's).  The arithmetic runs once on stacks,
    the states grouped by kind (:func:`_random_density_matrix`) and the
    complex densities by rank (:func:`_complex_densities`), so each slice
    has the bits of its trial drawn alone.

    Returns the states and the complex densities, none of them gated yet:
    the lift sources, then the rank-two densities, then (n >= 3) the
    rank-three ones, one per trial each.
    """
    t = len(trials)
    rngs = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
            for trial in trials]
    alpha, beta = np.empty((2, t, n, n), dtype=np.complex128)
    for k, kind in enumerate(_AUDIT_KINDS):
        index = [i for i, trial in enumerate(trials) if trial % len(_AUDIT_KINDS) == k]
        if index:
            states = _random_density_matrix(n, kind, [rngs[i] for i in index])
            alpha[index], beta[index] = states.alpha, states.beta

    draws = 3 if n >= 3 else 2
    by_rank = {}  # rank -> slots, normals, weights; slot j t + i: draw j of the i-th trial
    for i, rng in enumerate(rngs):
        for j, rank in enumerate((rng.integers(2, n + 1), 2, 3)[:draws]):
            slots, normals, weights = by_rank.setdefault(int(rank), ([], [], []))
            slots.append(j * t + i)
            normals.append(rng.standard_normal((2, n, rank)))
            weights.append(rng.uniform(0.2, 1.0, rank))
    densities = np.empty((draws * t, n, n), dtype=np.complex128)
    for slots, normals, weights in by_rank.values():
        densities[slots] = _complex_densities(np.array(normals), np.array(weights))
    return QMatrix(alpha, beta), densities


#: The audit's checks, in order, and the detail a failure of each reports.
_DETAILS = {
    "projection_is_density": "projection invalid: herm={herm:.3e} neg={neg:.3e} trace={trace:.3e}",
    "projection_rank_bounds": "rank bounds broken: m={m}, rank_alpha={rank_alpha}",
    "lift_round_trip": "target {target}: round_trip={round_trip:.3e}, rank={rank}",
    "purify_rank_two": "purify failed: rank_ok={rank_ok} idem={idem:.3e} refusal_ok={refusal_ok}",
}


def _projection_measures(mat: np.ndarray, eigs: np.ndarray) -> dict:
    """Hermiticity, negativity and trace deviation of complex projections, per slice."""
    return {
        "herm": hermiticity_deviation(mat),
        "neg": np.maximum(0.0, -eigs.min(-1)),
        "trace": np.abs(np.trace(mat, axis1=-2, axis2=-1).real - 1.0),
    }


def _judge(name: str, trials, **measured) -> np.ndarray:
    """Residuals of check ``name``, one per trial; raises for the first failing trial.

    ``measured`` holds the check's inputs, one per entry of ``trials``
    (scalars for one trial).  Both parts of the audit judge here, so
    each threshold is written once.  Each part gates a projection at
    ``VALIDATION_TOL`` before it is judged, which has tested its
    hermiticity and negativity; only the tighter trace test is left.
    """
    v = {key: np.atleast_1d(value) for key, value in measured.items()}
    if name == "projection_is_density":
        ok = v["trace"] <= 1e-12
        residual = np.maximum(np.maximum(v["herm"], v["neg"]), v["trace"])
    elif name == "projection_rank_bounds":
        ok = (v["m"] <= v["rank_alpha"]) & (v["rank_alpha"] <= 2 * v["m"])
        residual = np.zeros(ok.shape)
    elif name == "lift_round_trip":
        ok = (v["round_trip"] <= MIXTURE_MATCH_TOL) & (v["rank"] == v["target"])
        residual = v["round_trip"]
    else:
        ok = v["rank_ok"] & (v["idem"] <= PURITY_TOL) & v["refusal_ok"]
        residual = v["idem"]
    bad = np.flatnonzero(~ok)
    if bad.size:
        i = bad[0]
        detail = _DETAILS[name].format(**{key: value[i] for key, value in v.items()})
        raise PropositionViolated(name, int(trials[i]), detail)
    return residual


def check_propositions(n_max: int, trials: int, seed: int) -> PropositionSummary:
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
    the failing trial's index ``t``.

    Trial ``t`` has dimension ``2 + t % (n_max - 1)`` and draws from
    ``SeedSequence(entropy=seed, spawn_key=(t,))`` (:func:`_draw_trials`).
    The batched pass, :func:`_audit_dimension`, runs on consecutive blocks
    of at most ``AUDIT_BLOCK_TRIALS`` trials of each dimension, so memory
    does not grow with ``trials``; the worst residuals are maxima, which
    no blocking changes.  It proves success and tallies; at a failure it
    just raises, and the replay runs trials 0, 1, 2, ... alone
    (:func:`_check_trial`) until one raises what a trial-by-trial audit
    raises.  If none does (rounding broke a stack, not a matrix), the
    batched pass's error is raised.  Before any draw, an ``n_max`` that is
    not an integer >= 2, or a ``trials`` or ``seed`` that is not an integer
    >= 0, is a ValueError (:func:`~qmix.qmatrix.check_int`).
    """
    for name, value, least in (("n_max", n_max, 2), ("trials", trials, 0), ("seed", seed, 0)):
        check_int(name, value, least)
    worst = dict.fromkeys(_DETAILS, 0.0)
    try:
        for n in range(2, min(n_max, trials + 1) + 1):  # the dimensions with trials
            of_n = range(n - 2, trials, n_max - 1)
            for start in range(0, len(of_n), AUDIT_BLOCK_TRIALS):
                _audit_dimension(n, of_n[start : start + AUDIT_BLOCK_TRIALS], seed, worst)
    except QmixError:
        for trial in range(trials):
            _check_trial(seed, trial, n_max)
        raise
    rows = tuple(PropositionRow(name, trials, 0, residual) for name, residual in worst.items())
    return PropositionSummary(rows=rows, trials=trials, n_max=n_max, seed=seed)


def _audit_dimension(n: int, trials: range, seed: int, worst: dict) -> None:
    """The batched pass of :func:`check_propositions` for a block of trials of dimension n.

    One call of :func:`_draw_trials` draws them.  Two density gates: one
    on the complex stack (lift sources, rank-two and rank-three
    densities, projections) and one on the quaternionic stack (states,
    lifts, purifications); every tally is sliced out of their spectra.
    The lifts and purifications (lifts of the rank-two densities to rank
    one) come from one call of the stacked lift builder, on one ``eigh``
    of the lift sources and rank-two densities.  Raises at the first
    failure it meets and keeps each check's worst residual in ``worst``.
    """

    def tally(name: str, trial_ids, **measured) -> None:
        residual = _judge(name, trial_ids, **measured)
        worst[name] = max(worst[name], float(np.max(residual, initial=0.0)))

    t = len(trials)
    states, drawn = _draw_trials(seed, trials, n)
    densities = np.concatenate([drawn, states.alpha])
    spectra = _density_gate(densities, VALIDATION_TOL)
    projected, projected_eigs = densities[-t:], spectra[-t:]
    tally("projection_is_density", trials, **_projection_measures(projected, projected_eigs))

    # Lift every source to every admissible target and purify (lift to
    # rank one) every rank-two density: the sources are the first t
    # slices, the rank-two ones the next t.
    sources = CDensity(mat=densities[: 2 * t], eigenvalues=spectra[: 2 * t])
    lift_pairs = [
        (i, target)
        for i, m in enumerate(sources.rank[:t])
        for target in range((m + 1) // 2, m + 1)
    ]
    owner, targets = np.array(lift_pairs + [(t + i, 1) for i in range(t)]).T
    alpha, beta = _lift_blocks(sources, owner, targets)
    stack = QMatrix(np.concatenate([states.alpha, alpha]), np.concatenate([states.beta, beta]))
    end = t + len(lift_pairs)  # states, then lifts, then purifications
    state_eigs, lift_eigs, pure_eigs = np.split(_density_gate(stack, VALIDATION_TOL), [t, end])
    lifts, pures = stack[t:end], stack[end:]
    owner, targets = owner[: len(lift_pairs)], targets[: len(lift_pairs)]
    # Ranks come from the spectra the density gate returned: no SVD.
    m, rank_alpha = numerical_rank(state_eigs), numerical_rank(projected_eigs)
    tally("projection_rank_bounds", trials, m=m, rank_alpha=rank_alpha)

    round_trip = np.abs(lifts.alpha - sources.mat[owner]).max((-2, -1))
    rank = numerical_rank(lift_eigs)
    lift_trials = [trials[i] for i in owner]
    tally("lift_round_trip", lift_trials, round_trip=round_trip, rank=rank, target=targets)

    idem = frobenius_norm(pures @ pures - pures)
    # purify refuses exactly the ranks above two, and the gate's trace
    # test makes every rank at least one: a rank of two or less fails,
    # and the replay names the failure through purify itself.
    refusal_ok = numerical_rank(spectra[2 * t : 3 * t]) > 2 if n >= 3 else np.ones(t, dtype=bool)
    rank_ok = numerical_rank(pure_eigs) == 1
    tally("purify_rank_two", trials, rank_ok=rank_ok, idem=idem, refusal_ok=refusal_ok)


def _check_trial(seed: int, trial: int, n_max: int) -> None:
    """Trial ``trial`` of :func:`check_propositions` alone, check by check.

    Raises what the trial raises at its first failing check, in the
    order of a trial-by-trial audit; returns None if it passes.  A state
    the draw or :func:`validate` refuses is "state generation failed".
    """
    n = 2 + trial % (n_max - 1)
    try:
        state, drawn = _draw_trials(seed, range(trial, trial + 1), n)
        rho = validate(state[0])
    except QmixError as exc:
        raise PropositionViolated(
            "projection_is_density", trial, f"state generation failed: {exc}"
        ) from exc
    projected = complex_projection(rho)
    measures = _projection_measures(projected.mat, projected.eigenvalues)
    _judge("projection_is_density", [trial], **measures)
    _judge("projection_rank_bounds", [trial], m=rho.rank, rank_alpha=projected.rank)

    source = CDensity.from_matrix(drawn[0])
    for target in range((source.rank + 1) // 2, source.rank + 1):
        lifted = lift(source, target)
        round_trip = np.abs(lifted.alpha - source.mat).max()
        _judge("lift_round_trip", [trial], round_trip=round_trip, rank=lifted.rank, target=target)

    pure = purify(CDensity.from_matrix(drawn[1]))
    idem = frobenius_norm(pure.mat @ pure.mat - pure.mat)
    refusal_ok = True
    if n >= 3:
        try:
            purify(CDensity.from_matrix(drawn[2]))
            refusal_ok = False
        except NotPurifiable:
            pass
    _judge("purify_rank_two", [trial], rank_ok=pure.rank == 1, idem=idem, refusal_ok=refusal_ok)
