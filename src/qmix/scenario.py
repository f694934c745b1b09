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
    _lift_blocks,
    _purify_blocks,
    _random_density_matrix,
    purify,
    validate,
)
from .errors import NotPurifiable, PropositionViolated, QmixError
from .qmatrix import VALIDATION_TOL, QMatrix, frobenius_norm, hermiticity_deviation, numerical_rank

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
    :class:`QmixError` for a non-finite angle.
    """
    c_plus = complex(c_plus)
    c_minus = complex(c_minus)
    # Improper route: couple to the pointer, trace the pointer out.
    _, psi_t = measurement_interaction((c_plus, c_minus))
    theta, phi = float(n_hat[0]), float(n_hat[1])
    for name, angle in (("theta", theta), ("phi", phi)):
        if not np.isfinite(angle):
            raise QmixError(f"direction angle {name} = {angle!r} is not finite")
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


def _draw_spectral_data(
    rng: np.random.Generator, n: int, rank: int
) -> tuple[np.ndarray, np.ndarray]:
    """Frame draw and weights of a random complex density of the given rank."""
    frame = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    return frame, weights


def _complex_densities(draws: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Stack of (Q w) Q^dag, Q the orthonormal QR factor of each frame draw.

    Draws of one rank share one stacked QR, which gives each slice the
    factor a QR of that frame alone gives.
    """
    n = draws[0][0].shape[0]
    out = np.empty((len(draws), n, n), dtype=np.complex128)
    ranks = [frame.shape[1] for frame, _ in draws]
    for rank in set(ranks):
        index = [i for i, r in enumerate(ranks) if r == rank]
        frames = np.linalg.qr(np.stack([draws[i][0] for i in index]))[0]
        weights = np.stack([draws[i][1] for i in index])[:, None, :]
        out[index] = (frames * weights) @ frames.conj().swapaxes(-1, -2)
    return out


def _draw_trial(seed: int, trial: int, n: int) -> tuple:
    """Every random draw of one audit trial, from its own stream, in order.

    Returns the state (a QMatrix) and the spectral data of the source,
    rank-two and (for n >= 3) rank-three complex densities, none of
    them gated yet.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    state = _random_density_matrix(n, _AUDIT_KINDS[trial % len(_AUDIT_KINDS)], rng)
    source = _draw_spectral_data(rng, n, rng.integers(2, n + 1))
    two = _draw_spectral_data(rng, n, 2)
    three = _draw_spectral_data(rng, n, 3) if n >= 3 else None
    return state, source, two, three


def _stacked(pairs) -> QMatrix:
    """One stack of (alpha, beta) block pairs, of which there is at least one."""
    return QMatrix(*map(np.stack, zip(*pairs)))


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
        ok = ~(v["round_trip"] > 1e-12) & (v["rank"] == v["target"])
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
    the offending trial seed.

    Trial ``t`` has dimension ``2 + t % (n_max - 1)`` and draws from
    ``SeedSequence(entropy=seed, spawn_key=(t,))``.  The batched pass,
    :func:`_audit_dimension`, proves success and tallies; at a failure
    it just raises, and the replay runs trials 0, 1, 2, ... alone
    (:func:`_check_trial`) until one raises what a trial-by-trial audit
    raises.  If none does (rounding broke a stack, not a matrix), the
    batched pass's error is raised.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    worst = dict.fromkeys(_DETAILS, 0.0)
    try:
        for n in range(2, min(n_max, trials + 1) + 1):  # the dimensions with trials
            _audit_dimension(n, range(n - 2, trials, n_max - 1), seed, worst)
    except (QmixError, RuntimeError):
        for trial in range(trials):
            _check_trial(seed, trial, n_max)
        raise
    rows = tuple(PropositionRow(name, trials, 0, residual) for name, residual in worst.items())
    return PropositionSummary(rows=rows, trials=trials, n_max=n_max, seed=seed)


def _audit_dimension(n: int, trials: range, seed: int, worst: dict) -> None:
    """The batched pass of :func:`check_propositions` for the trials of dimension n.

    Gates states, projections, lifts and purifications as stacks,
    raises at the first failure it meets, and keeps each check's worst
    residual in ``worst``.
    """

    def tally(name: str, trial_ids, **measured) -> None:
        residual = _judge(name, trial_ids, **measured)
        worst[name] = max(worst[name], float(np.max(residual, initial=0.0)))

    draws = [_draw_trial(seed, trial, n) for trial in trials]
    states = _stacked((d[0].alpha, d[0].beta) for d in draws)
    state_eigs = _density_gate(states, VALIDATION_TOL)
    projected = states.alpha
    projected_eigs = _density_gate(projected, VALIDATION_TOL)
    tally("projection_is_density", trials, **_projection_measures(projected, projected_eigs))
    # Ranks come from the spectra the density gate returned: no SVD.
    m, rank_alpha = numerical_rank(state_eigs), numerical_rank(projected_eigs)
    tally("projection_rank_bounds", trials, m=m, rank_alpha=rank_alpha)

    sources = _complex_densities([d[1] for d in draws])
    source_eigs = _density_gate(sources, VALIDATION_TOL)
    # Lifts are built per source and target (the range and Gram tests of
    # lift), then gated as one stack.
    blocks, owner, targets = [], [], []
    for i, (mat, eigs) in enumerate(zip(sources, source_eigs)):
        source = CDensity(mat=mat, eigenvalues=eigs)
        for target in range((source.rank + 1) // 2, source.rank + 1):
            blocks.append(_lift_blocks(source, target))
            owner.append(i)
            targets.append(target)
    lifts = _stacked(blocks)
    lift_eigs = _density_gate(lifts, VALIDATION_TOL)
    round_trip = np.abs(lifts.alpha - sources[owner]).max((-2, -1))
    rank = numerical_rank(lift_eigs)
    lift_trials = [trials[i] for i in owner]
    tally("lift_round_trip", lift_trials, round_trip=round_trip, rank=rank, target=targets)

    # The idempotency norm is taken slice by slice, so it sums in the
    # order of the single-matrix one.
    twos = _complex_densities([d[2] for d in draws])
    two_eigs = _density_gate(twos, VALIDATION_TOL)
    pures = _stacked(_purify_blocks(CDensity(mat, eigs)) for mat, eigs in zip(twos, two_eigs))
    pure_eigs = _density_gate(pures, VALIDATION_TOL)
    square = pures @ pures - pures
    idem = np.array([frobenius_norm(square[i]) for i in range(len(trials))])
    refusal_ok = np.ones(len(trials), dtype=bool)
    if n >= 3:
        threes = _complex_densities([d[3] for d in draws])
        # purify refuses exactly the ranks above two, and the gate's trace
        # test makes every rank at least one: a rank of two or less fails,
        # and the replay names the failure through purify itself.
        refusal_ok = numerical_rank(_density_gate(threes, VALIDATION_TOL)) > 2
    rank_ok = numerical_rank(pure_eigs) == 1
    tally("purify_rank_two", trials, rank_ok=rank_ok, idem=idem, refusal_ok=refusal_ok)


def _check_trial(seed: int, trial: int, n_max: int) -> None:
    """Trial ``trial`` of :func:`check_propositions` alone, check by check.

    Raises what the trial raises at its first failing check, in the
    order of a trial-by-trial audit; returns None if it passes.  A
    ``RuntimeError`` from the state draw passes through unwrapped.
    """
    n = 2 + trial % (n_max - 1)
    state, source, two, three = _draw_trial(seed, trial, n)
    try:
        rho = validate(state)
    except QmixError as exc:
        raise PropositionViolated(
            "projection_is_density", trial, f"state generation failed: {exc}"
        ) from exc
    projected = complex_projection(rho)
    measures = _projection_measures(projected.mat, projected.eigenvalues)
    _judge("projection_is_density", [trial], **measures)
    _judge("projection_rank_bounds", [trial], m=rho.rank, rank_alpha=projected.rank)

    source = CDensity.from_matrix(_complex_densities([source])[0])
    for target in range((source.rank + 1) // 2, source.rank + 1):
        lifted = lift(source, target)
        round_trip = np.abs(lifted.alpha - source.mat).max()
        _judge("lift_round_trip", [trial], round_trip=round_trip, rank=lifted.rank, target=target)

    pure = purify(CDensity.from_matrix(_complex_densities([two])[0]))
    idem = frobenius_norm(pure.mat @ pure.mat - pure.mat)
    refusal_ok = True
    if three is not None:
        three = CDensity.from_matrix(_complex_densities([three])[0])
        try:
            purify(three)
            refusal_ok = False
        except NotPurifiable:
            pass
    _judge("purify_rank_two", [trial], rank_ok=pure.rank == 1, idem=idem, refusal_ok=refusal_ok)
