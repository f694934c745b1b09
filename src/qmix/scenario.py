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

from bisect import bisect_left
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
    _density_gate,
    _lift_blocks,
    _purify_blocks,
    _random_density_matrix,
    purify,
    validate,
)
from .errors import (
    NotNormalized,
    NotPurifiable,
    PropositionViolated,
    QmixError,
)
from .qmatrix import VALIDATION_TOL, QMatrix, frobenius_norm, numerical_rank

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
_AUDIT_CHECKS = (
    "projection_is_density",
    "projection_rank_bounds",
    "lift_round_trip",
    "purify_rank_two",
)


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


def _gate_prefix(
    mats: QMatrix | np.ndarray, count: int
) -> tuple[int, np.ndarray, QmixError | None]:
    """Gate ``mats[:count]`` as one stack, down to its lowest failing slice.

    Returns the number of slices before the lowest failing one (``count``
    when none fails), their spectra, and the error that slice raises when
    gated alone (None when none fails).  A stacked gate stops at the
    first invariant that breaks anywhere, so after a failure the slices
    before the failing one are gated again.
    """
    error = None
    while True:
        try:
            return count, _density_gate(mats[:count], VALIDATION_TOL), error
        except QmixError as exc:
            count = exc.index[0]
            error = exc
        try:
            _density_gate(mats[count], VALIDATION_TOL)
        except QmixError as alone:
            error = alone


def _stacked(blocks: list[tuple[np.ndarray, np.ndarray]], n: int) -> QMatrix:
    """One (len(blocks), n, n) stack of (alpha, beta) blocks; empty is fine."""
    return QMatrix(
        np.reshape([a for a, _ in blocks], (-1, n, n)),
        np.reshape([b for _, b in blocks], (-1, n, n)),
    )


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

    Trial ``t`` has dimension ``2 + t % (n_max - 1)`` and draws from
    ``SeedSequence(entropy=seed, spawn_key=(t,))``.  The trials of one
    dimension run together: their states, projections and complex
    densities are gated as stacks, and the projection and rank checks
    are vectorized.  Lifts and purifications are built per trial and
    target (the range and Gram tests of :func:`lift`), then every lift
    of the dimension is gated as one stack, and so is every
    purification; round trips, ranks and idempotency are read off the
    stacks.  The result is that of running the trials one by one with
    :func:`lift` and :func:`purify`: the tallies are the same, and a
    failure raises what the lowest failing trial raises at its first
    failing check.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    tallies = {name: [0, 0.0] for name in _AUDIT_CHECKS}
    failure: list = []  # [trial, error] of the lowest failing trial so far
    for n in range(2, n_max + 1):
        _audit_dimension(n, range(n - 2, trials, n_max - 1), seed, corrupt, tallies, failure)
    if failure:
        raise failure[1]
    rows = tuple(
        PropositionRow(name, attempts, 0, worst) for name, (attempts, worst) in tallies.items()
    )
    return PropositionSummary(rows=rows, trials=trials, n_max=n_max, seed=seed)


def _audit_dimension(
    n: int, trials: range, seed: int, corrupt: bool, tallies: dict, failure: list
) -> None:
    """The audit stages of :func:`check_propositions` for the trials of dimension n.

    ``count`` is the number of leading trials still running.  Each stage
    runs on the trials below the lowest failure found so far; a trial
    that fails at position i stores its error in ``failure`` and cuts
    ``count`` to i.
    """

    def fail(i: int, error: Exception) -> int:
        failure[:] = [trials[i], error]
        return int(i)

    def gate(mats, count: int, wrap=lambda trial, error: error):
        count, eigs, error = _gate_prefix(mats, count)
        if error is not None:
            fail(count, wrap(trials[count], error))
        return count, eigs

    def generation_failed(trial: int, error: QmixError) -> PropositionViolated:
        violation = PropositionViolated(
            "projection_is_density", trial, f"state generation failed: {error}"
        )
        violation.__cause__ = error
        return violation

    def tally(name: str, count: int, residual: np.ndarray) -> None:
        entry = tallies[name]
        entry[0] += count
        entry[1] = max(entry[1], float(np.max(residual, initial=0.0)))

    def record(name: str, count: int, ok: np.ndarray, residual: np.ndarray, detail) -> int:
        bad = np.flatnonzero(~ok[:count])
        if bad.size:
            i = int(bad[0])
            count = fail(i, PropositionViolated(name, trials[i], detail(i)))
        tally(name, count, residual[:count])
        return count

    count = len(trials) if not failure else bisect_left(trials, failure[0])
    draws = []
    for i in range(count):
        try:
            draws.append(_draw_trial(seed, trials[i], n))
        except RuntimeError as exc:  # random_density's retries ran out
            count = fail(i, exc)
            break
    if not count:
        return
    states = QMatrix(np.stack([d[0].alpha for d in draws]), np.stack([d[0].beta for d in draws]))
    count, state_eigs = gate(states, count, generation_failed)
    if corrupt:
        beta = (states.beta + states.beta.swapaxes(-1, -2)) / 2 + 0.1 * np.eye(n)
        states = QMatrix(states.alpha, beta)
        count, state_eigs = gate(states, count, generation_failed)

    projected = states.alpha
    count, projected_eigs = gate(projected, count)
    herm = np.abs(projected[:count] - projected[:count].conj().swapaxes(-1, -2)).max((-2, -1))
    negativity = np.maximum(0.0, -projected_eigs[:count].min(-1))
    trace_dev = np.abs(np.trace(projected[:count], axis1=-2, axis2=-1).real - 1.0)
    count = record(
        "projection_is_density",
        count,
        (herm <= 1e-10) & (negativity <= 1e-10) & (trace_dev <= 1e-12),
        np.maximum(np.maximum(herm, negativity), trace_dev),
        lambda i: f"projection invalid: herm={herm[i]:.3e} neg={negativity[i]:.3e} "
        f"trace={trace_dev[i]:.3e}",
    )

    # Ranks come from the spectra the density gate returned: no SVD.
    m = numerical_rank(state_eigs[:count])
    rank_alpha = numerical_rank(projected_eigs[:count])
    count = record(
        "projection_rank_bounds",
        count,
        (m <= rank_alpha) & (rank_alpha <= 2 * m),
        np.zeros(count),
        lambda i: f"rank bounds broken: m={m[i]}, rank_alpha={rank_alpha[i]}",
    )

    # Every admissible lift of every source is built (range and Gram
    # tests) trial by trial, target by target, and the lifts are gated as
    # one stack.  A trial fails at its first failing target, where the
    # build, the gate and the round trip fail in that order; ``stop``
    # holds the earliest failure found.
    sources = _complex_densities([d[1] for d in draws])
    count, source_eigs = gate(sources, count)
    blocks, owner, targets, stop = [], [], [], None
    for i in range(count):
        source = CDensity(mat=sources[i], eigenvalues=source_eigs[i])
        try:
            for target in range((source.rank + 1) // 2, source.rank + 1):
                blocks.append(_lift_blocks(source, target))
                owner.append(i)
                targets.append(target)
        except QmixError as exc:
            stop = (i, exc)
            break
    lifts = _stacked(blocks, n)
    gated, lift_eigs, error = _gate_prefix(lifts, len(blocks))
    if error is not None:
        stop = (owner[gated], error)
    owner, targets = np.array(owner[:gated], dtype=int), np.array(targets[:gated], dtype=int)
    round_trips = np.abs(lifts.alpha[:gated] - sources[owner]).max((-2, -1), initial=0.0)
    got = numerical_rank(lift_eigs)
    bad = np.flatnonzero((round_trips > 1e-12) | (got != targets))
    if bad.size:
        p = bad[0]
        stop = (owner[p], PropositionViolated(
            "lift_round_trip",
            trials[owner[p]],
            f"target {targets[p]}: round_trip={round_trips[p]:.3e}, rank={got[p]}",
        ))
    if stop is not None:
        count = fail(*stop)
    tally("lift_round_trip", count, round_trips[owner < count])

    # Purification: built per trial, gated as one stack; the rank-one and
    # idempotency checks read the stack.  The idempotency norm is taken
    # slice by slice, so it sums in the order of the single-matrix one.
    twos = _complex_densities([d[2] for d in draws])
    count, two_eigs = gate(twos, count)
    blocks = []
    for i in range(count):
        try:
            blocks.append(_purify_blocks(CDensity(mat=twos[i], eigenvalues=two_eigs[i])))
        except QmixError as exc:
            count = fail(i, exc)
            break
    pures = _stacked(blocks, n)
    count, pure_eigs = gate(pures, count)
    pures = pures[:count]
    square = pures @ pures - pures
    idem = np.array([frobenius_norm(square[i]) for i in range(count)])
    rank_ok = numerical_rank(pure_eigs) == 1
    refusal_ok = np.ones(count, dtype=bool)
    if n >= 3:
        threes = _complex_densities([d[3] for d in draws])
        count, three_eigs = gate(threes, count)
        # purify refuses a rank above two before any other work; a lower
        # rank takes the whole call, so its error or success is purify's.
        for i in np.flatnonzero(numerical_rank(three_eigs) <= 2):
            try:
                purify(CDensity(mat=threes[i], eigenvalues=three_eigs[i]))
            except NotPurifiable:
                continue
            except QmixError as exc:
                count = fail(i, exc)
                break
            refusal_ok[i] = False
    record(
        "purify_rank_two",
        count,
        rank_ok[:count] & (idem[:count] <= PURITY_TOL) & refusal_ok[:count],
        idem,
        lambda i: f"purify failed: rank_ok={bool(rank_ok[i])} idem={idem[i]:.3e} "
        f"refusal_ok={bool(refusal_ok[i])}",
    )
