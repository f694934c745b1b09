"""Shared test helpers and independent oracles.

The oracles here deliberately avoid the code paths they check: the
quaternion product oracle works on four real components with the
textbook multiplication table, and the matrix product oracle multiplies
complex-adjoint images and reads the blocks back out by slicing.
"""

import numpy as np

from qmix import MixtureKind, QMatrix
from qmix.bipartite import (
    ProjectorFamily,
    lueders_nonselective,
    measurement_interaction,
    partial_trace,
)
from qmix.density import (
    CDensity,
    QDensity,
    Observable,
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
from qmix.dynamics import DRIFT_TOL, Generator
from qmix.errors import (
    DimensionMismatch,
    DriftExceeded,
    NotPurifiable,
    PropositionViolated,
    QmixError,
)
from qmix.qmatrix import (
    check_int,
    check_real,
    check_slices,
    check_square,
    chi,
    chi_inverse,
    frobenius_norm,
    real_trace,
)
from qmix.scenario import (
    _AUDIT_KINDS,
    COMPLEX_AGREEMENT_TOL,
    DISCRIMINATOR_TOL,
    DISCRIMINATOR_ZERO_TOL,
    MIXTURE_MATCH_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PURITY_TOL,
    CheckResult,
    DiscriminatorResult,
    ExpectationRow,
    PropositionRow,
    PropositionSummary,
    ScenarioReport,
    direction_basis,
    spin_along,
)


def hamilton_mul(q, p):
    """Textbook four-real-component quaternion product."""
    a1, b1, c1, d1 = q
    a2, b2, c2, d2 = p
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def chi_blocks(a, b):
    """Complex-adjoint image assembled by hand."""
    return np.block([[a, -b.conj()], [b, a.conj()]])


def chi_oracle_matmul(x: QMatrix, y: QMatrix) -> QMatrix:
    """Multiply in the complex-adjoint picture, slice the blocks back."""
    prod = chi_blocks(x.alpha, x.beta) @ chi_blocks(y.alpha, y.beta)
    n = x.rows
    m = y.cols
    return QMatrix(prod[:n, :m], prod[n:, :m])


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_qmatrix(rng, rows, cols=None) -> QMatrix:
    cols = rows if cols is None else cols
    return QMatrix(random_complex(rng, rows, cols), random_complex(rng, rows, cols))


def random_hermitian_qmatrix(rng, n) -> QMatrix:
    a = random_complex(rng, n)
    b = random_complex(rng, n)
    return QMatrix((a + a.conj().T) / 2, (b - b.T) / 2)


def random_anti_hermitian_qmatrix(rng, n) -> QMatrix:
    a = random_complex(rng, n)
    b = random_complex(rng, n)
    return QMatrix((a - a.conj().T) / 2, (b + b.T) / 2)


def random_complex_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def qclose(x: QMatrix, y: QMatrix, tol=1e-12) -> bool:
    return (
        np.abs(x.alpha - y.alpha).max() <= tol
        and np.abs(x.beta - y.beta).max() <= tol
    )


#: (block, position, value) cases for the non-finite input regressions.
NON_FINITE_CASES = [
    (block, position, value)
    for block in ("alpha", "beta")
    for position in ("diagonal", "off-diagonal")
    for value in (float("nan"), float("inf"))
]


def with_non_finite(m: QMatrix, block: str, position: str, value: float) -> QMatrix:
    """Copy of ``m`` with ``value`` in one block, at (0, 0) or mirrored.

    Off the diagonal the value goes to (0, 1) and, with the sign that
    keeps the block hermitian (alpha) or skew (beta), to (1, 0), so the
    input looks like a density matrix to a NaN-blind comparison.
    """
    blocks = {"alpha": m.alpha.copy(), "beta": m.beta.copy()}
    target = blocks[block]
    if position == "diagonal":
        target[0, 0] = value
    else:
        target[0, 1] = value
        target[1, 0] = value if block == "alpha" else -value
    return QMatrix(blocks["alpha"], blocks["beta"])


def assert_names_value_and_tolerance(error: Exception, tol: float) -> None:
    """The message carries the non-finite measurement and the tolerance."""
    words = str(error).replace(",", " ").split()
    assert "nan" in words or "inf" in words, str(error)
    assert f"{tol:.3e}" in str(error), str(error)


# -- the sequential audit, the reference for the batched one ----------------

def _random_complex_density_of_rank(
    rng: np.random.Generator, n: int, rank: int
) -> CDensity:
    frame = np.linalg.qr(rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank)))[0]
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    mat = (frame * weights) @ frame.conj().T
    return CDensity.from_matrix(mat)


def reference_trial_draw(seed: int, trial: int, n: int) -> tuple[QMatrix, list]:
    """One audit trial's draws as first written, one trial and one part at a time.

    Returns the state (g g^dag / Re Tr over a complex n x n g, or a
    quaternionic n x n or n x 1 one, by the trial's kind) and the matrices
    of the lift source, the rank-two density and, for n >= 3, the
    rank-three density.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
    kind = _AUDIT_KINDS[trial % len(_AUDIT_KINDS)]
    if kind is MixtureKind.PROPER:
        g = random_complex(rng, n)
        mat = g @ g.conj().T
        state = QMatrix.from_complex(mat / np.trace(mat).real)
    else:
        g = random_qmatrix(rng, n, n if kind is MixtureKind.IMPROPER else 1)
        mat = g @ g.h
        state = mat / real_trace(mat)
    ranks = [rng.integers(2, n + 1), 2, 3][: 3 if n >= 3 else 2]
    return state, [_random_complex_density_of_rank(rng, n, rank).mat for rank in ranks]


def reference_check_propositions(
    n_max: int, trials: int, seed: int, corrupt: bool = False
) -> PropositionSummary:
    """The audit run one trial at a time, the reference for ``check_propositions``.

    Runs ``trials`` seeded rounds over dimensions 2..n_max and tallies:

    * projection_is_density - the complex projection of every generated
      density is hermitian, positive and unit trace;
    * projection_rank_bounds - m <= rank of projection <= 2m;
    * lift_round_trip - every admissible lift target succeeds, projects
      back entrywise, and lands on the requested rank;
    * purify_rank_two - rank-two projections purify to quaternionic
      rank one (idempotent), rank-three ones are refused.

    Any failure raises :class:`PropositionViolated` naming the check and
    the failing trial's index.  ``corrupt=True`` deliberately breaks the
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

    def record(name: str, ok: bool, residual: float, trial: int, detail: str):
        entry = tallies[name]
        entry[0] += 1
        entry[2] = max(entry[2], residual)
        if not ok:
            entry[1] += 1
            raise PropositionViolated(name, trial, detail)

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


# -- the straight-line scenario, the reference for the stacked one ----------

def reference_run_scenario(
    c_plus: complex, c_minus: complex, n_hat: tuple[float, float] = (0.0, 0.0)
) -> ScenarioReport:
    """The measurement scenario as first written, the reference for ``run_scenario``.

    Every matrix goes through the public functions one at a time: each
    density through its own gate (``partial_trace``, ``CDensity.from_matrix``,
    ``lueders_nonselective``, ``embed_proper``, ``validate``,
    ``complex_projection``), each observable through
    ``Observable.from_complex`` and each value through ``expectation``.
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


# -- integrate written out plainly, the reference for its bits ---------------

def reference_integrate(rho0: QDensity, gen: Generator, t: float, steps: int) -> QDensity:
    """``integrate`` as first written, one fresh array per operation.

    The closed form V (G**steps o V^dag X V) V^dag, with (w, V) from
    ``np.linalg.eigh`` of -i times the anti-hermitian part of chi(H), G_ij
    = R(i h (w_j - w_i)) and |G|**steps from |R(iy)|**2 - 1 =
    y**6 (y**2 - 8) / 576: the same operations in the same order, the same
    overflow refusal and the same two drift gates and messages, so the two
    agree bit for bit, errors included.  The stage-by-stage loop of
    ``test_dynamics`` is the independent check of the method itself.
    """
    check_square("generator", gen.h.shape, rho0.dim)
    check_int("steps", steps, 1)
    check_real("evolution time t", t)
    h = t / steps
    k = chi(gen.h)
    w, v = np.linalg.eigh(-1j * (k * 0.5 - k.conj().T * 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        y = h * (w[None, :] - w[:, None])
        re = 1.0 - y * y * (0.5 - y * y / 24.0)
        im = y * (1.0 - y * y / 6.0)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise QmixError(
                f"step polynomial of (t / steps) * H overflows at evolution time "
                f"t = {t!r} with {steps} steps"
            )
        moduli = np.exp(steps / 2 * np.log1p((y * y) ** 3 * (y * y - 8.0) / 576.0))
    growth = moduli.max()
    gap = w[-1] - w[0]
    check_slices(
        growth, 1 + DRIFT_TOL, DriftExceeded,
        lambda i: f"rk4 growth factor {growth:.3e} after {steps} steps of h = {h!r} exceeds "
        f"1 + {DRIFT_TOL:.0e}: |h| times the widest spectral gap {gap:.3e} is "
        f"{abs(h) * gap:.3e}, past the stability bound 2 sqrt 2",
    )
    phases = np.exp(1j * (steps * np.arctan2(im, re)))
    z = v.conj().T @ chi(rho0.mat) @ v
    out = v @ ((moduli * phases) * z) @ v.conj().T
    hermitized = (out + out.conj().T) * 0.5
    trace = float(np.trace(hermitized).real) / 2.0
    skew = float(np.linalg.norm(out - hermitized)) / 1.4142135623730951
    correction = max(skew, abs(trace - 1.0))
    check_slices(
        correction, DRIFT_TOL, DriftExceeded,
        lambda i: f"rk4 correction {correction:.3e} after {steps} steps of h = {h!r} "
        f"exceeds {DRIFT_TOL:.0e}",
    )
    try:
        return validate(chi_inverse(hermitized / trace))
    except QmixError as exc:
        raise type(exc)(f"rk4 result after {steps} steps of h = {h!r}: {exc}") from exc
