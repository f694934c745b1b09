"""Quaternionic unitary dynamics and its complex projection.

States evolve by conjugation, rho(t) = U(t) rho(0) U(t)^dag, under a
constant anti-hermitian quaternionic generator H, with propagator
U(t) = exp(-tH); the equivalent differential form is
d rho/dt = -[H, rho(t)].  Generators absorb the imaginary unit: there
is no preferred global i to factor out of a quaternionic H.

The complex projection of the evolved state has the closed form

    rho_a(t) = U_a rho_a U_a^dag + conj(U_b) conj(rho_a) U_b^T
             + U_a conj(rho_b) U_b^T - conj(U_b) rho_b U_a^dag

with rate  d rho_a/dt = -[H_a, rho_a] + conj(H_b) rho_b - conj(rho_b) H_b.
When U is purely complex both partitions by the projection survive:
beta evolves as conj(U_a) rho_b U_a^dag, so beta = 0 is preserved and
||beta||_F is invariant.  A genuinely quaternionic U generically leaks
a proper state into the improper class; ``partition_witness`` exhibits
such a leak.

Both solvers run on complex-adjoint images: chi is a linear algebra
homomorphism (F. Zhang, LAA 251, 1997), so the propagator is one
exponential of chi(H) (``expm_q``), and the RK4 solver applies one
step polynomial, built once from powers of h chi(H), to raw 2n x 2n
arrays, read back once with a chi-membership check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import CDensity, MixtureKind, QDensity, _ginibre, random_density, validate
from .errors import DimensionMismatch, DriftExceeded, NotUnitary, QmixError, WitnessNotFound
from .qmatrix import (
    UNITARY_TOL,
    QMatrix,
    check_int,
    check_real,
    check_slices,
    chi,
    chi_inverse,
    expm_q,
    frobenius_norm,
    max_abs,
    require_anti_hermitian,
    slice_norms,
)

#: Cap on the per-step hermiticity/trace correction in ``integrate``.
DRIFT_TOL = 1e-6
#: Evolution time of each candidate in ``partition_witness``.
WITNESS_TIME = 1.0
#: ||beta||_F a ``partition_witness`` leak must exceed.
WITNESS_LEAK_THRESHOLD = 1e-6
#: Candidates ``partition_witness`` draws before it gives up.
WITNESS_MAX_ATTEMPTS = 100


@dataclass(frozen=True, eq=False)
class Generator:
    """Constant anti-hermitian generator H.

    Anti-hermiticity (alpha block anti-hermitian, beta block symmetric)
    is enforced at construction, at ``VALIDATION_TOL``; a non-finite
    entry fails it.
    """

    h: QMatrix

    def __post_init__(self):
        if not self.h.is_square:
            raise DimensionMismatch(f"generator must be square, got {self.h.shape}")
        require_anti_hermitian(self.h, "generator")

    @property
    def dim(self) -> int:
        return self.h.rows


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary propagator; unitarity checked at construction (NaN fails)."""

    u: QMatrix

    def __post_init__(self):
        if not self.u.is_square:
            raise DimensionMismatch(f"propagator must be square, got {self.u.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the check
            dev = max_abs(self.u.h @ self.u - QMatrix.identity(self.u.rows))
        check_slices(
            dev, UNITARY_TOL, NotUnitary,
            lambda i: f"U^dag U deviates from identity by {dev:.3e}, beyond {UNITARY_TOL:.3e}",
        )

    @property
    def dim(self) -> int:
        return self.u.rows


def evolve(rho: QDensity, prop: Propagator) -> QDensity:
    """Conjugate a density by a unitary: rho -> U rho U^dag."""
    if prop.dim != rho.dim:
        raise DimensionMismatch(
            f"propagator dimension {prop.dim} != state dimension {rho.dim}"
        )
    return validate(prop.u @ rho.mat @ prop.u.h)


def projected_evolution(rho0: QDensity, prop: Propagator) -> CDensity:
    """Complex projection of the evolved state, by the closed formula.

    Computes the four-term expression for rho_alpha(t) directly from the
    blocks of U and rho(0); it must agree with projecting after evolving,
    which the tests enforce as a path-equivalence check.
    """
    if prop.dim != rho0.dim:
        raise DimensionMismatch(
            f"propagator dimension {prop.dim} != state dimension {rho0.dim}"
        )
    ua, ub = prop.u.alpha, prop.u.beta
    ra, rb = rho0.alpha, rho0.beta
    out = ua @ ra @ ua.conj().T
    out += ub.conj() @ ra.conj() @ ub.T
    out += ua @ rb.conj() @ ub.T
    out -= ub.conj() @ rb @ ua.conj().T
    return CDensity.from_matrix(out)


def time_ordered(gen: Generator, t: float) -> Propagator:
    """Propagator U(t) = exp(-tH) of the constant generator H.

    The time-ordered exponential of a constant generator is a single
    matrix exponential (:func:`expm_q`) of the anti-hermitian part of
    -tH, (H - H^dag)(-t/2).  That exponent is exactly anti-hermitian at
    every finite t, whereas -tH would scale the up to ``VALIDATION_TOL``
    deviation that :class:`Generator` admits past the gate of
    :func:`expm_q`; for an exactly anti-hermitian H the two agree bit
    for bit.  ``t`` goes through :func:`check_real` (ValueError unless a
    real number, :class:`QmixError` unless finite); a ``t`` that
    overflows the exponent raises :class:`QmixError`.
    """
    check_real("evolution time t", t)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        exponent = (gen.h - gen.h.h) * (-t / 2)
    if not (np.isfinite(exponent.alpha).all() and np.isfinite(exponent.beta).all()):
        raise QmixError(f"exponent -t * H overflows at evolution time t = {t!r}")
    return Propagator(u=expm_q(exponent))


def integrate(rho0: QDensity, gen: Generator, t: float, steps: int) -> QDensity:
    """Integrate d rho/dt = -[H, rho] with classic fourth-order steps.

    With K = (t / steps) chi(H), one RK4 step of the linear rate
    L(X) = XK - KX is the fixed polynomial sum_{k<=4} L^k(X) / k!.
    Left and right multiplication commute, so it equals
    sum_{l<=4} A_l X B_l with A_l = (-K)^l / l! and
    B_l = sum_{j<=4-l} K^j / j!, built once from the powers of K.  As
    A_0 = B_4 = I, each step on X = chi(rho) is two matrix products:
    Y = [A_1; ..; A_4] X, then [X, Y_1, Y_2, Y_3] [B_0; ..; B_3] + Y_4.

    After every step the iterate is re-hermitized ((rho + rho^dag)/2)
    and trace-renormalized; the applied correction (quaternionic
    Frobenius norm, which is ||chi||_F / sqrt(2), and trace offset,
    Re Tr chi / 2 - 1) is measured and :class:`DriftExceeded` raised if
    it ever passes ``DRIFT_TOL``.  Silent drift is never allowed to
    accumulate.  ``t`` goes through :func:`check_real` (ValueError unless
    a real number, :class:`QmixError` unless finite); a ``t`` whose step
    polynomial overflows raises :class:`QmixError`.
    """
    if gen.dim != rho0.dim:
        raise DimensionMismatch(
            f"generator dimension {gen.dim} != state dimension {rho0.dim}"
        )
    check_int("steps", steps, 1)
    check_real("evolution time t", t)
    current = chi(rho0.mat)
    m = len(current)
    # A step polynomial that overflows raises below, and an iterate that
    # does fails the drift gate, so numpy's overflow and invalid-value
    # warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        k = chi(gen.h) * (t / steps)
        terms = [np.eye(m), k]  # K^j / j!
        for j in (2, 3, 4):
            terms.append(terms[-1] @ k / j)
        terms = np.stack(terms)
        left = (terms[1:] * [[[-1.0]], [[1.0]], [[-1.0]], [[1.0]]]).reshape(4 * m, m)  # A_1..A_4
        right = np.cumsum(terms, axis=0)[:0:-1].reshape(4 * m, m)  # B_0..B_3
        if not (np.isfinite(left).all() and np.isfinite(right).all()):
            raise QmixError(
                f"step polynomial of (t / steps) * H overflows at evolution time "
                f"t = {t!r} with {steps} steps"
            )
        for step in range(steps):
            y = left @ current
            stages = np.concatenate((current, y[:m], y[m : 2 * m], y[2 * m : 3 * m]), axis=1)
            raw = stages @ right + y[3 * m :]
            hermitized = (raw + raw.conj().T) * 0.5
            herm_correction = float(np.linalg.norm(raw - hermitized)) / 1.4142135623730951  # sqrt 2
            trace = float(np.trace(hermitized).real) / 2.0
            correction = max(herm_correction, abs(trace - 1.0))
            check_slices(
                correction, DRIFT_TOL, DriftExceeded,
                lambda i: f"correction {correction:.3e} at step {step} exceeds {DRIFT_TOL:.0e}",
            )
            current = hermitized / trace
    return validate(chi_inverse(current))


def projected_rate_check(rho: QDensity, gen: Generator, h: float = 1e-4) -> float:
    """Residual between the finite-difference projected rate and its formula.

    Evolves by exp(-hH) forward and exp(hH) backward, takes the central
    difference of the projection at t = 0, and compares with
    -[H_a, rho_a] + conj(H_b) rho_b - conj(rho_b) H_b.  The residual
    shrinks as O(h^2).  ``h`` goes through :func:`check_real` (ValueError
    unless a real number, :class:`QmixError` unless finite), and a zero
    step is a ValueError.
    """
    check_real("finite-difference step h", h)
    if h == 0:
        raise ValueError(f"finite-difference step h must be nonzero, got {h!r}")
    plus = evolve(rho, time_ordered(gen, h))
    minus = evolve(rho, time_ordered(gen, -h))
    fd = (plus.alpha - minus.alpha) / (2.0 * h)
    ha, hb = gen.h.alpha, gen.h.beta
    ra, rb = rho.alpha, rho.beta
    rhs = -(ha @ ra - ra @ ha) + hb.conj() @ rb - rb.conj() @ hb
    return float(slice_norms(fd - rhs))


def random_generator(n: int, rng: np.random.Generator, quaternionic: bool = True) -> Generator:
    """Random constant generator (G - G^dag) / 2 of unit Frobenius norm.

    G is a quaternionic Ginibre draw, alpha block first; its beta block is
    zero, not drawn, when ``quaternionic`` is False.  An n that is not an
    integer >= 1 is a :class:`DimensionMismatch`, and an ``rng`` that is not
    an ``np.random.Generator`` a ValueError.
    """
    check_int("generator dimension", n, 1, DimensionMismatch)
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be an np.random.Generator, got {rng!r}")
    g = _ginibre(rng.standard_normal((4 if quaternionic else 2, n, n)))
    g = QMatrix(g[0], g[1] if quaternionic else np.zeros_like(g[0]))
    ham = (g - g.h) * 0.5
    scale = frobenius_norm(ham)
    if scale > 0:
        ham = ham * (1.0 / scale)
    return Generator(ham)


def partition_witness(n: int, seed: int) -> tuple[Generator, QDensity, float]:
    """Find a proper state that a quaternionic dynamics makes improper.

    Draws random (generator, proper state) pairs from seeds derived from
    ``seed`` and returns the first whose evolution over ``WITNESS_TIME``
    leaks beta norm above ``WITNESS_LEAK_THRESHOLD``.  Such witnesses are
    generic, so exhausting ``WITNESS_MAX_ATTEMPTS`` draws raises
    :class:`WitnessNotFound`.  ``n`` is an integer >= 2 (else a
    :class:`DimensionMismatch`) and ``seed`` an integer >= 0 (else a ValueError).
    """
    check_int("partition witness dimension", n, 2, DimensionMismatch)
    check_int("seed", seed, 0)
    for attempt in range(WITNESS_MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        gen = random_generator(n, rng, quaternionic=True)
        rho = random_density(n, MixtureKind.PROPER, rng)
        leak = evolve(rho, time_ordered(gen, WITNESS_TIME)).beta_norm
        if leak > WITNESS_LEAK_THRESHOLD:
            return gen, rho, leak
    raise WitnessNotFound(
        f"no leak above {WITNESS_LEAK_THRESHOLD:.0e} in {WITNESS_MAX_ATTEMPTS} attempts "
        f"(n={n}, seed={seed})"
    )
