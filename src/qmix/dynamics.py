"""Quaternionic unitary dynamics and its complex projection.

States evolve by conjugation, rho(t) = U(t) rho(0) U(t)^dag, with the
propagator generated by an anti-hermitian quaternionic H(t) through
U(t) = T exp(-int_0^t H(u) du); the equivalent differential form is
d rho/dt = -[H(t), rho(t)].  Generators absorb the imaginary unit:
there is no preferred global i to factor out of a quaternionic H.

The complex projection of the evolved state has the closed form

    rho_a(t) = U_a rho_a U_a^dag + conj(U_b) conj(rho_a) U_b^T
             + U_a conj(rho_b) U_b^T - conj(U_b) rho_b U_a^dag

with rate  d rho_a/dt = -[H_a, rho_a] + conj(H_b) rho_b - conj(rho_b) H_b.
When U is purely complex both partitions by the projection survive:
beta evolves as conj(U_a) rho_b U_a^dag, so beta = 0 is preserved and
||beta||_F is invariant.  A genuinely quaternionic U generically leaks
a proper state into the improper class; ``partition_witness`` exhibits
such a leak.

Time dependence is a sampled schedule on a uniform grid, evaluated by
linear interpolation and integrated per step with midpoint sampling.

Both solvers run on complex-adjoint images: chi is a linear algebra
homomorphism (F. Zhang, LAA 251, 1997), so interpolation, products and
the RK4 stages act on raw 2n x 2n arrays and the result is read back
once, with a chi-membership check.  A constant generator's propagator
is a single exponential exp(-t H).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .density import CDensity, MixtureKind, QDensity, random_density, validate
from .errors import (
    DimensionMismatch,
    DriftExceeded,
    NotAntiHermitian,
    NotUnitary,
    WitnessNotFound,
)
from .qmatrix import (
    EXPM_MEMBERSHIP_TOL,
    VALIDATION_TOL,
    QMatrix,
    chi,
    chi_inverse,
    expm_q,
    frobenius_norm,
    hermiticity_deviation,
    max_abs,
)

#: Unitarity tolerance for propagators.
UNITARITY_TOL = 1e-9
#: Cap on the per-step hermiticity/trace correction in ``integrate``.
DRIFT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class Generator:
    """Anti-hermitian generator, constant or sampled on a uniform grid.

    ``samples`` holds H at equally spaced times covering [0, horizon];
    a single sample means a constant generator.  Anti-hermiticity
    (alpha block anti-hermitian, beta block symmetric) is enforced on
    every sample at construction, at ``VALIDATION_TOL``; a non-finite
    sample fails it.
    """

    samples: tuple[QMatrix, ...]
    horizon: float = 0.0

    def __post_init__(self):
        if not self.samples:
            raise ValueError("generator needs at least one sample")
        object.__setattr__(self, "samples", tuple(self.samples))
        dim = self.samples[0].rows
        for idx, h in enumerate(self.samples):
            if not h.is_square or h.rows != dim:
                raise DimensionMismatch(f"sample {idx} has shape {h.shape}")
            dev = hermiticity_deviation(h, sign=-1)
            if not dev <= VALIDATION_TOL:
                raise NotAntiHermitian(
                    f"sample {idx} deviates from anti-hermiticity by {dev:.3e}, "
                    f"beyond {VALIDATION_TOL:.3e}"
                )
        if len(self.samples) > 1 and self.horizon <= 0.0:
            raise ValueError("a sampled schedule needs a positive horizon")

    @classmethod
    def constant(cls, h: QMatrix) -> "Generator":
        return cls(samples=(h,))

    @classmethod
    def schedule(cls, samples, horizon: float) -> "Generator":
        return cls(samples=tuple(samples), horizon=float(horizon))

    @property
    def dim(self) -> int:
        return self.samples[0].rows

    def _cell(self, t: float) -> tuple[int, float]:
        """Grid cell ``i`` and weight ``w`` of sample ``i + 1`` at time ``t``."""
        t = min(max(t, 0.0), self.horizon)
        x = t / (self.horizon / (len(self.samples) - 1))
        i = min(int(x), len(self.samples) - 2)
        return i, x - i

    def at(self, t: float) -> QMatrix:
        """Generator at time ``t``: linear interpolation, clamped ends."""
        if len(self.samples) == 1:
            return self.samples[0]
        i, w = self._cell(t)
        return self.samples[i] * (1.0 - w) + self.samples[i + 1] * w

    def chi_at(self):
        """``tau -> chi(self.at(tau))``, interpolating images computed once."""
        images = [chi(h) for h in self.samples]
        if len(images) == 1:
            return lambda tau: images[0]

        def at(tau: float) -> np.ndarray:
            i, w = self._cell(tau)
            return images[i] * (1.0 - w) + images[i + 1] * w

        return at


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary propagator; unitarity checked at construction (NaN fails)."""

    u: QMatrix

    def __post_init__(self):
        if not self.u.is_square:
            raise DimensionMismatch(f"propagator must be square, got {self.u.shape}")
        with np.errstate(invalid="ignore"):  # a non-finite entry gives NaN, which fails
            dev = max_abs(self.u.h @ self.u - QMatrix.identity(self.u.rows))
        if not dev <= UNITARITY_TOL:
            raise NotUnitary(
                f"U^dag U deviates from identity by {dev:.3e}, beyond {UNITARITY_TOL:.3e}"
            )

    @classmethod
    def identity(cls, n: int) -> "Propagator":
        return cls(u=QMatrix.identity(n))

    @classmethod
    def from_complex_unitary(cls, u: np.ndarray) -> "Propagator":
        return cls(u=QMatrix.from_complex(u))

    @property
    def dim(self) -> int:
        return self.u.rows

    @property
    def is_complex(self) -> bool:
        return float(np.linalg.norm(self.u.beta)) <= UNITARITY_TOL


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


def time_ordered(gen: Generator, t: float, steps: int) -> Propagator:
    """Time-ordered propagator U(t) = T exp(-int_0^t H(u) du).

    A constant generator gives exactly exp(-t H) and ignores ``steps``.
    A sampled schedule is an ordered product of ``steps`` exponentials
    exp(-h H(t_mid)) with midpoint sampling, later factors multiplying
    from the left, formed on chi images and read back once.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if len(gen.samples) == 1:
        return Propagator(u=expm_q(gen.samples[0] * (-t)))
    h = t / steps
    ham = gen.chi_at()
    u = np.eye(2 * gen.dim, dtype=np.complex128)
    for k in range(steps):
        u = scipy.linalg.expm(ham((k + 0.5) * h) * (-h)) @ u
    return Propagator(u=chi_inverse(u, tol=EXPM_MEMBERSHIP_TOL))


def integrate(
    rho0: QDensity,
    gen: Generator,
    t: float,
    steps: int,
    drift_tol: float = DRIFT_TOL,
) -> QDensity:
    """Integrate d rho/dt = -[H(t), rho] with classic fourth-order steps.

    The stages run on chi(rho) against chi(H).  After every step the
    iterate is re-hermitized ((rho + rho^dag)/2) and trace-renormalized;
    the applied correction (quaternionic Frobenius norm, which is
    ||chi||_F / sqrt(2), and trace offset, Re Tr chi / 2 - 1) is
    measured and :class:`DriftExceeded` raised if it ever passes
    ``drift_tol``.  Silent drift is never allowed to accumulate.
    """
    if gen.dim != rho0.dim:
        raise DimensionMismatch(
            f"generator dimension {gen.dim} != state dimension {rho0.dim}"
        )
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    h = t / steps
    ham = gen.chi_at()

    def rate(tau: float, mat: np.ndarray) -> np.ndarray:
        hc = ham(tau)
        return mat @ hc - hc @ mat

    current = chi(rho0.mat)
    # An overflowing iterate turns to inf/NaN, which the drift gate below
    # rejects, so numpy's overflow and invalid-value warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            tau = k * h
            k1 = rate(tau, current)
            k2 = rate(tau + h / 2, current + k1 * (h / 2))
            k3 = rate(tau + h / 2, current + k2 * (h / 2))
            k4 = rate(tau + h, current + k3 * h)
            raw = current + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0)
            hermitized = (raw + raw.conj().T) * 0.5
            herm_correction = float(np.linalg.norm(raw - hermitized)) / np.sqrt(2.0)
            trace = float(np.trace(hermitized).real) / 2.0
            correction = max(herm_correction, abs(trace - 1.0))
            # written so that a non-finite iterate (NaN correction) fails too
            if not correction <= drift_tol:
                raise DriftExceeded(
                    f"correction {correction:.3e} at step {k} exceeds {drift_tol:.0e}"
                )
            current = hermitized / trace
    return validate(chi_inverse(current))


def projected_rate_check(rho: QDensity, gen: Generator, h: float = 1e-4) -> float:
    """Residual between the finite-difference projected rate and its formula.

    Evolves one midpoint-sampled step forward and backward, takes the
    central difference of the projection at t = 0, and compares with
    -[H_a, rho_a] + conj(H_b) rho_b - conj(rho_b) H_b.  The residual
    shrinks as O(h^2).
    """
    forward = Propagator(u=expm_q(gen.at(h / 2) * (-h)))
    backward = Propagator(u=expm_q(gen.at(0.0) * h))
    plus = evolve(rho, forward)
    minus = evolve(rho, backward)
    fd = (plus.alpha - minus.alpha) / (2.0 * h)
    ham = gen.at(0.0)
    ha, hb = ham.alpha, ham.beta
    ra, rb = rho.alpha, rho.beta
    rhs = -(ha @ ra - ra @ ha) + hb.conj() @ rb - rb.conj() @ hb
    return float(np.linalg.norm(fd - rhs))


def random_generator(
    n: int, rng: np.random.Generator, quaternionic: bool = True, norm: float = 1.0
) -> Generator:
    """Random constant anti-hermitian generator of Frobenius norm ``norm``."""
    ga = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    alpha = (ga - ga.conj().T) / 2
    if quaternionic:
        gb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        beta = (gb + gb.T) / 2
    else:
        beta = np.zeros_like(alpha)
    ham = QMatrix(alpha, beta)
    scale = frobenius_norm(ham)
    if scale > 0:
        ham = ham * (norm / scale)
    return Generator.constant(ham)


def partition_witness(
    n: int,
    seed: int,
    t: float = 1.0,
    leak_threshold: float = 1e-6,
    max_attempts: int = 100,
) -> tuple[Generator, QDensity, float]:
    """Find a proper state that a quaternionic dynamics makes improper.

    Draws random (generator, proper state) pairs from seeds derived from
    ``seed`` and returns the first whose evolution over ``t`` leaks beta
    norm above ``leak_threshold``.  Such witnesses are generic, so
    exhausting ``max_attempts`` raises :class:`WitnessNotFound`.
    """
    if n < 2:
        raise DimensionMismatch("partition witnesses need dimension >= 2")
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        gen = random_generator(n, rng, quaternionic=True)
        rho = random_density(n, MixtureKind.PROPER, rng)
        prop = Propagator(u=expm_q(gen.samples[0] * (-t)))
        leak = float(np.linalg.norm(evolve(rho, prop).beta))
        if leak > leak_threshold:
            return gen, rho, leak
    raise WitnessNotFound(
        f"no leak above {leak_threshold:.0e} in {max_attempts} attempts (n={n}, seed={seed})"
    )
