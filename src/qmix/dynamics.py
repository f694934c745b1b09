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

Both solvers run on complex-adjoint images (chi is a linear algebra
homomorphism; F. Zhang, LAA 251, 1997) and read one eigendecomposition,
-i chi(H) = V diag(w) V^dag, of the anti-hermitian chi(H): the
eigenvector method for normal matrices (C. Moler and C. Van Loan, SIAM
Review 45, 2003).  The propagator is its exponential (``expm_q``).  The
RK4 solver is the closed form of classic fourth-order steps: in V's
basis one step scales entry (i, j) by R(i h (w_j - w_i)), with R RK4's
stability function, so any number of steps costs one decomposition and
four products, and whether the steps are stable is known before they
run.  Its result is read back once with a chi-membership check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import CDensity, MixtureKind, QDensity, _ginibre, random_density, validate
from .errors import DimensionMismatch, DriftExceeded, NotUnitary, QmixError, WitnessNotFound
from .qmatrix import (
    UNITARY_TOL,
    QMatrix,
    _check_reals,
    check_int,
    check_real,
    check_slices,
    check_square,
    _anti_hermitian_eigh,
    check_type,
    chi,
    chi_inverse,
    expm_q,
    frobenius_norm,
    max_abs,
    require_anti_hermitian,
    slice_norms,
)

#: Cap on ``integrate``'s growth factor, less 1, and on its final correction.
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
    entry fails it, and an ``h`` that is not a QMatrix is a ValueError.
    """

    h: QMatrix

    def __post_init__(self):
        check_type("generator", self.h, QMatrix)
        check_square("generator", self.h.shape)
        require_anti_hermitian(self.h, "generator")


@dataclass(frozen=True, eq=False)
class Propagator:
    """Unitary propagator; a QMatrix, its unitarity checked at construction (NaN fails)."""

    u: QMatrix

    def __post_init__(self):
        check_type("propagator", self.u, QMatrix)
        check_square("propagator", self.u.shape)
        try:  # a NaN entry gives a NaN deviation, which fails the check
            dev = max_abs(self.u.h @ self.u - QMatrix.identity(self.u.rows))
        except QmixError:  # U^dag U overflows
            dev = float("inf")
        check_slices(
            dev, UNITARY_TOL, NotUnitary,
            lambda i: f"U^dag U deviates from identity by {dev:.3e}, beyond {UNITARY_TOL:.3e}",
        )


def evolve(rho: QDensity, prop: Propagator) -> QDensity:
    """Conjugate a density by a unitary: rho -> U rho U^dag."""
    check_type("rho", rho, QDensity)
    check_type("prop", prop, Propagator)
    check_square("propagator", prop.u.shape, rho.dim)
    return validate(prop.u @ rho.mat @ prop.u.h)


def projected_evolution(rho0: QDensity, prop: Propagator) -> CDensity:
    """Complex projection of the evolved state, by the closed formula.

    Computes the four-term expression for rho_alpha(t) directly from the
    blocks of U and rho(0); it must agree with projecting after evolving,
    which the tests enforce as a path-equivalence check.
    """
    check_type("rho0", rho0, QDensity)
    check_type("prop", prop, Propagator)
    check_square("propagator", prop.u.shape, rho0.dim)
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
    check_type("gen", gen, Generator)
    check_real("evolution time t", t)
    try:  # QMatrix arithmetic refuses an overflow, without a numpy warning
        exponent = (gen.h - gen.h.h) * (-t / 2)
    except QmixError as exc:
        raise QmixError(f"exponent -t * H overflows at evolution time t = {t!r}") from exc
    return Propagator(u=expm_q(exponent))


def integrate(rho0: QDensity, gen: Generator, t: float, steps: int) -> QDensity:
    """Integrate d rho/dt = -[H, rho] by ``steps`` classic fourth-order steps, in closed form.

    One RK4 step of size h = t / steps on the linear rate
    L(X) = XK - KX, K = chi(H), multiplies X by R(hL), where
    R(z) = 1 + z + z**2/2 + z**3/6 + z**4/24 is RK4's stability function
    (E. Hairer and G. Wanner, Solving ODEs II, sec. IV.2).  With
    -i K = V diag(w) V^dag, L scales entry (i, j) of V^dag X V by
    i (w_j - w_i), so the steps give V (G**steps o V^dag X V) V^dag, with
    G_ij = R(i h (w_j - w_i)): one eigendecomposition, by the helper
    :func:`expm_q` calls, and four products, however many steps.  The
    spectrum is that of K's anti-hermitian part, which
    :func:`time_ordered` exponentiates too: the hermitian part a
    :class:`Generator` admits only adds skew terms to a step, which a
    step's hermitization drops.  As G_ii = 1 and G_ji = conj(G_ij), the
    steps keep hermiticity and trace; the result is hermitized and
    divided by its trace once.

    Two gates run at ``DRIFT_TOL``, and either failure is a
    :class:`DriftExceeded` that names the steps and h.  Before any
    product, the growth factor max |G_ij|**steps must not pass
    1 + ``DRIFT_TOL``: from |R(iy)|**2 - 1 = y**6 (y**2 - 8) / 576, in
    closed form, so a stable step (|y| <= 2 sqrt 2 at the widest gap)
    reads exactly 1, and |G_ij|**steps is taken from it too.  Past it RK4
    is unstable.  A stable run is not held in the density set: RK4 damps
    each coherence by |G_ij|**steps, and at n = 4, t = 1000 in 2,000
    steps, inside the bound, the result has a negative eigenvalue.  The
    final density gate on the read-back is what guards positivity.
    After the products, the final correction, the larger of the skew
    part the hermitization drops (its quaternionic Frobenius norm,
    ||.||_F / sqrt 2 on chi) and the trace offset Re Tr chi / 2 - 1,
    must not pass ``DRIFT_TOL``.  ``t`` goes through :func:`check_real` (ValueError
    unless a real number, :class:`QmixError` unless finite); a ``t``
    whose h (w_j - w_i) or G overflows raises :class:`QmixError`.  An
    error of the final density gate keeps its class, its text prefixed
    with the number of steps and the step size h = t / steps.
    """
    check_type("rho0", rho0, QDensity)
    check_type("gen", gen, Generator)
    check_square("generator", gen.h.shape, rho0.dim)
    check_int("steps", steps, 1)
    check_real("evolution time t", t)
    h = t / steps
    image = chi(gen.h)
    # K's anti-hermitian part, K itself when H is exactly anti-hermitian
    w, v = _anti_hermitian_eigh(image * 0.5 - image.conj().T * 0.5)
    # an overflow raises below, and an infinite growth fails its gate
    with np.errstate(over="ignore", invalid="ignore"):
        y = h * (w - w[:, None])  # y[i, j] = h (w_j - w_i)
        y2 = y * y
        re, im = 1.0 - y2 * (0.5 - y2 / 24.0), y * (1.0 - y2 / 6.0)  # G = R(iy)
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise QmixError(
                f"step polynomial of (t / steps) * H overflows at evolution time "
                f"t = {t!r} with {steps} steps"
            )
        moduli = np.exp(steps / 2 * np.log1p(y2**3 * (y2 - 8.0) / 576.0))  # |G|**steps
    growth, gap = moduli.max(), w[-1] - w[0]
    check_slices(
        growth, 1 + DRIFT_TOL, DriftExceeded,
        lambda i: f"rk4 growth factor {growth:.3e} after {steps} steps of h = {h!r} exceeds "
        f"1 + {DRIFT_TOL:.0e}: |h| times the widest spectral gap {gap:.3e} is "
        f"{abs(h) * gap:.3e}, past the stability bound 2 sqrt 2",
    )
    gains = moduli * np.exp(1j * (steps * np.arctan2(im, re)))  # G**steps
    vh = v.conj().T
    out = v @ (gains * (vh @ chi(rho0.mat) @ v)) @ vh
    hermitized = (out + out.conj().T) * 0.5
    trace = float(np.trace(hermitized).real) / 2.0
    skew = slice_norms(out - hermitized) / 1.4142135623730951  # sqrt 2
    correction = float(np.maximum(skew, abs(trace - 1.0)))
    check_slices(
        correction, DRIFT_TOL, DriftExceeded,
        lambda i: f"rk4 correction {correction:.3e} after {steps} steps of h = {h!r} "
        f"exceeds {DRIFT_TOL:.0e}",
    )
    try:
        return validate(chi_inverse(hermitized / trace))
    except QmixError as exc:
        raise type(exc)(f"rk4 result after {steps} steps of h = {h!r}: {exc}") from exc


def projected_rate_check(rho: QDensity, gen: Generator, h: float = 1e-4) -> float:
    """Residual between the finite-difference projected rate and its formula.

    Evolves by exp(-hH) forward and exp(hH) backward, takes the central
    difference of the projection at t = 0, and compares with
    -[H_a, rho_a] + conj(H_b) rho_b - conj(rho_b) H_b.  The residual
    shrinks as O(h^2) only while that truncation term passes the rounding
    of the difference, about eps / h: the two cross where h**3 is about
    eps over the third-order term.  On a unit-norm 3 x 3 generator the
    residual falls as h**2 to 8.3e-10 at h = 1e-4, is smallest near
    h = 1e-5, and below that is rounding, growing as h shrinks (6.6e-9 at
    h = 1e-8, 2.1e-4 at 1e-12), where it says nothing about the formula.
    ``h`` goes through :func:`check_real` (ValueError unless a real
    number, :class:`QmixError` unless finite), and a zero step is a
    ValueError.  An ``h`` so small that the residual is not finite raises
    :class:`QmixError`.
    """
    check_type("rho", rho, QDensity)
    check_type("gen", gen, Generator)
    check_real("finite-difference step h", h)
    if h == 0:
        raise ValueError(f"finite-difference step h must be nonzero, got {h!r}")
    plus = evolve(rho, time_ordered(gen, h))
    minus = evolve(rho, time_ordered(gen, -h))
    ha, hb = gen.h.alpha, gen.h.beta
    ra, rb = rho.alpha, rho.beta
    rhs = -(ha @ ra - ra @ ha) + hb.conj() @ rb - rb.conj() @ hb
    # a tiny h overflows the quotient or its norm, which the check refuses
    with np.errstate(over="ignore", invalid="ignore"):
        residual = slice_norms((plus.alpha - minus.alpha) / (2.0 * h) - rhs)
    _check_reals(f"projected-rate residual (finite-difference step h = {h!r})", residual)
    return float(residual)


def random_generator(n: int, rng: np.random.Generator, quaternionic: bool = True) -> Generator:
    """Random constant generator (G - G^dag) / 2 of unit Frobenius norm.

    G is a quaternionic Ginibre draw, alpha block first; its beta block is
    zero, not drawn, when ``quaternionic`` is False.  An n that is not an
    integer >= 1 is a :class:`DimensionMismatch`, and an ``rng`` that is not
    an ``np.random.Generator`` a ValueError.
    """
    check_int("generator dimension", n, 1, DimensionMismatch)
    check_type("rng", rng, np.random.Generator)
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
