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
arrays, read back once with a chi-membership check.  Up to n = 4 it
steps on the (2n)**2 real parameters of the hermitian iterate, whose
layout one cached basis holds, by a matrix read once from the product
of the polynomial's Kronecker matrix, vec(A X B) = (A (x) B^T) vec(X)
(C. F. Van Loan, J. Comput. Appl. Math. 123, 2000), and that basis,
which also gives the trace; a step then only rescales, so a block of
up to 64 steps is the Krylov sequence of one real matrix, filled by
repeated squaring in six products; past n = 4 a step is two products.
Its steps write into buffers made once per call, so the step loop
allocates nothing, and its drift gate measures the corrections of a
block of up to 64 steps at once, fewer where their buffers would pass
8 MiB.
"""

from __future__ import annotations

import functools
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
    check_type,
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
# ``integrate`` gates the corrections of up to this many steps at once,
# fewer where their buffers would pass this many entries (8 MiB).
_DRIFT_BLOCK_STEPS, _DRIFT_BLOCK_ENTRIES = 64, 2**18
# Up to this width m = 2n a step is one product by the m**2 x m**2 step
# matrix, m**4 multiply-adds, no more than the 8 m**3 of the two-product
# form it replaces.
_KRONECKER_STEP_MAX_WIDTH = 8
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
    """Integrate d rho/dt = -[H, rho] with classic fourth-order steps.

    With K = (t / steps) chi(H), one RK4 step of the linear rate
    L(X) = XK - KX is the fixed polynomial sum_{k<=4} L^k(X) / k!.
    Left and right multiplication commute, so it equals
    sum_{l<=4} A_l X B_l with A_l = (-K)^l / l! and
    B_l = sum_{j<=4-l} K^j / j!, built once from the powers of K.  Each
    step keeps only what the next one reads: the new iterate,
    re-hermitized ((X + X^dag)/2) and trace-renormalized.

    Up to m = 2n = 8, where its m**4 multiply-adds are no more than the
    8 m**3 of two products, a step acts on the m**2 real parameters x of
    the hermitian X = chi(rho), with vec(X) = basis @ x (:func:`_layout`):
    the real (m**2 + 1) x m**2 matrix R of :func:`_hermitian_step` gives
    the parameters P x of the hermitized iterate and, last, its trace,
    and a division by that trace gives the next x.  R is read once, by
    :func:`_hermitian_parts`, from the product of the m**2 x m**2 step
    matrix S = sum_l A_l (x) B_l^T and the basis, since row-major
    vec(A X B) = (A (x) B^T) vec(X).  The trace is half the sum of P x's
    diagonal entries, so a step only rescales and a block's iterates are
    P**k x_0 / trace: :func:`_real_steps` fills a block of 64 in six
    products by the powers P, P**2, .., P**32, squared once per call,
    then reads every step's R x and skew part in one product each, and
    the next block starts from the last step's R x, divided by its
    trace.  Past m = 8, as A_0 = B_4 = I, a step is two matrix products,
    Y = [A_1; ..; A_4] X, then [X, Y_1, Y_2, Y_3] [B_0; ..; B_3] + Y_4,
    with X the first block column of the stage matrix
    [X, Y_1, Y_2, Y_3], then the hermitization, halving and division.
    Steps reuse buffers made once per call and allocate nothing: every
    operation writes in place.

    The applied correction (quaternionic Frobenius norm of the skew part
    the hermitization drops, which is ||chi||_F / sqrt(2), and trace
    offset, Re Tr chi / 2 - 1) is measured once per block of up to 64
    steps, fewer where the block's raw and hermitized iterates would
    pass 2**18 entries each (8 MiB in all); on the real form, a block's
    skew parts are one product of its unnormalized parameters by the
    real skew map of :func:`_hermitian_step`, each divided by its
    iterate's trace.  :class:`DriftExceeded` names
    the first step of the block whose correction passes ``DRIFT_TOL``.
    Silent drift is never allowed to accumulate: steps after a failing
    one in its block run, but their result is dropped.  ``t`` goes
    through :func:`check_real` (ValueError unless a real number,
    :class:`QmixError` unless finite); a ``t`` whose step polynomial (R
    and the skew map, or the A_l and B_l) overflows raises
    :class:`QmixError`.  An error of the final density gate keeps its
    class, its text prefixed with the number of steps and the step size
    h = t / steps.
    """
    check_type("rho0", rho0, QDensity)
    check_type("gen", gen, Generator)
    check_square("generator", gen.h.shape, rho0.dim)
    check_int("steps", steps, 1)
    check_real("evolution time t", t)
    m = 2 * rho0.dim
    # A step polynomial that overflows raises below, and an iterate that
    # does, or a zero trace, fails the drift gate, so numpy's overflow,
    # invalid-value and division warnings add nothing.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = chi(gen.h) * (t / steps)
        terms = [np.eye(m), k]  # K^j / j!
        for j in (2, 3, 4):
            terms.append(terms[-1] @ k / j)
        terms = np.stack(terms)
        lefts = terms * [[[1.0]], [[-1.0]], [[1.0]], [[-1.0]], [[1.0]]]  # A_0..A_4
        rights = np.cumsum(terms, axis=0)[::-1]  # B_0..B_4
        if m <= _KRONECKER_STEP_MAX_WIDTH:
            # S[(i, j), (k, c)] = sum_l A_l[i, k] B_l[c, j], so S vec(X) = vec(sum_l A_l X B_l)
            kron = lefts.reshape(5, m * m).T @ rights.transpose(0, 2, 1).reshape(5, m * m)
            kron = kron.reshape(m, m, m, m).transpose(0, 2, 1, 3).reshape(m * m, m * m)
            polynomial, run = _hermitian_step(kron, m), _real_steps
            del kron  # not held through the steps
        else:
            left = lefts[1:].reshape(4 * m, m)  # A_1..A_4
            right = rights[:4].reshape(4 * m, m)  # B_0..B_3
            polynomial, run = (left, right), _two_product_steps
        if not all(np.isfinite(factor).all() for factor in polynomial):
            raise QmixError(
                f"step polynomial of (t / steps) * H overflows at evolution time "
                f"t = {t!r} with {steps} steps"
            )
        block = max(1, min(steps, _DRIFT_BLOCK_STEPS, _DRIFT_BLOCK_ENTRIES // m**2))
        final = run(chi(rho0.mat), *polynomial, steps, block)
    try:
        return validate(chi_inverse(final))
    except QmixError as exc:
        raise type(exc)(f"rk4 result after {steps} steps of h = {t / steps!r}: {exc}") from exc


@functools.lru_cache(maxsize=_KRONECKER_STEP_MAX_WIDTH // 2)
def _layout(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The layout of the m**2 real parameters x of an m x m hermitian X.

    x is X's real diagonal, then the real parts of the entries above the
    diagonal, then their imaginary parts, each in row-major order.
    Returns the row-major flat indices of the diagonal, of the entries
    above it and of their mirrors, and the complex m**2 x m**2 ``basis``
    whose column b is vec of the hermitian matrix of parameter b alone,
    so vec(X) = basis @ x.  Cached, one entry per width of the real step
    (2, 4, 6 and 8), and read-only, since every caller shares the arrays.
    """
    rows, cols = np.triu_indices(m, 1)
    diagonal, up, low = np.arange(0, m * m, m + 1), rows * m + cols, cols * m + rows
    eye = np.eye(m * m)
    upper, lower = eye[:, up], eye[:, low]
    basis = np.concatenate((eye[:, diagonal], upper + lower, 1j * upper - 1j * lower), 1)
    for array in (diagonal, up, low, basis):
        array.flags.writeable = False
    return diagonal, up, low, basis


def _hermitian_parts(flat: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The parameters of (Y + Y^dag) / 2 and a vector of norm ||(Y - Y^dag) / 2||_F.

    ``flat`` holds vec(Y), row-major, along axis 0, for an m x m complex
    Y.  The vector is the skew part's imaginary diagonal, then its real
    and imaginary parts above the diagonal, scaled by sqrt(2).
    """
    diagonal, up, low, _ = _layout(m)
    re, im = flat.real, flat.imag
    params = np.concatenate((re[diagonal], (re[up] + re[low]) * 0.5, (im[up] - im[low]) * 0.5))
    skew = np.concatenate((im[diagonal], re[up] - re[low], im[up] + im[low]))
    skew[m:] /= 1.4142135623730951  # sqrt 2: a product by 1 / sqrt 2 would round otherwise
    return params, skew


def _hermitian_step(kron: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The step matrix S on the parameters x of a hermitian X: the maps R and K.

    With Y = S vec(X) = S basis x (:func:`_layout`): R, real
    (m**2 + 1) x m**2, gives the parameters of (Y + Y^dag) / 2 and, last,
    Re Tr Y / 2; K, real m**2 x m**2, gives the skew vector of
    :func:`_hermitian_parts`.  A basis column has one or two entries, of
    +-1 or +-i, so each entry of S basis is an entry of S or one rounded
    sum of two.
    """
    params, skew_map = _hermitian_parts(kron @ _layout(m)[3], m)
    return np.concatenate((params, params[:m].sum(0, keepdims=True) * 0.5)), skew_map


def _check_drift(corrections: np.ndarray, start: int) -> None:
    """:class:`DriftExceeded` at a block's first step whose correction passes ``DRIFT_TOL``."""
    first = int(np.argmin(corrections <= DRIFT_TOL))  # the first failing step, else 0
    correction = float(corrections[first])
    check_slices(
        correction, DRIFT_TOL, DriftExceeded,
        lambda i: f"correction {correction:.3e} at step {start + first} exceeds {DRIFT_TOL:.0e}",
    )


def _real_steps(image, step, skew_map, steps: int, block: int) -> np.ndarray:
    """``integrate``'s steps on the hermitian parameters of ``image``; the final iterate.

    With P = R[:m**2] and tau(v) half the sum of v's first m entries
    (Re Tr chi / 2), R's trace row is r with r x = tau(P x), so a step
    x -> P x / (r x) only rescales: a block's iterates are
    v_k / tau(v_k), with v_k = P**k x_0.  Row 0 of V holds the block's
    x_0, and V[2**j : 2**(j + 1)] = V[:2**j] (P**(2**j))^T fills the
    rest by doubling, from powers squared once per call (C. Moler and
    C. Van Loan, SIAM Review 45, 2003): six products for 64 steps.  The
    gate reads every step's R v_k and skew part K v_k in one product
    each and divides them by tau(v_k); the next block starts from the
    last step's R v_k, divided by its trace, as a step would.
    """
    size = step.shape[1]  # m**2
    powers = [step[:size]]  # P**(2**j) for 2**j < block
    while 2 ** len(powers) < block:
        powers.append(powers[-1] @ powers[-1])
    # row k of ``iterates`` is V's v_k; row k of ``outs`` is R v_k, the
    # hermitized parameters of step k, then its trace, both times tau(v_k)
    iterates, skews = np.empty((2, block, size))
    outs = np.empty((block, size + 1))
    iterates[0] = _hermitian_parts(image.reshape(-1), len(image))[0]
    for start in range(0, steps, block):
        count = min(block, steps - start)
        filled = 1
        for power in powers:
            if filled >= count:
                break
            fill = min(filled, count - filled)
            np.matmul(iterates[:fill], power.T, out=iterates[filled : filled + fill])
            filled += fill
        stacked = iterates[:count]
        out = np.matmul(stacked, step.T, out=outs[:count])
        skew = np.matmul(stacked, skew_map.T, out=skews[:count])
        taus = stacked[:, : len(image)].sum(1) * 0.5
        herm_corrections = np.sqrt(np.vecdot(skew, skew)) / (1.4142135623730951 * np.abs(taus))
        trace_offsets = np.abs(out[:, size] / taus - 1.0)
        _check_drift(np.maximum(herm_corrections, trace_offsets), start)
        np.divide(out[-1, :size], out[-1, size], out=iterates[0])
    return (_layout(len(image))[3] @ iterates[0]).reshape(image.shape)


def _two_product_steps(image, left, right, steps: int, block: int) -> np.ndarray:
    """``integrate``'s steps on the chi image ``image`` by two products each; the final iterate."""
    m = len(image)
    # X is the first block column of ``stages``, [X, Y_1, Y_2, Y_3]
    stages = np.empty((m, 4 * m), dtype=np.complex128)
    current = stages[:, :m]
    stage_blocks = stages[:, m:].reshape(m, 3, m).transpose(1, 0, 2)
    y = np.empty((4 * m, m), dtype=np.complex128)
    y_head, y_last = y[: 3 * m].reshape(3, m, m), y[3 * m :]
    current[...] = image
    # one slot per step of a block: raw iterate, its transpose, the
    # hermitized iterate and its diagonal (the one ``trace`` sums)
    raws, hermitized = np.empty((2, block, m, m), dtype=np.complex128)
    diagonals = hermitized.reshape(block, m * m)[:, :: m + 1]
    slots = list(zip(raws, raws.transpose(0, 2, 1), hermitized, diagonals))
    traces = np.empty(block)
    for start in range(0, steps, block):
        count = min(block, steps - start)
        for slot, (raw, raw_t, herm, diagonal) in enumerate(slots[:count]):
            np.matmul(left, current, out=y)
            stage_blocks[...] = y_head
            np.matmul(stages, right, out=raw)
            raw += y_last
            np.conjugate(raw_t, out=herm)
            herm += raw
            herm *= 0.5
            trace = traces[slot] = float(diagonal.sum().real) / 2.0
            np.divide(herm, trace, out=current)
        skews = np.subtract(raws[:count], hermitized[:count], out=raws[:count])
        herm_corrections = slice_norms(skews) / 1.4142135623730951  # sqrt 2
        _check_drift(np.maximum(herm_corrections, np.abs(traces[:count] - 1.0)), start)
    return current


def projected_rate_check(rho: QDensity, gen: Generator, h: float = 1e-4) -> float:
    """Residual between the finite-difference projected rate and its formula.

    Evolves by exp(-hH) forward and exp(hH) backward, takes the central
    difference of the projection at t = 0, and compares with
    -[H_a, rho_a] + conj(H_b) rho_b - conj(rho_b) H_b.  The residual
    shrinks as O(h^2).  ``h`` goes through :func:`check_real` (ValueError
    unless a real number, :class:`QmixError` unless finite), and a zero
    step is a ValueError.  An ``h`` so small that the residual is not
    finite raises :class:`QmixError`.
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
