"""Unitary dynamics, its complex projection, and the partition dichotomy."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qmix import (
    Generator,
    MixtureKind,
    Propagator,
    QMatrix,
    complex_projection,
    eigvals_hermitian,
    evolve,
    expectation,
    expm_q,
    frobenius_norm,
    integrate,
    partition_witness,
    projected_evolution,
    projected_rate_check,
    random_density,
    random_generator,
    time_ordered,
)
from qmix import dynamics
from qmix.density import Observable, embed_proper, validate
from qmix.dynamics import DRIFT_TOL
from qmix.errors import (
    DimensionMismatch,
    DriftExceeded,
    NotAntiHermitian,
    NotInChiImage,
    NotUnitary,
    QmixError,
    WitnessNotFound,
)
from qmix.qmatrix import check_slices, chi, chi_inverse, max_abs

from support import (
    NON_FINITE_CASES,
    assert_names_value_and_tolerance,
    random_complex,
    random_complex_unitary,
    random_hermitian_qmatrix,
    reference_integrate,
    with_non_finite,
)


def quaternionic_unitary(rng, n, t=1.0) -> Propagator:
    gen = random_generator(n, rng, quaternionic=True)
    return Propagator(u=expm_q(gen.h * (-t)))


# -- construction guards -------------------------------------------------

def test_generator_rejects_hermitian_sample():
    with pytest.raises(NotAntiHermitian):
        Generator(QMatrix.from_complex(np.eye(2)))


def test_propagator_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        Propagator(u=QMatrix.from_complex(2 * np.eye(2)))


@pytest.mark.parametrize("block,position,value", NON_FINITE_CASES)
def test_generator_rejects_non_finite_sample(block, position, value):
    with pytest.raises(NotAntiHermitian) as excinfo:
        Generator(with_non_finite(QMatrix.from_complex(np.zeros((2, 2))), block, position, value))
    assert_names_value_and_tolerance(excinfo.value, 1e-10)


@pytest.mark.parametrize("block,position,value", NON_FINITE_CASES)
def test_propagator_rejects_non_finite(block, position, value):
    with pytest.raises(NotUnitary) as excinfo:
        Propagator(u=with_non_finite(QMatrix.identity(2), block, position, value))
    assert_names_value_and_tolerance(excinfo.value, 1e-9)


# -- evolve ----------------------------------------------------------------

def test_evolve_identity():
    rho = random_density(3, MixtureKind.IMPROPER, 50)
    out = evolve(rho, Propagator(QMatrix.identity(3)))
    assert np.array_equal(out.alpha, rho.alpha)
    assert np.array_equal(out.beta, rho.beta)


def test_complex_unitary_preserves_classification():
    rng = np.random.default_rng(51)
    for kind in (MixtureKind.PROPER, MixtureKind.IMPROPER):
        rho = random_density(3, kind, rng)
        prop = Propagator(QMatrix.from_complex(random_complex_unitary(rng, 3)))
        evolved = evolve(rho, prop)
        assert evolved.classification == rho.classification
        if kind is MixtureKind.PROPER:
            assert evolved.beta_norm == 0.0
        else:
            assert evolved.beta_norm == pytest.approx(rho.beta_norm, rel=1e-12)


def test_evolve_preserves_spectrum():
    rng = np.random.default_rng(52)
    rho = random_density(4, MixtureKind.IMPROPER, rng)
    prop = quaternionic_unitary(rng, 4)
    before = eigvals_hermitian(rho.mat)
    after = eigvals_hermitian(evolve(rho, prop).mat)
    assert np.abs(before - after).max() <= 1e-9


def test_quaternionic_dynamics_leaks_known_state():
    # closed form: U(t) = cos(t) - j sin(t) on the projector onto the
    # +1 eigenvector of sigma_y gives beta(t) = -i sin(2t) Im(alpha),
    # hence leak |sin 2| / sqrt(2) at t = 1
    gen = Generator(QMatrix(np.zeros((2, 2)), np.eye(2)))
    alpha = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    rho = validate(QMatrix.from_complex(alpha))
    prop = Propagator(u=expm_q(gen.h * -1.0))
    evolved = evolve(rho, prop)
    want = abs(np.sin(2.0)) / np.sqrt(2)
    assert evolved.beta_norm == pytest.approx(want, abs=1e-12)
    assert evolved.beta_norm > 1e-6
    expected_beta = -1j * np.sin(2.0) * alpha.imag
    assert np.abs(evolved.beta - expected_beta).max() <= 1e-12


def test_real_proper_state_immune_to_j_identity_generator():
    # jI commutes with real matrices, so this proper state cannot leak
    gen = Generator(QMatrix(np.zeros((2, 2)), np.eye(2)))
    rho = validate(QMatrix.from_complex(np.diag([1.0, 0.0])))
    prop = Propagator(u=expm_q(gen.h * -1.0))
    assert evolve(rho, prop).beta_norm <= 1e-15


# -- projected evolution ------------------------------------------------------

def test_projected_evolution_complex_case_single_term():
    rng = np.random.default_rng(53)
    rho = random_density(3, MixtureKind.PROPER, rng)
    u = random_complex_unitary(rng, 3)
    prop = Propagator(QMatrix.from_complex(u))
    projected = projected_evolution(rho, prop)
    assert np.abs(projected.mat - u @ rho.alpha @ u.conj().T).max() <= 1e-13


def test_projected_evolution_matches_project_then_evolve():
    rng = np.random.default_rng(54)
    for _ in range(50):
        rho = random_density(3, MixtureKind.IMPROPER, rng)
        prop = quaternionic_unitary(rng, 3)
        via_formula = projected_evolution(rho, prop)
        via_path = complex_projection(evolve(rho, prop))
        assert np.abs(via_formula.mat - via_path.mat).max() <= 1e-11


def test_complex_observable_expectations_track_the_projection():
    rng = np.random.default_rng(55)
    rho = random_density(3, MixtureKind.IMPROPER, rng)
    prop = quaternionic_unitary(rng, 3)
    herm = random_complex(rng, 3)
    obs = Observable.from_complex((herm + herm.conj().T) / 2)
    lhs = expectation(obs, evolve(rho, prop))
    rhs = float(np.trace(obs.mat.alpha @ projected_evolution(rho, prop).mat).real)
    assert abs(lhs - rhs) <= 1e-11


# -- integrate -----------------------------------------------------------------

def test_integrate_zero_generator_is_identity():
    rho = random_density(3, MixtureKind.IMPROPER, 56)
    gen = Generator(QMatrix.from_complex(np.zeros((3, 3))))
    out = integrate(rho, gen, t=1.0, steps=10)
    assert np.abs(out.alpha - rho.alpha).max() <= 1e-15
    assert np.abs(out.beta - rho.beta).max() <= 1e-15


def test_integrate_matches_propagator_for_constant_generator():
    rng = np.random.default_rng(57)
    gen = random_generator(4, rng, quaternionic=True)
    rho = random_density(4, MixtureKind.IMPROPER, rng)
    prop = Propagator(u=expm_q(gen.h * -1.0))
    exact = evolve(rho, prop)
    stepped = integrate(rho, gen, t=1.0, steps=1000)
    assert frobenius_norm(exact.mat - stepped.mat) <= 1e-8


def test_integrate_is_fourth_order():
    rng = np.random.default_rng(58)
    gen = random_generator(3, rng, quaternionic=True)
    rho = random_density(3, MixtureKind.IMPROPER, rng)
    prop = Propagator(u=expm_q(gen.h * -1.0))
    exact = evolve(rho, prop)
    errors = [
        frobenius_norm(exact.mat - integrate(rho, gen, t=1.0, steps=steps).mat)
        for steps in (100, 200)
    ]
    ratio = errors[0] / errors[1]
    assert 10 <= ratio <= 24  # 2^4 = 16 up to higher-order terms


def test_integrate_complex_generator_keeps_proper_states_proper():
    rng = np.random.default_rng(59)
    gen = random_generator(3, rng, quaternionic=False)
    rho = random_density(3, MixtureKind.PROPER, rng)
    for t in (0.25, 0.5, 1.0):
        out = integrate(rho, gen, t=t, steps=200)
        assert float(np.linalg.norm(out.beta)) <= 1e-10


def four_stage_integrate(rho0, gen, t, steps):
    """Classic RK4 written stage by stage, gating each step's hermiticity and trace correction."""
    h = t / steps
    ham = chi(gen.h)

    def rate(mat):
        return mat @ ham - ham @ mat

    current = chi(rho0.mat)
    for k in range(steps):
        k1 = rate(current)
        k2 = rate(current + k1 * (h / 2))
        k3 = rate(current + k2 * (h / 2))
        k4 = rate(current + k3 * h)
        raw = current + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0)
        hermitized = (raw + raw.conj().T) * 0.5
        herm_correction = float(np.linalg.norm(raw - hermitized)) / np.sqrt(2.0)
        trace = float(np.trace(hermitized).real) / 2.0
        correction = max(herm_correction, abs(trace - 1.0))
        if not correction <= DRIFT_TOL:
            raise DriftExceeded(f"correction {correction:.3e} at step {k}")
        current = hermitized / trace
    return validate(chi_inverse(current))


def rk4_inputs(n, kind):
    """A generator of the kind and an n x n state, drawn from seed 1000 + n.

    "at-bound" adds 4e-11 to one alpha diagonal entry, the largest real
    part the generator's 1e-10 gate admits; a 1x1 density cannot be
    improper.
    """
    rng = np.random.default_rng(1000 + n)
    base = random_generator(n, rng, quaternionic=kind != "complex").h
    alpha = base.alpha.copy()
    if kind == "at-bound":
        alpha[0, 0] += 4e-11
    gen = Generator(QMatrix(alpha, base.beta))
    return gen, random_density(n, MixtureKind.IMPROPER if n > 1 else MixtureKind.PROPER, rng)


@pytest.mark.parametrize(
    "n,kind,steps",
    [
        (n, kind, steps)
        for n in range(1, 9)
        for kind in ("complex", "quaternionic", "at-bound")
        for steps in (1, 3, *((63, 64, 65, 129, 200) if n <= 4 else ()))
    ],
)
def test_integrate_matches_four_stage_rk4(n, kind, steps):
    # the closed form is the four-stage step taken ``steps`` times, so the
    # two agree to rounding, which grows with the steps in the loop; a
    # wrong power of the gains, or a gain off R, errs by O(h)
    gen, rho = rk4_inputs(n, kind)
    want = four_stage_integrate(rho, gen, 1.0, steps)
    got = integrate(rho, gen, t=1.0, steps=steps)
    assert max_abs(got.mat - want.mat) <= max(1e-14, 1e-15 * steps) * max_abs(want.mat)


def kronecker_step(gen, h):
    """The step matrix S = sum_l A_l (x) B_l^T of step size h, by ``np.kron``.

    Row-major vec(sum_l A_l X B_l) = S vec(X), with A_l = (-K)^l / l! and
    B_l = sum_{j<=4-l} K^j / j!, K = h chi(H): one RK4 step of the rate
    XK - KX, grouped by powers of left and right multiplication.
    """
    k = chi(gen.h) * h
    powers = [np.eye(len(k))]
    for j in range(1, 5):
        powers.append(powers[-1] @ k / j)  # K^j / j!
    return sum(
        np.kron(powers[l] * (-1) ** l, sum(powers[: 5 - l]).T) for l in range(5)
    )


def _generator_of_kind(n, kind):
    """``rk4_inputs``, or for "any-matrix" a generator off anti-hermiticity in every entry.

    "any-matrix" adds a random hermitian QMatrix of largest entry 4e-11 to
    the quaternionic draw: every entry, not one diagonal, at the edge of
    what :class:`Generator` admits.
    """
    gen, rho = rk4_inputs(n, "quaternionic" if kind == "any-matrix" else kind)
    if kind == "any-matrix":
        off = random_hermitian_qmatrix(np.random.default_rng(2000 + n), n)
        gen = Generator(gen.h + off * (4e-11 / max_abs(off)))
    return gen, rho


@pytest.mark.parametrize("kind", ["complex", "quaternionic", "at-bound", "any-matrix"])
@pytest.mark.parametrize("n", range(1, 5))
def test_real_step_is_the_hermitized_complex_step(n, kind):
    # one step of integrate against the step matrix S in complex
    # arithmetic, hermitized and divided by its trace: S holds the whole
    # of K, hermitian part included, so this also checks that the
    # spectrum of K's anti-hermitian part loses nothing the hermitization
    # keeps
    m, eps = 2 * n, np.finfo(np.float64).eps
    gen, rho = _generator_of_kind(n, kind)
    x = chi(rho.mat)
    y = (kronecker_step(gen, 0.5) @ x.reshape(-1)).reshape(m, m)
    want = (y + y.conj().T) / 2 / (np.trace(y).real / 2)
    got = chi(integrate(rho, gen, t=0.5, steps=1).mat)
    assert np.abs(got - want).max() <= 16 * m * eps * np.abs(x).max()


@pytest.mark.parametrize("kind", ["complex", "quaternionic", "at-bound"])
@pytest.mark.parametrize("n", range(1, 5))
def test_real_step_block_corrections_are_the_complex_ones(n, kind, monkeypatch):
    # the two gates' measures.  The growth factor, from the closed form
    # |R(iy)|**2 - 1 = y**6 (y**2 - 8) / 576, against |R(iy)|**3 in
    # complex arithmetic at 3 steps just past the stability bound, where
    # it passes 1 by 6.6e-7, within the gate; and exactly 1 at a stable
    # step.  The final correction is rounding alone
    gen, rho = rk4_inputs(n, kind)
    measured = []

    def recording_gate(value, tol, error, describe):
        measured.append(float(value))
        check_slices(value, tol, error, describe)

    monkeypatch.setattr(dynamics, "check_slices", recording_gate)
    image = chi(gen.h)
    w = np.linalg.eigvalsh(-0.5j * (image - image.conj().T))
    for y_max, want in ((np.sqrt(8 + 5e-7), None), (2.0, 1.0)):
        t = 3 * y_max / (w[-1] - w[0])
        measured.clear()
        integrate(rho, gen, t=t, steps=3)
        growth, correction = measured
        y = t / 3 * (w[:, None] - w[None, :])
        r = 1 + 1j * y + (1j * y) ** 2 / 2 + (1j * y) ** 3 / 6 + (1j * y) ** 4 / 24
        complex_growth = float(np.abs(r).max() ** 3)
        if want is None:
            assert 1 + 1e-7 < growth < 1 + DRIFT_TOL
            assert abs(growth - complex_growth) <= 64 * np.finfo(np.float64).eps
        else:
            assert growth == want and complex_growth <= 1 + 4 * np.finfo(np.float64).eps
        assert correction <= 64 * np.finfo(np.float64).eps


def test_integrate_reads_the_dropped_skew_part_as_its_quaternionic_norm(monkeypatch):
    # the final correction measures the skew part E that the hermitization
    # drops on chi as ||E||_F / sqrt 2; a zero generator keeps the state's
    # chi image, into which a known anti-hermitian E is put
    rho = random_density(3, MixtureKind.IMPROPER, 12)
    g = random_complex(np.random.default_rng(12), 6)
    skew = (g - g.conj().T) * (1.2e-6 / np.linalg.norm(g - g.conj().T))
    image, measured = dynamics.chi, []

    def recording_gate(value, tol, error, describe):
        measured.append(float(value))
        check_slices(value, tol, error, describe)

    monkeypatch.setattr(dynamics, "chi", lambda m: image(m) + skew if m is rho.mat else image(m))
    monkeypatch.setattr(dynamics, "check_slices", recording_gate)
    integrate(rho, Generator(QMatrix.identity(3) * 0.0), t=1.0, steps=5)
    growth, correction = measured
    assert growth == 1.0
    assert correction == pytest.approx(1.2e-6 / np.sqrt(2), rel=1e-9)


def _outcome(solver, rho, gen, t, steps):
    """The (alpha, beta) a solver returns, or the type and text of its error."""
    try:
        out = solver(rho, gen, t, steps)
    except QmixError as exc:
        return type(exc), str(exc)
    return out.alpha, out.beta


def assert_same_outcome_as_the_reference(rho, gen, t, steps):
    """Bit-identical results, and the same error types and texts, as ``reference_integrate``."""
    want = _outcome(reference_integrate, rho, gen, t, steps)
    got = _outcome(integrate, rho, gen, t, steps)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("t", [1.0, -3.5])
@pytest.mark.parametrize("steps", [1, 3, 200])
@pytest.mark.parametrize("kind", ["complex", "quaternionic", "at-bound"])
@pytest.mark.parametrize("n", [*range(1, 9), 32])
def test_integrate_is_bit_identical_to_the_allocating_loop(n, kind, steps, t):
    # reference_integrate writes the closed form out plainly, one array per
    # operation, in the same order, so results, gate errors and their texts
    # agree exactly; one step of t = -3.5 is unstable on every input
    gen, rho = rk4_inputs(n, kind)
    assert_same_outcome_as_the_reference(rho, gen, t, steps)


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 129, 1000])
@pytest.mark.parametrize("n", [2, 4, 32, 48])
def test_integrate_is_bit_identical_across_drift_blocks(n, steps):
    # the step counts and widths where the step loop once changed its
    # drift blocks: the closed form reads the count only in G**steps
    gen, rho = rk4_inputs(n, "quaternionic")
    assert_same_outcome_as_the_reference(rho, gen, 1.0, steps)


@pytest.mark.parametrize(
    "gen_seed,scale,rho_seed,kind,steps",
    [(60, 1e8, 61, MixtureKind.PROPER, 1), (71, 1e3, 72, MixtureKind.IMPROPER, 8)],
    ids=["flags-excessive-drift", "names-the-failing-step"],
)
def test_integrate_drift_message_matches_the_allocating_loop(gen_seed, scale, rho_seed, kind, steps):
    # the inputs of the two drift tests: the same growth factor, to the
    # last digit
    gen = Generator(random_generator(2, np.random.default_rng(gen_seed)).h * scale)
    rho = random_density(2, kind, rho_seed)
    with pytest.raises(DriftExceeded) as want:
        reference_integrate(rho, gen, 1.0, steps)
    with pytest.raises(DriftExceeded) as got:
        integrate(rho, gen, t=1.0, steps=steps)
    assert str(got.value) == str(want.value)


def test_integrate_memory_does_not_grow_with_steps():
    # the closed form holds a few 2n x 2n arrays however many steps it
    # takes: at n = 48, 1,000 steps peak where one step does
    gen, rho = rk4_inputs(48, "quaternionic")
    peaks = []
    for steps in (1, 64, 1000):
        tracemalloc.start()
        try:
            integrate(rho, gen, t=1.0, steps=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) - peaks[0] <= 2**16
    assert peaks[0] <= 8 * 2**20


def test_integrate_buffers_belong_to_one_call(monkeypatch):
    # a second call runs inside the first one's growth gate, after its
    # decomposition: arrays shared between calls would change the first
    # call's result; each call gates twice
    rng = np.random.default_rng(64)
    gen = random_generator(3, rng)
    first_rho, second_rho = (random_density(3, MixtureKind.IMPROPER, rng) for _ in range(2))
    gate, calls, inner = dynamics.check_slices, [], []

    def interleaving_gate(*args):
        calls.append(args)
        if len(calls) == 1:
            inner.append(integrate(second_rho, gen, t=1.0, steps=steps))
        gate(*args)

    for steps in (5, 150):
        monkeypatch.undo()
        want = [integrate(rho, gen, t=1.0, steps=steps) for rho in (first_rho, second_rho)]
        calls.clear()
        inner.clear()
        monkeypatch.setattr(dynamics, "check_slices", interleaving_gate)
        got = [integrate(first_rho, gen, t=1.0, steps=steps), *inner]
        assert len(calls) == 4
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g.alpha, w.alpha) and np.array_equal(g.beta, w.beta)
        for a in (got[0].alpha, got[0].beta):
            for b in (got[1].alpha, got[1].beta):
                assert not np.shares_memory(a, b)


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
def test_integrate_rejects_non_finite_time(t):
    gen = random_generator(2, np.random.default_rng(63))
    rho = random_density(2, MixtureKind.IMPROPER, 63)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError) as excinfo:
            integrate(rho, gen, t, steps=10)
    assert str(excinfo.value) == f"evolution time t = {t!r} is not finite"


def test_integrate_flags_excessive_drift():
    gen = Generator(random_generator(2, np.random.default_rng(60)).h * 1e8)
    rho = random_density(2, MixtureKind.PROPER, 61)
    with pytest.raises(DriftExceeded):
        integrate(rho, gen, t=1.0, steps=1)


# -- time-ordered propagator ----------------------------------------------------

def test_time_ordered_zero_generator():
    gen = Generator(QMatrix.from_complex(np.zeros((3, 3))))
    prop = time_ordered(gen, t=1.0)
    assert np.abs(prop.u.alpha - np.eye(3)).max() <= 1e-14
    assert np.abs(prop.u.beta).max() <= 1e-14


@pytest.mark.parametrize("t", [float("inf"), float("-inf"), float("nan")])
def test_time_ordered_rejects_non_finite_time(t):
    gen = random_generator(2, np.random.default_rng(62))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError) as excinfo:
            time_ordered(gen, t)
    assert f"t = {t!r}" in str(excinfo.value)


def test_time_ordered_accepts_generator_at_its_deviation_bound():
    # Generator admits an anti-hermiticity deviation up to 1e-10; a real
    # part of 4e-11 on one alpha diagonal entry deviates by 8e-11, which
    # -tH would scale to 8e-10 at t = 10, past the exponential's own gate
    rng = np.random.default_rng(73)
    base = random_generator(4, rng, quaternionic=True).h
    alpha = base.alpha.copy()
    alpha[0, 0] += 4e-11
    gen = Generator(QMatrix(alpha, base.beta))
    rho = random_density(4, MixtureKind.IMPROPER, rng)
    exact = evolve(rho, time_ordered(gen, 10.0))
    stepped = integrate(rho, gen, t=10.0, steps=2000)
    assert frobenius_norm(exact.mat - stepped.mat) <= 1e-8


def test_time_ordered_rejects_overflowing_exponent():
    gen = Generator(random_generator(2, np.random.default_rng(74)).h * 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError, match=r"overflows at evolution time t = 1e\+308"):
            time_ordered(gen, 1e308)


# -- projected rate -----------------------------------------------------------

def test_projected_rate_zero_generator():
    rho = random_density(3, MixtureKind.IMPROPER, 64)
    gen = Generator(QMatrix.from_complex(np.zeros((3, 3))))
    assert projected_rate_check(rho, gen) <= 1e-12


def test_projected_rate_complex_generator_on_proper_state():
    rng = np.random.default_rng(65)
    gen = Generator(random_generator(3, rng, quaternionic=False).h * 0.5)
    rho = random_density(3, MixtureKind.PROPER, rng)
    assert projected_rate_check(rho, gen, h=1e-4) <= 1e-8


def test_projected_rate_second_order_convergence():
    rng = np.random.default_rng(66)
    gen = random_generator(3, rng, quaternionic=True)
    rho = random_density(3, MixtureKind.IMPROPER, rng)
    coarse = projected_rate_check(rho, gen, h=1e-3)
    fine = projected_rate_check(rho, gen, h=5e-4)
    assert coarse / fine == pytest.approx(4.0, abs=0.5)


# -- partition witness -----------------------------------------------------------

def test_partition_witness_finds_leak():
    for n in (2, 3, 4):
        gen, rho, leak = partition_witness(n, seed=1000 + n)
        assert leak > 1e-6
        assert rho.classification is MixtureKind.PROPER
        assert np.linalg.norm(gen.h.beta) > 0


def test_partition_witness_deterministic():
    first = partition_witness(2, seed=77)
    second = partition_witness(2, seed=77)
    assert first[2] == second[2]
    assert np.array_equal(first[1].alpha, second[1].alpha)


def test_complex_dynamics_never_leaks():
    rng = np.random.default_rng(67)
    for _ in range(20):
        gen = random_generator(3, rng, quaternionic=False)
        rho = random_density(3, MixtureKind.PROPER, rng)
        prop = Propagator(u=expm_q(gen.h * -1.0))
        assert evolve(rho, prop).beta_norm <= 1e-10


def test_evolved_proper_state_agrees_with_complex_theory():
    rng = np.random.default_rng(68)
    source = random_density(3, MixtureKind.PROPER, rng)
    u = random_complex_unitary(rng, 3)
    prop = Propagator(QMatrix.from_complex(u))
    evolved = evolve(source, prop)
    want = u @ source.alpha @ u.conj().T
    assert np.abs(evolved.alpha - want).max() <= 1e-13
    assert embed_proper(complex_projection(evolved)).classification is MixtureKind.PROPER


# -- chi-space solvers ------------------------------------------------------------

def test_time_ordered_constant_generator_is_one_exponential():
    rng = np.random.default_rng(69)
    gen = random_generator(4, rng, quaternionic=True)
    exact = expm_q(gen.h * -0.7)
    u = time_ordered(gen, t=0.7).u
    assert np.array_equal(u.alpha, exact.alpha)
    assert np.array_equal(u.beta, exact.beta)


def test_integrate_drift_names_the_failing_step():
    # |H| h = 125 is far outside RK4's stability region: the run is
    # refused before any product, naming the steps, h and the widest gap
    gen = Generator(random_generator(2, np.random.default_rng(71)).h * 1e3)
    rho = random_density(2, MixtureKind.IMPROPER, 72)
    with pytest.raises(DriftExceeded) as excinfo:
        integrate(rho, gen, t=1.0, steps=8)
    assert str(excinfo.value) == (
        "rk4 growth factor 1.119e+65 after 8 steps of h = 0.125 exceeds 1 + 1e-06: |h| times "
        "the widest spectral gap 1.910e+03 is 2.387e+02, past the stability bound 2 sqrt 2"
    )


def _ci_smoke_state_and_generator(scale):
    """The CI smoke state and its generator scaled by ``scale``."""
    state = QMatrix(np.array([[0.5, 0], [0, 0.5]]), np.array([[0, -0.5], [0.5, 0]]))
    alpha = np.array([[0.3j, 0.1 + 0.2j], [-0.1 + 0.2j, -0.4j]])
    beta = np.array([[0.2 + 0.1j, 0.05 - 0.3j], [0.05 - 0.3j, 0.4]])
    return validate(state), Generator(QMatrix(alpha * scale, beta * scale))


#: The CI smoke runs, (scale, t, steps, |h| times the widest gap).  The
#: step loop that the closed form replaced passed the first three and
#: refused the other four only after running them: by its per-step drift
#: gate (at steps 112 and 3) or at the read-back (minimum eigenvalue -0.22,
#: block symmetry deviation 8.4e-7), naming no step size in the first two.
STABILITY_TABLE = {
    "gen-200-steps": (1, 1.0, 200, "7.662e-03"),
    "gen100-200-steps": (100, 1.0, 200, "7.662e-01"),
    "gen-1-step": (1, 1.0, 1, "1.532e+00"),
    "gen400-200-steps": (400, 1.0, 200, "3.064e+00"),
    "gen-t-3.5-1-step": (1, -3.5, 1, "5.361e+00"),
    "gen30-8-steps": (30, 1.0, 8, "5.744e+00"),
    "gen100-8-steps": (100, 1.0, 8, "1.915e+01"),
}


@pytest.mark.parametrize("row", list(STABILITY_TABLE))
def test_integrate_refuses_exactly_the_unstable_smoke_runs(row):
    # |R(iy)| <= 1 exactly while |y| <= 2 sqrt 2 = 2.828 at the widest gap:
    # the runs below it pass, and past it the gate names h before any
    # product, with no numpy warning
    scale, t, steps, y = STABILITY_TABLE[row]
    rho, gen = _ci_smoke_state_and_generator(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if float(y) <= 2.8:
            integrate(rho, gen, t=t, steps=steps)
            return
        with pytest.raises(DriftExceeded) as excinfo:
            integrate(rho, gen, t=t, steps=steps)
    message = str(excinfo.value)
    assert message.startswith("rk4 growth factor ")
    assert f" after {steps} steps of h = {t / steps!r} exceeds 1 + 1e-06: " in message
    assert message.endswith(f" is {y}, past the stability bound 2 sqrt 2")


@pytest.mark.parametrize("n,scale", [(2, 1e75), (5, 1e3)], ids=["n2", "n5"])
def test_integrate_refuses_a_growth_past_the_float_range_without_a_warning(n, scale):
    # the drift test's generator seed, scaled, over 64 steps of h = 0.125:
    # G is finite, |G|**64 is not, and the gate reads inf
    gen = Generator(random_generator(n, np.random.default_rng(71)).h * scale)
    rho = random_density(n, MixtureKind.IMPROPER, 72)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DriftExceeded, match="^rk4 growth factor inf after 64 steps of h = 0.125 "):
            integrate(rho, gen, t=8.0, steps=64)


def test_integrate_halves_the_hermitized_iterate_before_dividing_by_its_trace():
    # an entry of out + out^dag that halves into the subnormal range
    # rounds there: dividing the sum by twice the trace would round once
    # and, with the trace off 1, keep 5e-324 where the closed form keeps
    # 1e-323 (a zero generator leaves the state as it is)
    alpha = np.diag([(1 + 1e-13) / 2, 0.5, 0.0, 0.0, 0.0]).astype(np.complex128)
    alpha[0, 1] = 3 * 5e-324
    rho = validate(QMatrix(alpha, np.zeros((5, 5), dtype=np.complex128)))
    assert_same_outcome_as_the_reference(rho, Generator(QMatrix.identity(5) * 0.0), 1.0, 1)


def test_integrate_read_back_error_names_the_steps_and_step_size(monkeypatch):
    # scaled by 30 and stepped 8 times, the smoke generator once passed
    # every drift gate and failed the read-back; the stability gate now
    # refuses it.  A result off the chi image, here from eigenvectors that
    # are unitary but not chi-structured, still fails the read-back, which
    # keeps its class and names the run
    rho, gen = _ci_smoke_state_and_generator(30)
    with pytest.raises(DriftExceeded) as excinfo:
        integrate(rho, gen, t=1.0, steps=8)
    assert str(excinfo.value) == (
        "rk4 growth factor 5.927e+12 after 8 steps of h = 0.125 exceeds 1 + 1e-06: |h| times "
        "the widest spectral gap 4.595e+01 is 5.744e+00, past the stability bound 2 sqrt 2"
    )
    rho, gen = _ci_smoke_state_and_generator(1)
    unitary = np.linalg.qr(random_complex(np.random.default_rng(36), 4))[0]
    eigh = dynamics._anti_hermitian_eigh
    monkeypatch.setattr(dynamics, "_anti_hermitian_eigh", lambda k: (eigh(k)[0], unitary))
    with pytest.raises(NotInChiImage) as excinfo:
        integrate(rho, gen, t=1.0, steps=8)
    assert str(excinfo.value).startswith("rk4 result after 8 steps of h = 0.125: block symmetry deviation ")


def test_integrate_names_the_time_when_its_step_polynomial_overflows():
    # y = h (w_j - w_i) is finite and a power of it in G = R(iy) is not:
    # the error names the time and the steps rather than a growth factor
    # of nan or inf
    rows = [
        (73, 74, 1e200, 3),
        (73, 74, 1e308, 1000),
        (5, 6, 1.905460717963252e77, 1),
    ]
    for gen_seed, rho_seed, t, steps in rows:
        gen = random_generator(2, np.random.default_rng(gen_seed))
        rho = random_density(2, MixtureKind.IMPROPER, rho_seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QmixError) as excinfo:
                integrate(rho, gen, t=t, steps=steps)
        assert type(excinfo.value) is QmixError
        assert str(excinfo.value) == (
            f"step polynomial of (t / steps) * H overflows at evolution time "
            f"t = {t!r} with {steps} steps"
        )


# -- random generator ----------------------------------------------------------

def _reference_generator(n, rng, quaternionic):
    """The generator as first written: hand-built skew blocks, then unit norm."""
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
        ham = ham * (1.0 / scale)
    return ham


@pytest.mark.parametrize("quaternionic", [False, True], ids=["complex", "quaternionic"])
@pytest.mark.parametrize("n", range(1, 9))
def test_random_generator_stream_is_pinned(n, quaternionic):
    # the witness search and the scripts rest on these bits and on the
    # stream left after them
    for seed in range(50):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_generator(n, got_rng, quaternionic=quaternionic).h
        want = _reference_generator(n, want_rng, quaternionic)
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.beta.tobytes() == want.beta.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- input errors ----------------------------------------------------------------

def _non_square():
    return QMatrix(np.zeros((2, 3)), np.zeros((2, 3)))


def _state_of_three():
    return random_density(3, MixtureKind.PROPER, 75)


def _generator_of_three():
    return random_generator(3, np.random.default_rng(76))


@pytest.mark.parametrize(
    "call,error,fragment",
    [
        (lambda: Generator(_non_square()), DimensionMismatch,
         "generator must be square, got (2, 3)"),
        (lambda: Propagator(_non_square()), DimensionMismatch,
         "propagator must be square, got (2, 3)"),
        (lambda: evolve(_state_of_three(), Propagator(QMatrix.identity(2))), DimensionMismatch,
         "propagator dimension 2 != state dimension 3"),
        (lambda: projected_evolution(_state_of_three(), Propagator(QMatrix.identity(2))),
         DimensionMismatch, "propagator dimension 2 != state dimension 3"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(2) * 0.0), 1.0, 10),
         DimensionMismatch, "generator dimension 2 != state dimension 3"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0), 1.0, 0),
         ValueError, "steps must be >= 1, got 0"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0), 1.0, 2.5),
         ValueError, "steps must be an integer, got 2.5"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0), 1.0, True),
         ValueError, "steps must be an integer, got True"),
        (lambda: partition_witness(1, 0), DimensionMismatch,
         "partition witness dimension must be >= 2, got 1"),
        (lambda: partition_witness(2.5, 0), DimensionMismatch,
         "partition witness dimension must be an integer, got 2.5"),
        (lambda: partition_witness(2, -1), ValueError, "seed must be >= 0, got -1"),
        (lambda: partition_witness(2, 1.5), ValueError, "seed must be an integer, got 1.5"),
        (lambda: partition_witness(2, "1"), ValueError, "seed must be an integer, got '1'"),
        (lambda: partition_witness(2, None), ValueError, "seed must be an integer, got None"),
        # U^dag U overflows: the check fails on inf, and numpy does not warn
        (lambda: Propagator(QMatrix(np.full((2, 2), 1e200), np.zeros((2, 2)))), NotUnitary,
         "U^dag U deviates from identity by inf, beyond 1.000e-09"),
        (lambda: random_generator(0, np.random.default_rng(0)), DimensionMismatch,
         "generator dimension must be >= 1, got 0"),
        (lambda: random_generator(-1, np.random.default_rng(0)), DimensionMismatch,
         "generator dimension must be >= 1, got -1"),
        (lambda: random_generator(2.5, np.random.default_rng(0)), DimensionMismatch,
         "generator dimension must be an integer, got 2.5"),
        (lambda: projected_rate_check(_state_of_three(), Generator(QMatrix.identity(3) * 0.0), 0.0),
         ValueError, "finite-difference step h must be nonzero, got 0.0"),
        (lambda: QMatrix.identity(2.5), DimensionMismatch,
         "identity dimension must be an integer, got 2.5"),
        (lambda: QMatrix.identity(-1), DimensionMismatch, "identity dimension must be >= 0, got -1"),
        (lambda: time_ordered(Generator(QMatrix.identity(3) * 0.0), "1"), ValueError,
         "evolution time t must be a real number, got '1'"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0), "1", 3),
         ValueError, "evolution time t must be a real number, got '1'"),
        (lambda: projected_rate_check(_state_of_three(), Generator(QMatrix.identity(3) * 0.0), "x"),
         ValueError, "finite-difference step h must be a real number, got 'x'"),
        (lambda: time_ordered(Generator(QMatrix.identity(3) * 0.0), 10**400), QmixError,
         "evolution time t = <int of 1329 bits> is not finite"),
        (lambda: time_ordered(Generator(QMatrix.identity(3) * 0.0), 10**5000), QmixError,
         "evolution time t = <int of 16610 bits> is not finite"),
        (lambda: projected_rate_check(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                                      float("nan")),
         QmixError, "finite-difference step h = nan is not finite"),
        (lambda: time_ordered(Generator(QMatrix.identity(3) * 0.0), True), ValueError,
         "evolution time t must be a real number, got True"),
        (lambda: time_ordered(Generator(QMatrix.identity(3) * 0.0), np.array([0.5, 1.0])),
         ValueError, "evolution time t must be a real number, got ndarray of shape (2,)"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                           np.full(6, 0.5), 3),
         ValueError, "evolution time t must be a real number, got ndarray of shape (6,)"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                           np.array([1.0]), 3),
         ValueError, "evolution time t must be a real number, got ndarray of shape (1,)"),
        (lambda: projected_rate_check(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                                      np.array([1e-3, 2e-3])),
         ValueError, "finite-difference step h must be a real number, got ndarray of shape (2,)"),
        (lambda: random_generator(2, 0), ValueError, "rng must be a numpy.random.Generator, got 0"),
        (lambda: Generator(np.zeros((2, 2))), ValueError,
         "generator must be a QMatrix, got ndarray of shape (2, 2)"),
        (lambda: Propagator(np.eye(2)), ValueError, "propagator must be a QMatrix, got ndarray of shape (2, 2)"),
        # a bare QMatrix is no Generator: its .h is the adjoint, -H, so it
        # would run backwards in time, past the anti-hermiticity gate
        (lambda: integrate(_state_of_three(), QMatrix.identity(3) * 0.0, 1.0, 3), ValueError,
         "gen must be a Generator, got QMatrix of shape (3, 3)"),
        (lambda: time_ordered(QMatrix.identity(3) * 0.0, 1.0), ValueError,
         "gen must be a Generator, got QMatrix of shape (3, 3)"),
        (lambda: projected_rate_check(_state_of_three(), QMatrix.identity(3) * 0.0), ValueError,
         "gen must be a Generator, got QMatrix of shape (3, 3)"),
        (lambda: integrate(None, Generator(QMatrix.identity(3) * 0.0), 1.0, 3), ValueError,
         "rho0 must be a QDensity, got None"),
        (lambda: integrate(_state_of_three(), None, 1.0, 3), ValueError,
         "gen must be a Generator, got None"),
        (lambda: time_ordered(None, 1.0), ValueError, "gen must be a Generator, got None"),
        (lambda: projected_rate_check(None, Generator(QMatrix.identity(3) * 0.0)), ValueError,
         "rho must be a QDensity, got None"),
        (lambda: evolve(_state_of_three(), QMatrix.identity(3)), ValueError,
         "prop must be a Propagator, got QMatrix of shape (3, 3)"),
        (lambda: evolve(None, Propagator(QMatrix.identity(3))), ValueError,
         "rho must be a QDensity, got None"),
        (lambda: evolve(_state_of_three().mat, Propagator(QMatrix.identity(3))), ValueError,
         "rho must be a QDensity, got QMatrix of shape (3, 3)"),
        (lambda: projected_evolution(_state_of_three(), None), ValueError,
         "prop must be a Propagator, got None"),
        (lambda: projected_evolution(None, Propagator(QMatrix.identity(3))), ValueError,
         "rho0 must be a QDensity, got None"),
        # the types are checked before the shapes and the other arguments
        (lambda: integrate(_state_of_three(), QMatrix.identity(2) * 0.0, "1", 0), ValueError,
         "gen must be a Generator, got QMatrix of shape (2, 2)"),
        # a tiny h overflows the finite-difference quotient or its norm
        (lambda: projected_rate_check(_state_of_three(), _generator_of_three(), 1e-200),
         QmixError, "projected-rate residual (finite-difference step h = 1e-200) = inf is not finite"),
        (lambda: projected_rate_check(_state_of_three(), _generator_of_three(), 1e-310),
         QmixError, "projected-rate residual (finite-difference step h = 1e-310) = nan is not finite"),
        (lambda: projected_rate_check(_state_of_three(), _generator_of_three(), 5e-324),
         QmixError, "projected-rate residual (finite-difference step h = 5e-324) = nan is not finite"),
    ],
    ids=["generator-non-square", "propagator-non-square", "evolve-dimensions",
         "projected-evolution-dimensions", "integrate-dimensions", "integrate-zero-steps",
         "integrate-float-steps", "integrate-bool-steps", "partition-witness-dimension-one",
         "partition-witness-float-dimension", "partition-witness-negative-seed",
         "partition-witness-float-seed", "partition-witness-string-seed",
         "partition-witness-none-seed", "propagator-overflow", "random-generator-zero",
         "random-generator-negative", "random-generator-float-dimension",
         "projected-rate-check-zero-step", "identity-float-dimension",
         "identity-negative-dimension", "time-ordered-string-time", "integrate-string-time",
         "projected-rate-check-string-step", "time-ordered-huge-int-time",
         "time-ordered-int-time-past-the-digit-limit",
         "projected-rate-check-nan-step", "time-ordered-bool-time",
         "time-ordered-float-array-time", "integrate-float-array-time",
         "integrate-one-element-time", "projected-rate-check-float-array-step",
         "random-generator-int-rng", "generator-array", "propagator-array",
         "integrate-qmatrix-generator", "time-ordered-qmatrix-generator",
         "projected-rate-check-qmatrix-generator", "integrate-none-state",
         "integrate-none-generator", "time-ordered-none-generator",
         "projected-rate-check-none-state", "evolve-qmatrix-propagator", "evolve-none-state",
         "evolve-qmatrix-state", "projected-evolution-none-propagator",
         "projected-evolution-none-state", "integrate-type-before-shape",
         "projected-rate-check-step-1e-200", "projected-rate-check-step-1e-310",
         "projected-rate-check-step-5e-324"],
)
def test_input_errors(call, error, fragment):
    with pytest.raises(error) as excinfo:
        call()
    assert fragment in str(excinfo.value)


def test_partition_witness_gives_up_after_its_attempt_budget(monkeypatch):
    monkeypatch.setattr(dynamics, "WITNESS_MAX_ATTEMPTS", 0)
    with pytest.raises(WitnessNotFound) as excinfo:
        partition_witness(2, 0)
    assert str(excinfo.value) == "no leak above 1e-06 in 0 attempts (n=2, seed=0)"


@pytest.mark.parametrize("cast", [int, np.int64, np.uint16, np.intp])
def test_numpy_integer_counts_stay_valid(cast):
    rng = np.random.default_rng(57)
    gen = random_generator(cast(3), rng)
    rho = random_density(cast(3), MixtureKind.IMPROPER, rng)
    got, want = integrate(rho, gen, 1.0, cast(20)), integrate(rho, gen, 1.0, 20)
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert got.beta.tobytes() == want.beta.tobytes()
    witness, plain = partition_witness(cast(2), cast(5)), partition_witness(2, 5)
    assert witness[1].alpha.tobytes() == plain[1].alpha.tobytes()
    assert witness[2] == plain[2]
