"""Unitary dynamics, its complex projection, and the partition dichotomy."""

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
    NotUnitary,
    QmixError,
    WitnessNotFound,
)
from qmix.qmatrix import chi, chi_inverse, max_abs

from support import (
    NON_FINITE_CASES,
    assert_names_value_and_tolerance,
    random_complex,
    random_complex_unitary,
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
    """Classic RK4 written stage by stage, with the same drift gate."""
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


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("kind", ["complex", "quaternionic", "at-bound"])
@pytest.mark.parametrize("n", range(1, 9))
def test_integrate_matches_four_stage_rk4(n, kind, steps):
    # the step polynomial is the four-stage step regrouped, so the two
    # agree to rounding; "at-bound" adds 4e-11 to one alpha diagonal
    # entry, the largest real part the generator's 1e-10 gate admits;
    # a 1x1 density cannot be improper
    rng = np.random.default_rng(1000 + n)
    base = random_generator(n, rng, quaternionic=kind != "complex").h
    alpha = base.alpha.copy()
    if kind == "at-bound":
        alpha[0, 0] += 4e-11
    gen = Generator(QMatrix(alpha, base.beta))
    rho = random_density(n, MixtureKind.IMPROPER if n > 1 else MixtureKind.PROPER, rng)
    want = four_stage_integrate(rho, gen, 1.0, steps)
    got = integrate(rho, gen, t=1.0, steps=steps)
    assert max_abs(got.mat - want.mat) <= 1e-14 * max_abs(want.mat)


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
    # |H| h = 125 is far outside RK4's stability region, so the iterate
    # grows every step; the correction of step 0 is 1.1e-8, below the
    # 1e-6 cap, and that of step 1 is 2.4e-2
    gen = Generator(random_generator(2, np.random.default_rng(71)).h * 1e3)
    rho = random_density(2, MixtureKind.IMPROPER, 72)
    with pytest.raises(DriftExceeded, match="at step 1 "):
        integrate(rho, gen, t=1.0, steps=8)


def test_integrate_names_the_time_when_its_step_polynomial_overflows():
    # K = (t / steps) chi(H) is finite, its square is not: the error names
    # the time and the steps rather than a drift of nan
    gen = random_generator(2, np.random.default_rng(73))
    rho = random_density(2, MixtureKind.IMPROPER, 74)
    for t, steps in ((1e200, 3), (1e308, 1000)):
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
         f"evolution time t = {10**400} is not finite"),
        (lambda: projected_rate_check(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                                      float("nan")),
         QmixError, "finite-difference step h = nan is not finite"),
        (lambda: time_ordered(Generator(QMatrix.identity(3) * 0.0), True), ValueError,
         "evolution time t must be a real number, got True"),
        (lambda: random_generator(2, 0), ValueError, "rng must be an np.random.Generator, got 0"),
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
         "projected-rate-check-nan-step", "time-ordered-bool-time", "random-generator-int-rng"],
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
