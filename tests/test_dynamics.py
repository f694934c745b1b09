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
from qmix.qmatrix import chi, chi_inverse, max_abs

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
    # the step polynomial is the four-stage step regrouped, so the two
    # agree to rounding, which grows with the steps.  At n <= 4 the
    # steps 63 to 200 sit at the edges of the doubling fills (a block's
    # last power, one full block, a step past it, a partial block after
    # two): a fill by the wrong power of the step matrix errs by O(h)
    gen, rho = rk4_inputs(n, kind)
    want = four_stage_integrate(rho, gen, 1.0, steps)
    got = integrate(rho, gen, t=1.0, steps=steps)
    assert max_abs(got.mat - want.mat) <= max(1e-14, 1e-15 * steps) * max_abs(want.mat)


def kronecker_step(gen, h):
    """The step matrix S = sum_l A_l (x) B_l^T of step size h, by ``np.kron``."""
    k = chi(gen.h) * h
    powers = [np.eye(len(k))]
    for j in range(1, 5):
        powers.append(powers[-1] @ k / j)  # K^j / j!
    return sum(
        np.kron(powers[l] * (-1) ** l, sum(powers[: 5 - l]).T) for l in range(5)
    )


def hermitian_parameters(x):
    """Real diagonal, then real and imaginary parts above it, read entry by entry."""
    m = len(x)
    above = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return np.array(
        [x[i, i].real for i in range(m)]
        + [x[i, j].real for i, j in above]
        + [x[i, j].imag for i, j in above]
    )


@pytest.mark.parametrize("kind", ["complex", "quaternionic", "at-bound", "any-matrix"])
@pytest.mark.parametrize("n", range(1, 5))
def test_real_step_is_the_hermitized_complex_step(n, kind):
    # R and the skew map K against S in complex arithmetic, on seeded
    # hermitian chi images: the bit-identity tests build R and K by the
    # same code as integrate, so only this test sees an indexing error in
    # them; "any-matrix" is a Gaussian S, whose skew parts are not small
    m, eps = 2 * n, np.finfo(np.float64).eps
    rng = np.random.default_rng(2000 + n)
    if kind == "any-matrix":
        s = random_complex(rng, m * m)
    else:
        s = kronecker_step(rk4_inputs(n, kind)[0], 0.5)
    step, skew_map = dynamics._hermitian_step(s, m)
    assert step.shape == (m * m + 1, m * m) and skew_map.shape == (m * m, m * m)
    basis = dynamics._layout(m)[3]
    for _ in range(4):
        x = chi(random_hermitian_qmatrix(rng, n))
        params = hermitian_parameters(x)
        y = (s @ x.reshape(-1)).reshape(m, m)
        trace = np.trace(y).real / 2
        tol = 8 * eps * (np.abs(s) @ np.abs(x.reshape(-1))).max()  # a few ulps of Y's entries
        got = step @ params
        assert np.abs(got[:-1] - hermitian_parameters((y + y.conj().T) / 2)).max() <= tol
        assert abs(got[-1] - trace) <= m * tol
        skew = np.linalg.norm((y - y.conj().T) / 2)
        assert abs(np.linalg.norm(skew_map @ params) - skew) <= m * tol
        got, got_skew = dynamics._hermitian_parts(x.reshape(-1), m)
        assert np.array_equal(got, params) and not got_skew.any()
        assert np.array_equal((basis @ params).reshape(m, m), x)


def test_layout_is_cached_read_only_and_read_back_bit_for_bit():
    # one layout per width per process: every caller shares the arrays, so
    # writing to them raises; and the one reader gives a basis product's
    # parameters back bit for bit, with no skew part
    dynamics._layout.cache_clear()
    rng = np.random.default_rng(35)
    for m in (2, 4, 6, 8):
        layout = dynamics._layout(m)
        assert dynamics._layout(m) is layout
        for array in layout:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        x = rng.standard_normal(m * m) * 10.0 ** rng.integers(-100, 100, m * m)
        params, skew = dynamics._hermitian_parts(layout[3] @ x, m)
        assert params.tobytes() == x.tobytes() and not skew.any()
    info = dynamics._layout.cache_info()
    assert (info.misses, info.currsize) == (4, 4)
    diagonal, up, low, _ = dynamics._layout(6)
    assert np.array_equal(diagonal, [0, 7, 14, 21, 28, 35])
    assert np.array_equal(up, [1, 2, 3, 4, 5, 8, 9, 10, 11, 15, 16, 17, 22, 23, 29])
    assert np.array_equal(low, [6, 12, 18, 24, 30, 13, 19, 25, 31, 20, 26, 32, 27, 33, 34])


@pytest.mark.parametrize("kind", ["complex", "quaternionic", "at-bound"])
@pytest.mark.parametrize("n", range(1, 5))
def test_real_step_block_corrections_are_the_complex_ones(n, kind, monkeypatch):
    # the drift gate's corrections, one block of 3 steps, against the same
    # steps in complex arithmetic: ||skew(S X)||_F / sqrt 2 and |tr - 1|
    gen, rho = rk4_inputs(n, kind)
    blocks = []
    monkeypatch.setattr(dynamics, "_check_drift", lambda c, start: blocks.append(c.copy()))
    integrate(rho, gen, t=1.0, steps=3)
    s, x = kronecker_step(gen, 1.0 / 3), chi(rho.mat)
    x = (x + x.conj().T) / 2
    want = []
    for _ in range(3):
        y = (s @ x.reshape(-1)).reshape(len(x), len(x))
        trace = np.trace(y).real / 2
        want.append(max(np.linalg.norm((y - y.conj().T) / 2) / np.sqrt(2), abs(trace - 1)))
        x = (y + y.conj().T) / 2 / trace
    assert len(blocks) == 1
    assert np.abs(blocks[0] - want).max() <= 16 * np.finfo(np.float64).eps


def _outcome(solver, rho, gen, t, steps):
    """The (alpha, beta) a solver returns, or the type and text of its error."""
    try:
        out = solver(rho, gen, t, steps)
    except QmixError as exc:
        return type(exc), str(exc)
    return out.alpha, out.beta


def assert_same_outcome_as_the_allocating_loop(rho, gen, t, steps):
    """Bit-identical results and drift errors; read-back errors name the run."""
    want = _outcome(reference_integrate, rho, gen, t, steps)
    got = _outcome(integrate, rho, gen, t, steps)
    if isinstance(want[0], type):
        if want[0] is not DriftExceeded:
            want = (want[0], f"rk4 result after {steps} steps of h = {t / steps!r}: {want[1]}")
        assert got == want
    else:
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("t", [1.0, -3.5])
@pytest.mark.parametrize("steps", [1, 3, 200])
@pytest.mark.parametrize("kind", ["complex", "quaternionic", "at-bound"])
@pytest.mark.parametrize("n", [*range(1, 9), 32])
def test_integrate_is_bit_identical_to_the_allocating_loop(n, kind, steps, t):
    # the in-place step loop does the allocating one's operations in the
    # same order, so results, drift errors and their texts agree exactly
    gen, rho = rk4_inputs(n, kind)
    assert_same_outcome_as_the_allocating_loop(rho, gen, t, steps)


@pytest.mark.parametrize("steps", [1, 63, 64, 65, 129, 1000])
@pytest.mark.parametrize("n", [2, 4, 32, 48])
def test_integrate_is_bit_identical_across_drift_blocks(n, steps):
    # the drift gate runs once per block of 64 steps, 28 at n = 48 where
    # a block would pass 2**18 entries: one block, a full one, a full one
    # and a step, and several blocks with a partial last one
    gen, rho = rk4_inputs(n, "quaternionic")
    assert_same_outcome_as_the_allocating_loop(rho, gen, 1.0, steps)


@pytest.mark.parametrize(
    "gen_seed,scale,rho_seed,kind,steps",
    [(60, 1e8, 61, MixtureKind.PROPER, 1), (71, 1e3, 72, MixtureKind.IMPROPER, 8)],
    ids=["flags-excessive-drift", "names-the-failing-step"],
)
def test_integrate_drift_message_matches_the_allocating_loop(gen_seed, scale, rho_seed, kind, steps):
    # the inputs of the two drift tests: the norm over views of the skew
    # part measures the correction np.linalg.norm does, to the last digit
    gen = Generator(random_generator(2, np.random.default_rng(gen_seed)).h * scale)
    rho = random_density(2, kind, rho_seed)
    with pytest.raises(DriftExceeded) as want:
        reference_integrate(rho, gen, 1.0, steps)
    with pytest.raises(DriftExceeded) as got:
        integrate(rho, gen, t=1.0, steps=steps)
    assert str(got.value) == str(want.value)


def test_integrate_drift_block_buffers_stay_within_8_mib():
    # at n = 48 a block of 64 steps would hold 18 MiB of iterates: the
    # block shrinks to 28 steps, 7.9 MiB, over the one step of a 1-step call
    gen, rho = rk4_inputs(48, "quaternionic")
    peaks = []
    for steps in (1, 64):
        tracemalloc.start()
        try:
            integrate(rho, gen, t=1.0, steps=steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 8 * 2**20


def test_integrate_buffers_belong_to_one_call(monkeypatch):
    # a second call runs inside the first one's first drift gate, after
    # the first call's first block of steps (all 5, or 64 of 150): buffers
    # shared between calls would change the first call's result; each
    # call gates once per block, 1 or 3 times
    rng = np.random.default_rng(64)
    gen = random_generator(3, rng)
    first_rho, second_rho = (random_density(3, MixtureKind.IMPROPER, rng) for _ in range(2))
    gate, calls, inner = dynamics.check_slices, [], []

    def interleaving_gate(*args):
        calls.append(args)
        if len(calls) == 1:
            inner.append(integrate(second_rho, gen, t=1.0, steps=steps))
        gate(*args)

    for steps, gates in ((5, 2), (150, 6)):
        monkeypatch.undo()
        want = [integrate(rho, gen, t=1.0, steps=steps) for rho in (first_rho, second_rho)]
        calls.clear()
        inner.clear()
        monkeypatch.setattr(dynamics, "check_slices", interleaving_gate)
        got = [integrate(first_rho, gen, t=1.0, steps=steps), *inner]
        assert len(calls) == gates
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
    # |H| h = 125 is far outside RK4's stability region, so the iterate
    # grows every step; the correction of step 0 is 5.4e-9, below the
    # 1e-6 cap, and that of step 1 is 2.6e-2
    gen = Generator(random_generator(2, np.random.default_rng(71)).h * 1e3)
    rho = random_density(2, MixtureKind.IMPROPER, 72)
    with pytest.raises(DriftExceeded, match="at step 1 "):
        integrate(rho, gen, t=1.0, steps=8)


def _ci_smoke_state_and_generator(scale):
    """The CI smoke state and its generator scaled by ``scale``."""
    state = QMatrix(np.array([[0.5, 0], [0, 0.5]]), np.array([[0, -0.5], [0.5, 0]]))
    alpha = np.array([[0.3j, 0.1 + 0.2j], [-0.1 + 0.2j, -0.4j]])
    beta = np.array([[0.2 + 0.1j, 0.05 - 0.3j], [0.05 - 0.3j, 0.4]])
    return validate(state), Generator(QMatrix(alpha * scale, beta * scale))


def test_integrate_drift_names_a_failing_step_in_a_later_block():
    # scaled by 400 and stepped 200 times, the smoke generator first
    # fails the drift gate past the first block of 64 steps (at step 112
    # with OpenBLAS on x86-64; rounding seeds the mode that grows, so
    # another BLAS can move it by a few steps)
    rho, gen = _ci_smoke_state_and_generator(400)
    with pytest.raises(DriftExceeded) as want:
        reference_integrate(rho, gen, 1.0, 200)
    assert int(str(want.value).split(" at step ")[1].split()[0]) >= 64
    assert_same_outcome_as_the_allocating_loop(rho, gen, 1.0, 200)


@pytest.mark.parametrize(
    "n,scale,message",
    [
        (2, 1e75, "correction inf at step 0 exceeds 1e-06"),
        (5, 1e3, "correction 6.910e-03 at step 1 exceeds 1e-06"),
    ],
    ids=["n2", "n5"],  # n = 2 takes the real step, n = 5 the two products
)
def test_integrate_drift_failure_then_a_zero_trace_in_its_block_does_not_warn(n, scale, message):
    # the drift test's generator seed, scaled, over 64 steps of h = 0.125:
    # a step fails, the steps after it in the block run on, and a later
    # trace is 0.0 or not finite; dividing by it must not warn.  At n = 5
    # the scale is the drift test's: trace 0.0 at step 11, nan at 12.  At
    # n = 2 a diverging iterate of the real step saturates, its trace held
    # at the rounding of R's trace row, and no trace of 0.0 or inf came up
    # at scale 1e3, 2e3 or 500 over generator seeds 0..299; at 1e75, R is
    # finite (h |H| < 1e77) but its product with the saturated iterate
    # overflows (h |H| > 1e73): step 0 fails, the trace of step 1 is inf
    # and that of step 2 nan
    gen = Generator(random_generator(n, np.random.default_rng(71)).h * scale)
    rho = random_density(n, MixtureKind.IMPROPER, 72)
    with pytest.raises(DriftExceeded) as want:
        reference_integrate(rho, gen, 8.0, 64)
    traces = []
    # ungated, the reference divides by the bad trace and ends in an error
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"), pytest.raises(QmixError):
        reference_integrate(rho, gen, 8.0, 64, trace_log=traces)
    failing = int(message.split(" at step ")[1].split()[0])
    bad = [i for i, trace in enumerate(traces) if trace == 0.0 or not np.isfinite(trace)]
    assert failing < bad[0] < 63
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DriftExceeded) as got:
            integrate(rho, gen, t=8.0, steps=64)
    assert str(got.value) == str(want.value) == message


def test_integrate_halves_the_hermitized_iterate_before_dividing_by_its_trace():
    # on the two-product form (n = 5), an entry of raw + raw^dag that
    # halves into the subnormal range rounds there: dividing the sum by
    # twice the trace would round once and, with the trace off 1, keep
    # 5e-324 where the loop keeps 1e-323
    alpha = np.diag([(1 + 1e-13) / 2, 0.5, 0.0, 0.0, 0.0]).astype(np.complex128)
    alpha[0, 1] = 3 * 5e-324
    rho = validate(QMatrix(alpha, np.zeros((5, 5), dtype=np.complex128)))
    assert_same_outcome_as_the_allocating_loop(rho, Generator(QMatrix.identity(5) * 0.0), 1.0, 1)


def test_integrate_read_back_error_names_the_steps_and_step_size():
    # scaled by 30 and stepped 8 times, the smoke generator passes every
    # drift gate, but the iterate has left the chi image: the read-back
    # error keeps its class and names the run
    rho, gen = _ci_smoke_state_and_generator(30)
    with pytest.raises(NotInChiImage) as excinfo:
        integrate(rho, gen, t=1.0, steps=8)
    assert str(excinfo.value).startswith("rk4 result after 8 steps of h = 0.125: block symmetry deviation ")


def test_integrate_names_the_time_when_its_step_polynomial_overflows():
    # K = (t / steps) chi(H) is finite, its square is not; or, in the last
    # row, every A_l and B_l is finite and a Kronecker entry A_l (x) B_l^T
    # of the step matrix is not: the error names the time and the steps
    # rather than a drift of nan or inf
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
         ValueError, "evolution time t must be a real number, got array([0.5, 1. ])"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                           np.full(6, 0.5), 3),
         ValueError, "evolution time t must be a real number, got array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5])"),
        (lambda: integrate(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                           np.array([1.0]), 3),
         ValueError, "evolution time t must be a real number, got array([1.])"),
        (lambda: projected_rate_check(_state_of_three(), Generator(QMatrix.identity(3) * 0.0),
                                      np.array([1e-3, 2e-3])),
         ValueError, "finite-difference step h must be a real number, got array([0.001, 0.002])"),
        (lambda: random_generator(2, 0), ValueError, "rng must be a numpy.random.Generator, got 0"),
        (lambda: Generator(np.zeros((2, 2))), ValueError,
         "generator must be a QMatrix, got array("),
        (lambda: Propagator(np.eye(2)), ValueError, "propagator must be a QMatrix, got array("),
        # a bare QMatrix is no Generator: its .h is the adjoint, -H, so it
        # would run backwards in time, past the anti-hermiticity gate
        (lambda: integrate(_state_of_three(), QMatrix.identity(3) * 0.0, 1.0, 3), ValueError,
         "gen must be a Generator, got QMatrix("),
        (lambda: time_ordered(QMatrix.identity(3) * 0.0, 1.0), ValueError,
         "gen must be a Generator, got QMatrix("),
        (lambda: projected_rate_check(_state_of_three(), QMatrix.identity(3) * 0.0), ValueError,
         "gen must be a Generator, got QMatrix("),
        (lambda: integrate(None, Generator(QMatrix.identity(3) * 0.0), 1.0, 3), ValueError,
         "rho0 must be a QDensity, got None"),
        (lambda: integrate(_state_of_three(), None, 1.0, 3), ValueError,
         "gen must be a Generator, got None"),
        (lambda: time_ordered(None, 1.0), ValueError, "gen must be a Generator, got None"),
        (lambda: projected_rate_check(None, Generator(QMatrix.identity(3) * 0.0)), ValueError,
         "rho must be a QDensity, got None"),
        (lambda: evolve(_state_of_three(), QMatrix.identity(3)), ValueError,
         "prop must be a Propagator, got QMatrix("),
        (lambda: evolve(None, Propagator(QMatrix.identity(3))), ValueError,
         "rho must be a QDensity, got None"),
        (lambda: evolve(_state_of_three().mat, Propagator(QMatrix.identity(3))), ValueError,
         "rho must be a QDensity, got QMatrix("),
        (lambda: projected_evolution(_state_of_three(), None), ValueError,
         "prop must be a Propagator, got None"),
        (lambda: projected_evolution(None, Propagator(QMatrix.identity(3))), ValueError,
         "rho0 must be a QDensity, got None"),
        # the types are checked before the shapes and the other arguments
        (lambda: integrate(_state_of_three(), QMatrix.identity(2) * 0.0, "1", 0), ValueError,
         "gen must be a Generator, got QMatrix("),
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
