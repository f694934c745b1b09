"""Measurement scenario end to end, plus the randomized audit."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qmix import (
    CDensity,
    MixtureKind,
    Propagator,
    QMatrix,
    block_purify,
    check_propositions,
    evolve,
    run_scenario,
)
from qmix import cli, density, scenario
from qmix.cli import main
from qmix.errors import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotPositive,
    PropositionViolated,
    QmixError,
    RankOutOfRange,
    TraceNotOne,
)
from qmix.qmatrix import VALIDATION_TOL
from qmix.scenario import AUDIT_BLOCK_TRIALS, _draw_trials, direction_basis, spin_along

import support
from support import (
    random_complex_unitary,
    reference_check_propositions,
    reference_run_scenario,
    reference_trial_draw,
)

HALF = 1 / np.sqrt(2)


def test_direction_basis_diagonalizes_spin():
    rng = np.random.default_rng(70)
    for _ in range(20):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        basis = direction_basis(theta, phi)
        spin = spin_along(theta, phi)
        diag = basis.conj().T @ spin @ basis
        assert np.abs(diag - np.diag([1.0, -1.0])).max() <= 1e-14
        assert np.abs(basis.conj().T @ basis - np.eye(2)).max() <= 1e-14


def test_scenario_no_entanglement_collapses_to_pure_state():
    report = run_scenario(1.0, 0.0)
    assert report.passed
    assert report.rho_improper.classification is MixtureKind.PROPER
    assert report.quaternionic_discriminator.on_improper == pytest.approx(0.0, abs=1e-14)
    assert np.abs(report.rho_improper.alpha - np.diag([1.0, 0.0])).max() <= 1e-14


def test_scenario_balanced_amplitudes():
    report = run_scenario(HALF, HALF)
    assert report.passed
    assert report.rho_improper.classification is MixtureKind.IMPROPER
    disc = report.quaternionic_discriminator
    assert disc.on_improper == pytest.approx(0.5, abs=1e-10)
    assert disc.on_proper == pytest.approx(0.0, abs=1e-12)
    table = {row.observable: row for row in report.complex_expectation_table}
    assert table["sigma_z"].on_proper == pytest.approx(0.0, abs=1e-12)
    assert table["identity"].on_proper == pytest.approx(1.0)


def test_scenario_unbalanced_amplitudes():
    report = run_scenario(np.sqrt(0.7), np.sqrt(0.3))
    assert report.passed
    table = {row.observable: row for row in report.complex_expectation_table}
    assert table["sigma_z"].on_proper == pytest.approx(0.4, abs=1e-12)
    assert table["sigma_z"].on_improper == pytest.approx(0.4, abs=1e-12)
    disc = report.quaternionic_discriminator
    assert disc.on_improper == pytest.approx(0.42, abs=1e-10)
    assert disc.on_proper == pytest.approx(0.0, abs=1e-12)


def test_scenario_complex_amplitudes_and_tilted_axis():
    c_plus = np.sqrt(0.7) * np.exp(0.3j)
    c_minus = np.sqrt(0.3) * np.exp(-1.1j)
    report = run_scenario(c_plus, c_minus, n_hat=(0.7, 1.9))
    assert report.passed
    table = {row.observable: row for row in report.complex_expectation_table}
    assert table["spin_along_n"].on_proper == pytest.approx(0.4, abs=1e-12)
    assert report.quaternionic_discriminator.on_improper == pytest.approx(
        2 * abs(c_plus * c_minus) ** 2, abs=1e-10
    )


def test_scenario_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        run_scenario(1.0, 1.0)
    with pytest.raises(NotNormalized):
        run_scenario(float("nan"), 0.8)
    # the norm is tested before the angles, and a huge amplitude fails it
    # as a QmixError rather than a float OverflowError
    with pytest.raises(NotNormalized):
        run_scenario(1.0, 1.0, n_hat=(float("nan"), 0.0))
    with pytest.raises(NotNormalized, match="= inf off unity"):
        run_scenario(1e200, 0.0)


@pytest.mark.parametrize(
    "n_hat,name",
    [
        ((float("inf"), 0.0), "theta"),
        ((float("nan"), 0.0), "theta"),
        ((0.3, float("inf")), "phi"),
        ((0.3, float("nan")), "phi"),
        ((10**400, 0.0), "theta"),
        ((0.3, np.float32("inf")), "phi"),
        ((10**5000, 0), "theta"),
    ],
)
def test_scenario_rejects_non_finite_direction(n_hat, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError) as excinfo:
            run_scenario(0.6, 0.8, n_hat=n_hat)
    assert f"{name} = " in str(excinfo.value)


@pytest.mark.parametrize(
    "n_hat,message",
    [
        (("1", 0), "direction angle theta must be a real number, got '1'"),
        ((0.3, 0.5j), "direction angle phi must be a real number, got 0.5j"),
        ((None, 0), "direction angle theta must be a real number, got None"),
        ((0.3, True), "direction angle phi must be a real number, got True"),
        ((np.array([0.4, 0.5]), 1.1),
         "direction angle theta must be a real number, got ndarray of shape (2,)"),
        ((0.4, np.array(1.1)), "direction angle phi must be a real number, got array(1.1)"),
    ],
    ids=["string", "complex", "none", "bool", "float-array", "zero-d-float-array"],
)
def test_scenario_rejects_a_direction_that_is_not_real(n_hat, message):
    with pytest.raises(ValueError) as excinfo:
        run_scenario(0.6, 0.8, n_hat=n_hat)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("n_hat,length", [((0.0,), 1), ((), 0), ((0.1, 0.2, 0.3), 3)])
def test_scenario_rejects_a_direction_without_two_angles(n_hat, length):
    with pytest.raises(DimensionMismatch, match=rf"n_hat needs two angles \(theta, phi\), got {length}$"):
        run_scenario(1, 0, n_hat=n_hat)


def test_scenario_checks_all_carry_residuals():
    report = run_scenario(HALF, HALF)
    expected = {
        "partial_trace_matches_lueders",
        "projection_matches_proper",
        "improper_state_is_pure",
        "complex_observables_agree",
        "discriminator_on_improper",
        "discriminator_on_proper",
    }
    assert set(report.checks) == expected
    for check in report.checks.values():
        assert check.residual >= 0.0
        assert check.tolerance > 0.0


def test_classifications_stable_under_complex_postprocessing():
    rng = np.random.default_rng(71)
    report = run_scenario(np.sqrt(0.7), np.sqrt(0.3))
    for _ in range(10):
        prop = Propagator(QMatrix.from_complex(random_complex_unitary(rng, 2)))
        assert evolve(report.rho_improper, prop).classification is MixtureKind.IMPROPER
        assert evolve(report.rho_proper, prop).classification is MixtureKind.PROPER


def _harness_scenario_inputs(seed: int, count: int) -> list:
    """(c_plus, c_minus, n_hat) drawn as the benchmark's scenario pool draws them."""
    rng = np.random.default_rng(seed)
    inputs = []
    for _ in range(count):
        mix = rng.uniform(0.0, np.pi / 2)
        p1, p2 = rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)
        c_plus = complex(np.cos(mix) * np.exp(1j * p1))
        c_minus = complex(np.sin(mix) * np.exp(1j * p2))
        inputs.append((c_plus, c_minus, (rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))))
    return inputs


SCENARIO_EDGES = [
    (1.0, 0.0, (0.4, 1.1)),  # c- = 0: the purified state is proper
    (0.0, 1.0, (0.4, 1.1)),  # c+ = 0
    (0.0, -1j, (0.0, 0.0)),
    (0.6, 0.8j, (0.0, 1.1)),  # theta = 0
    (0.6, -0.8, (np.pi, 0.0)),  # theta = pi
    (0.6, 0.8j, (0.4, 2 * np.pi)),  # phi = 2 pi
    (HALF, HALF, (np.pi, 2 * np.pi)),
    (-0.6, -0.8j, (-0.0, -0.0)),
]


def test_scenario_reports_match_the_straight_line_reference():
    # the stacked scenario writes, byte for byte, the report the one-gate-per-matrix
    # path writes, on the benchmark's input distribution and on its edges
    for c_plus, c_minus, n_hat in _harness_scenario_inputs(24, 200) + SCENARIO_EDGES:
        got = cli._dumps(cli.serialize_report(run_scenario(c_plus, c_minus, n_hat)))
        want = cli._dumps(cli.serialize_report(reference_run_scenario(c_plus, c_minus, n_hat)))
        assert got == want, (c_plus, c_minus, n_hat)


def _refuse(*args, **kwargs):
    raise AssertionError("a matrix was built or gated before the input was checked")


@pytest.mark.parametrize(
    "args,error,message",
    [
        ((0.6, 0.6), NotNormalized, "|c+|^2 + |c-|^2 = 0.72 off unity by 2.800e-01"),
        ((0.6, 0.8, (0.1,)), DimensionMismatch, "n_hat needs two angles (theta, phi), got 1"),
        ((0.6, 0.8, (0.1, 0.2, 0.3)), DimensionMismatch,
         "n_hat needs two angles (theta, phi), got 3"),
        ((0.6, 0.8, (float("nan"), 0.0)), QmixError,
         "direction angle theta = nan is not finite"),
        ((0.6, 0.8, (0.3, float("-inf"))), QmixError,
         "direction angle phi = -inf is not finite"),
        ((0.6, 0.8, (0.3, 0.5j)), ValueError,
         "direction angle phi must be a real number, got 0.5j"),
        ((0.6, 0.8, ("1", 0)), ValueError,
         "direction angle theta must be a real number, got '1'"),
    ],
    ids=["unnormalized", "one-angle", "three-angles", "nan-theta", "inf-phi", "complex-phi",
         "string-theta"],
)
def test_scenario_input_fails_before_any_matrix_is_gated(monkeypatch, args, error, message):
    for name in ("_density_gate", "_partial_trace", "_lueders", "_pair_block", "_mixture_kind",
                 "_expectations", "hermiticity_deviation", "discriminating_observable"):
        monkeypatch.setattr(scenario, name, _refuse)
    with pytest.raises(error) as excinfo:
        run_scenario(*args)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    with pytest.raises(AssertionError):  # the patches are the ones a valid input reaches
        run_scenario(0.6, 0.8)


def test_scenario_gates_every_density_in_one_call(monkeypatch):
    shapes = []

    def recording_gate(mat, tol):
        shapes.append((type(mat).__name__, mat.shape, tol))
        return density._density_gate(mat, tol)

    monkeypatch.setattr(scenario, "_density_gate", recording_gate)
    assert run_scenario(0.6, 0.8j, (0.4, 1.1)).passed
    assert shapes == [("QMatrix", (4, 2, 2), VALIDATION_TOL)]


def _corrupt(kernel, change):
    """``kernel`` with ``change`` applied to what it returns."""
    return lambda *args, **kwargs: change(kernel(*args, **kwargs))


_OFF_DIAGONAL = np.array([[0.0, 0.6], [0.6, 0.0]])


@pytest.mark.parametrize(
    "name,change,error,invariant,index",
    [
        ("_partial_trace", lambda m: m + np.array([[0.0, 1e-6], [0.0, 0.0]]), NotHermitian,
         "hermiticity deviation 1.000e-06 exceeds 1.000e-10", 0),
        ("_partial_trace", lambda m: 1.5 * m, TraceNotOne,
         "real trace 1.5000000000000002 deviates from 1 by 5.000e-01", 0),
        ("_lueders", lambda m: m + np.diag([1e-6, 0.0]), TraceNotOne,
         "real trace 1.0000010000000001 deviates from 1", 2),
        ("_lueders", lambda m: m + _OFF_DIAGONAL, NotPositive, "minimum eigenvalue -1.161e-01", 2),
        ("_pair_block", lambda ab: (ab[0] + np.diag([2.0, -2.0]), ab[1]), NotPositive,
         "entry magnitude 2.360e+00 exceeds", 3),
        ("_pair_block", lambda ab: (ab[0], ab[1] + 1e-6), NotHermitian,
         "hermiticity deviation 2.000e-06 exceeds 1.000e-10", 3),
        ("_pair_block", lambda ab: (ab[0] + _OFF_DIAGONAL, ab[1]), NotPositive,
         "minimum eigenvalue -2.810e-01", 3),
    ],
    ids=["traced-hermiticity", "traced-trace", "lueders-trace", "lueders-positivity",
         "purified-entry-bound", "purified-beta-skew", "purified-positivity"],
)
def test_the_one_gate_names_a_corrupted_input(monkeypatch, name, change, error, invariant, index):
    # one input corrupted at a time: the one gate raises the error of the
    # broken invariant and names the slice, which identifies the input
    # (traced, uncoupled, proper, purified)
    monkeypatch.setattr(scenario, name, _corrupt(getattr(scenario, name), change))
    with pytest.raises(QmixError) as excinfo:
        run_scenario(0.6, 0.8)
    assert type(excinfo.value) is error
    assert str(excinfo.value).startswith(invariant)
    assert str(excinfo.value).endswith(f" at slice {index}")
    assert excinfo.value.index == (index,)


@pytest.mark.parametrize(
    "argv,code,last_line",
    [
        (["--cplus=0.6,0", "--cminus=0.6,0"], 1,
         "error: |c+|^2 + |c-|^2 = 0.72 off unity by 2.800e-01"),
        (["--cplus=0.6,0", "--cminus=0.8,0", "--nhat=nan,0"], 2,
         "qmix scenario: error: argument --nhat: direction angle theta = nan is not finite"),
    ],
    ids=["unnormalized", "nan-direction"],
)
def test_scenario_cli_errors_are_pinned(capsys, argv, code, last_line):
    assert main(["scenario", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code == 1:  # a library error: one line
        assert captured.err == last_line + "\n"
    else:  # a usage error: argparse's usage, then one error line
        assert captured.err.startswith("usage: qmix scenario ")
        assert captured.err.endswith("\n" + last_line + "\n")


def test_check_propositions_zero_trials():
    summary = check_propositions(n_max=4, trials=0, seed=0)
    assert summary.passed
    assert all(row.attempts == 0 for row in summary.rows)


def test_check_propositions_small_run_passes():
    summary = check_propositions(n_max=6, trials=60, seed=2024)
    assert summary.passed
    by_name = {row.name: row for row in summary.rows}
    assert by_name["projection_is_density"].attempts == 60
    assert by_name["projection_is_density"].worst_residual <= 1e-9
    assert by_name["lift_round_trip"].worst_residual <= 1e-12
    assert by_name["purify_rank_two"].worst_residual <= 1e-10


def test_check_propositions_deterministic():
    one = check_propositions(n_max=4, trials=20, seed=9)
    two = check_propositions(n_max=4, trials=20, seed=9)
    assert one == two


@pytest.mark.parametrize("n", range(2, 13))
def test_stacked_draws_are_the_trial_by_trial_draws(n):
    # a dimension's trials of an n_max = 12 audit, and one-trial ranges
    # (the replay's path) of each kind
    ranges = [range(n - 2, 200, 11)] + [range(t, t + 1) for t in (n, n + 1, n + 2)]
    for seed in (0, 1, 31, 1000003):
        for trials in ranges:
            states, densities = _draw_trials(seed, trials, n)
            assert len(densities) == (3 if n >= 3 else 2) * len(trials)
            for i, trial in enumerate(trials):
                state, drawn = reference_trial_draw(seed, trial, n)
                assert states.alpha[i].tobytes() == state.alpha.tobytes()
                assert states.beta[i].tobytes() == state.beta.tobytes()
                for j, mat in enumerate(drawn):
                    assert densities[j * len(trials) + i].tobytes() == mat.tobytes()


def test_audit_memory_does_not_grow_with_trials():
    # the batched pass holds one block of a dimension's trials at a time:
    # at n_max = 12, 704 trials give each dimension 64 trials, 2816 give 256
    assert AUDIT_BLOCK_TRIALS <= 64
    peaks = []
    for trials in (704, 4 * 704):
        tracemalloc.start()
        try:
            assert check_propositions(12, trials, 0).passed
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize(
    "args,fragment",
    [((1, 5, 0), "n_max must be >= 2, got 1"), ((6, -3, 0), "trials must be >= 0, got -3"),
     ((6, 5, -1), "seed must be >= 0, got -1"), ((3, 3, 1.5), "seed must be an integer, got 1.5"),
     ((3, 2.0, 0), r"trials must be an integer, got 2\.0"),
     ((3.0, 3, 0), r"n_max must be an integer, got 3\.0"),
     ((2.5, 3, 0), r"n_max must be an integer, got 2\.5"),
     ((3, True, 0), "trials must be an integer, got True"),
     ((3, 3, "1"), "seed must be an integer, got '1'"),
     ((3, 3, None), "seed must be an integer, got None"),
     ((3, 3, -(10**5000)), "seed must be >= 0, got <negative int of 16610 bits>")],
    ids=["n_max", "trials", "seed", "float-seed", "float-trials", "float-n_max",
         "fractional-n_max", "bool-trials", "string-seed", "none-seed", "huge-negative-seed"],
)
def test_check_propositions_rejects_bad_counts_before_drawing(monkeypatch, args, fragment):
    monkeypatch.setattr(scenario, "_draw_trials", None)  # any draw would fail otherwise
    with pytest.raises(ValueError, match=fragment):
        check_propositions(*args)


@pytest.mark.parametrize("cast", [np.int64, np.uint8, np.intp])
def test_check_propositions_takes_numpy_integer_counts(cast):
    assert check_propositions(cast(4), cast(12), cast(9)) == check_propositions(4, 12, 9)


@pytest.mark.parametrize("seed", range(8))
def test_check_propositions_negative_control(monkeypatch, seed):
    # every drawn state gets the reference's corruption: a beta made
    # symmetric and shifted, so never skew; the audit must catch it
    draw = scenario._draw_trials

    def corrupted_draw(seed, trials, n):
        states, densities = draw(seed, trials, n)
        beta = (states.beta + states.beta.swapaxes(-1, -2)) / 2 + 0.1 * np.eye(n)
        return QMatrix(states.alpha, beta), densities

    monkeypatch.setattr(scenario, "_draw_trials", corrupted_draw)
    with pytest.raises(PropositionViolated) as excinfo:
        check_propositions(n_max=4, trials=10, seed=seed)
    with pytest.raises(PropositionViolated) as reference:
        reference_check_propositions(n_max=4, trials=10, seed=seed, corrupt=True)
    assert excinfo.value.name == reference.value.name == "projection_is_density"
    assert excinfo.value.trial == reference.value.trial
    assert str(excinfo.value) == str(reference.value)
    assert "trial" in str(excinfo.value)


# (6, 30) is the benchmark's audit shape; 1000003 its held-out seed.
@pytest.mark.parametrize(
    "n_max,trials,seed",
    [(n, t, seed) for n, t in [(2, 9), (3, 13), (6, 23), (6, 30)] for seed in range(5)]
    + [(6, 30, 1000003)],
)
def test_check_propositions_matches_the_sequential_reference(n_max, trials, seed):
    batched = check_propositions(n_max, trials, seed)
    reference = reference_check_propositions(n_max, trials, seed)
    assert batched.passed == reference.passed
    for got, want in zip(batched.rows, reference.rows, strict=True):
        assert (got.name, got.attempts, got.failures) == (want.name, want.attempts, want.failures)
        assert abs(got.worst_residual - want.worst_residual) <= 1e-15


def _inject_faults(monkeypatch):
    """Data-dependent faults in the state draws, the lift builder (which
    also builds the purifications, as lifts to rank one) and the density
    gate of its results, so that several trials of several dimensions
    fail; the batched audit must still report the lowest failing trial,
    as the trial-by-trial reference does.  Both reach the same private
    builder, patched in each module that looks it up; the hook tests each
    lift it is asked for, so a fault fires in a stack of one as in the
    batched stacks.  Over seeds
    0-7 the winners include a builder error, a trace failure below a
    positivity failure of the same stack (a stacked gate tests
    positivity first), and a positivity failure at a trial's first
    target with a builder error at its last."""
    draw = density._random_density_matrix
    lift_blocks = density._lift_blocks

    def faulty_draw(n, kind, rngs):
        mat = draw(n, kind, rngs)  # a stack of draws
        scale = np.where((n == 5) & (mat.alpha[..., 0, 0].real > 0.26), 1.5, 1.0)
        return QMatrix(mat.alpha * scale[..., None, None], mat.beta * scale[..., None, None])

    def lifts_of(sources, owner, targets):
        # (matrix, rank, target) of each lift the builder is asked for
        n = sources.dim
        mats, ranks = sources.mat.reshape(-1, n, n), np.reshape(sources.rank, -1)
        owner, targets = np.broadcast_arrays(owner, targets)
        return [(mats[i], ranks[i], target) for i, target in zip(owner.flat, targets.flat)]

    def faulty_lift_blocks(sources, owner, targets):
        n = sources.dim
        lifts = lifts_of(sources, owner, targets)
        for mat, rank, target in lifts:
            if n in (3, 6) and target == rank and mat[0, 0].real > 0.45:
                raise RankOutOfRange(f"injected lift fault at {float(mat[0, 0].real)!r}")
            if n == 4 and rank == 2 and target == 1 and mat[1, 1].real > 0.5:
                raise NotNormalized(f"injected rank-one lift fault at {float(mat[1, 1].real)!r}")
        alpha, beta = lift_blocks(sources, owner, targets)
        if n != 6:
            return alpha, beta
        alpha, beta = alpha.reshape(-1, n, n).copy(), beta.reshape(-1, n, n).copy()
        for j, (mat, rank, target) in enumerate(lifts):
            if target == rank - 1 and mat[2, 2].real > 0.25:
                alpha[j], beta[j] = alpha[j] * 1.5, beta[j] * 1.5  # TraceNotOne, for purify too
            elif target == (rank + 1) // 2 < rank - 1 and mat[3, 3].real > 0.15:
                alpha[j] += np.diag([1.0, -1.0, 0, 0, 0, 0])  # NotPositive, trace kept
        return alpha.reshape(*np.shape(owner), n, n), beta.reshape(*np.shape(owner), n, n)

    for module in (density, scenario):
        monkeypatch.setattr(module, "_random_density_matrix", faulty_draw)
        monkeypatch.setattr(module, "_lift_blocks", faulty_lift_blocks)


# In the smaller shapes only the dimension-3 lift fault and the
# dimension-4 rank-one lift fault can fire.  The reference fails at every
# seed listed: for (3, 11) they are the first eight at which it fails,
# for (4, 25) eight of the first eleven (the rank-one fault also fires in
# lifts of rank-two sources to rank one, at seeds 0, 8 and 11).
@pytest.mark.parametrize(
    "n_max,trials,seed",
    [pytest.param(6, 40, seed, id=str(seed)) for seed in range(8)]
    + [(4, 25, seed) for seed in (1, 2, 6, 9, 12, 13, 14, 16)]
    + [(3, 11, seed) for seed in (0, 2, 4, 6, 9, 11, 12, 13)],
)
def test_check_propositions_raises_what_the_lowest_failing_trial_raises(
    monkeypatch, n_max, trials, seed
):
    _inject_faults(monkeypatch)
    with pytest.raises(Exception) as reference:
        reference_check_propositions(n_max, trials, seed)
    with pytest.raises(Exception) as batched:
        check_propositions(n_max, trials, seed)
    assert isinstance(reference.value, QmixError)  # an injected fault, not a stale hook
    assert type(batched.value) is type(reference.value)
    assert str(batched.value) == str(reference.value)


def test_check_propositions_raises_when_only_the_stacked_lift_gate_fails(monkeypatch):
    # No single lift fails, so no trial fails on its own: the audit must
    # still raise the stacked gate's error, not return a summary.
    gate = scenario._density_gate

    def lift_stack_fails(mat, tol):
        # At n = 2 every source has rank 2 and two lift targets, so the
        # one QMatrix stack holds five states, ten lifts and five purifications.
        if isinstance(mat, QMatrix) and mat.alpha.ndim == 3 and len(mat.alpha) == 5 + 2 * 5 + 5:
            raise TraceNotOne("injected failure of the stacked lift gate")
        return gate(mat, tol)

    monkeypatch.setattr(scenario, "_density_gate", lift_stack_fails)
    with pytest.raises(TraceNotOne, match="stacked lift gate"):
        check_propositions(n_max=2, trials=5, seed=0)


# -- judged failures: data every gate admits and a check rejects --------------

def _state_trace_off(monkeypatch):
    # the dimension-4 states' trace is off by 5e-11: inside the gates'
    # 1e-10, outside projection_is_density's 1e-12
    draw = density._random_density_matrix

    def draw_off(n, kind, rngs):
        mat = draw(n, kind, rngs)
        return mat * (1 + 5e-11) if n == 4 else mat

    for module in (density, scenario):
        monkeypatch.setattr(module, "_random_density_matrix", draw_off)


def _state_rank_off_bounds(monkeypatch):
    # weight 1.5e-12 on a quaternionic pure state: quaternionic rank two,
    # but the projection splits the weight over two eigenvalues of 7.5e-13,
    # under the 1e-12 rank threshold, so rank_alpha = 1 < m
    draw = density._random_density_matrix
    weight, e = 1.5e-12, np.eye(3)
    tail = np.sqrt(weight / 2)
    state = QMatrix.from_complex(np.diag([1 - weight, 0, 0])) + block_purify(e[1], e[2], tail, tail)

    def draw_state(n, kind, rngs):
        mat = draw(n, kind, rngs)  # a stack of draws
        if n != 3:
            return mat
        blocks = (state.alpha, state.beta)
        return QMatrix(*(np.broadcast_to(block, mat.shape).copy() for block in blocks))

    for module in (density, scenario):
        monkeypatch.setattr(module, "_random_density_matrix", draw_state)


def _full_rank_lift_shifted(monkeypatch):
    # at n = 3, a lift that pairs nothing gets alpha shifted by +-1e-11 on
    # two diagonal entries: trace kept, no eigenvalue below -1e-11
    lift_blocks = density._lift_blocks

    def shifted(sources, owner, targets):
        alpha, beta = lift_blocks(sources, owner, targets)
        if sources.dim != 3:
            return alpha, beta
        unpaired = np.reshape(sources.rank, -1)[owner] == targets
        shift = np.diag([1e-11, -1e-11, 0.0])
        return alpha + np.where(unpaired[..., None, None], shift, 0.0), beta

    for module in (density, scenario):
        monkeypatch.setattr(module, "_lift_blocks", shifted)


def _rank_one_lift_not_idempotent(monkeypatch):
    # at n = 5, beta of a lift of a rank-two source to rank one is scaled
    # so its second eigenvalue moves to -9e-11: inside the gate, and alpha
    # (the round trip) untouched, but ||P^2 - P|| is about 1.3e-10
    lift_blocks = density._lift_blocks

    def scaled(sources, owner, targets):
        alpha, beta = lift_blocks(sources, owner, targets)
        if sources.dim != 5:
            return alpha, beta
        n = sources.dim
        eigs = sources.eigenvalues.reshape(-1, n)[owner]
        product = eigs[..., -1] * eigs[..., -2]
        purified = (np.reshape(sources.rank, -1)[owner] == 2) & (targets == 1)
        scale = np.where(purified, np.sqrt(1 + 9e-11 / product), 1.0)
        return alpha, beta * scale[..., None, None]

    for module in (density, scenario):
        monkeypatch.setattr(module, "_lift_blocks", scaled)


def _rank_three_draw_of_rank_two(monkeypatch):
    # every rank-three draw loses its third weight, so purify accepts the
    # density it should refuse; the reference draws through the same hook
    densities = scenario._complex_densities

    def drop_third_weight(parts, weights):
        if weights.shape[-1] == 3:
            weights = weights.copy()
            weights[..., 2] = 0.0
        return densities(parts, weights)

    def reference_draw(rng, n, rank):
        parts, weights = rng.standard_normal((2, n, rank)), rng.uniform(0.2, 1.0, rank)
        return CDensity.from_matrix(scenario._complex_densities(parts[None], weights[None])[0])

    monkeypatch.setattr(scenario, "_complex_densities", drop_third_weight)
    monkeypatch.setattr(support, "_random_complex_density_of_rank", reference_draw)


JUDGED_HOOKS = {
    "projection_is_density": _state_trace_off,
    "projection_rank_bounds": _state_rank_off_bounds,
    "lift_round_trip": _full_rank_lift_shifted,
    "purify_rank_two": _rank_one_lift_not_idempotent,
    "purify_rank_two-refusal": _rank_three_draw_of_rank_two,
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("hook", sorted(JUDGED_HOOKS))
def test_check_propositions_judges_what_every_gate_admits(monkeypatch, hook, seed):
    JUDGED_HOOKS[hook](monkeypatch)
    with pytest.raises(PropositionViolated) as reference:
        reference_check_propositions(6, 40, seed)
    with pytest.raises(PropositionViolated) as batched:
        check_propositions(6, 40, seed)
    name = hook.split("-")[0]
    assert reference.value.name == name
    assert type(batched.value) is type(reference.value)
    assert str(batched.value) == str(reference.value)
    # the batched pass failed the same judgement, past every gate
    assert isinstance(batched.value.__context__, PropositionViolated)
    assert batched.value.__context__.name == name


def test_a_draw_called_proper_is_one_error_line(monkeypatch, capsys):
    # an improper draw that the zero test calls proper is refused, not
    # redrawn: the CLI prints one line, and the audit and its reference
    # name the failure alike
    classify = density._mixture_kind
    monkeypatch.setattr(density, "_mixture_kind", lambda m: (MixtureKind.PROPER, classify(m)[1]))
    monkeypatch.delenv("QMIX_SEED", raising=False)
    assert main(["check-props", "--nmax", "2", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    with pytest.raises(PropositionViolated) as batched:
        check_propositions(2, 1, 0)
    with pytest.raises(PropositionViolated) as reference:
        reference_check_propositions(2, 1, 0)
    message = str(batched.value)
    assert message == str(reference.value)
    assert "(trial 0): state generation failed: random improper draw is proper" in message
    assert captured == ("", f"error: {message}\n")
