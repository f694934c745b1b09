"""Measurement scenario end to end, plus the randomized audit."""

import warnings

import numpy as np
import pytest

from qmix import (
    MixtureKind,
    Propagator,
    QMatrix,
    check_propositions,
    evolve,
    run_scenario,
)
from qmix import density, scenario
from qmix.errors import (
    NotNormalized,
    PropositionViolated,
    QmixError,
    RankOutOfRange,
    TraceNotOne,
)
from qmix.scenario import direction_basis, spin_along

from support import random_complex_unitary, reference_check_propositions

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
    table = {row.label: row for row in report.complex_expectation_table}
    assert table["sigma_z"].on_proper == pytest.approx(0.0, abs=1e-12)
    assert table["identity"].on_proper == pytest.approx(1.0)


def test_scenario_unbalanced_amplitudes():
    report = run_scenario(np.sqrt(0.7), np.sqrt(0.3))
    assert report.passed
    table = {row.label: row for row in report.complex_expectation_table}
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
    table = {row.label: row for row in report.complex_expectation_table}
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
    ],
)
def test_scenario_rejects_non_finite_direction(n_hat, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QmixError) as excinfo:
            run_scenario(0.6, 0.8, n_hat=n_hat)
    assert f"{name} = " in str(excinfo.value)


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


@pytest.mark.parametrize("seed", range(8))
def test_check_propositions_negative_control(monkeypatch, seed):
    # every drawn state gets the reference's corruption: a beta made
    # symmetric and shifted, so never skew; the audit must catch it
    draw = scenario._draw_trial

    def corrupted_draw(seed, trial, n):
        state, *rest = draw(seed, trial, n)
        beta = (state.beta + state.beta.T) / 2 + 0.1 * np.eye(n)
        return (QMatrix(state.alpha, beta), *rest)

    monkeypatch.setattr(scenario, "_draw_trial", corrupted_draw)
    with pytest.raises(PropositionViolated) as excinfo:
        check_propositions(n_max=4, trials=10, seed=seed)
    with pytest.raises(PropositionViolated) as reference:
        reference_check_propositions(n_max=4, trials=10, seed=seed, corrupt=True)
    assert excinfo.value.name == reference.value.name == "projection_is_density"
    assert excinfo.value.seed == reference.value.seed
    assert str(excinfo.value) == str(reference.value)
    assert "seed" in str(excinfo.value)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n_max,trials", [(2, 9), (3, 13), (6, 23)])
def test_check_propositions_matches_the_sequential_reference(seed, n_max, trials):
    batched = check_propositions(n_max, trials, seed)
    reference = reference_check_propositions(n_max, trials, seed)
    assert batched.passed == reference.passed
    for got, want in zip(batched.rows, reference.rows, strict=True):
        assert (got.name, got.attempts, got.failures) == (want.name, want.attempts, want.failures)
        assert abs(got.worst_residual - want.worst_residual) <= 1e-15


def _inject_faults(monkeypatch):
    """Data-dependent faults in the state draws, the lift and purify
    builders and the density gate of their results, so that several
    trials of several dimensions fail; the batched audit must still
    report the lowest failing trial, as the trial-by-trial reference
    does.  Both reach the same private builders, patched in each module
    that looks them up.  Over seeds 0-7 the winners include a builder
    error, a trace failure below a positivity failure of the same stack
    (a stacked gate tests positivity first), and a positivity failure at
    a trial's first target with a builder error at its last."""
    draw = density._random_density_matrix
    lift_blocks, purify_blocks = density._lift_blocks, density._purify_blocks

    def faulty_draw(n, kind, rng):
        mat = draw(n, kind, rng)
        return mat * 1.5 if n == 5 and mat.alpha[0, 0].real > 0.26 else mat

    def faulty_lift_blocks(source, target):
        if source.dim in (3, 6) and target == source.rank and source.mat[0, 0].real > 0.45:
            raise RankOutOfRange(f"injected lift fault at {float(source.mat[0, 0].real)!r}")
        alpha, beta = lift_blocks(source, target)
        if source.dim != 6:
            return alpha, beta
        if target == source.rank - 1 and source.mat[2, 2].real > 0.25:
            return alpha * 1.5, beta * 1.5  # TraceNotOne, for purify too
        if target == (source.rank + 1) // 2 < source.rank - 1 and source.mat[3, 3].real > 0.15:
            return alpha + np.diag([1.0, -1.0, 0, 0, 0, 0]), beta  # NotPositive, trace kept
        return alpha, beta

    def faulty_purify_blocks(source):
        if source.dim == 4 and source.rank == 2 and source.mat[1, 1].real > 0.5:
            raise NotNormalized(f"injected purify fault at {float(source.mat[1, 1].real)!r}")
        return purify_blocks(source)

    for module in (density, scenario):
        monkeypatch.setattr(module, "_random_density_matrix", faulty_draw)
        monkeypatch.setattr(module, "_lift_blocks", faulty_lift_blocks)
        monkeypatch.setattr(module, "_purify_blocks", faulty_purify_blocks)


# In the smaller shapes only the dimension-3 lift fault and the
# dimension-4 purify fault can fire, so their seeds are the first eight
# at which the reference fails.
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
    assert type(batched.value) is type(reference.value)
    assert str(batched.value) == str(reference.value)


def test_check_propositions_raises_when_only_the_stacked_lift_gate_fails(monkeypatch):
    # No single lift fails, so no trial fails on its own: the audit must
    # still raise the stacked gate's error, not return a summary.
    gate = scenario._density_gate

    def lift_stack_fails(mat, tol):
        # At n = 2 every source has rank 2 and two lift targets, so the
        # lifts are the one QMatrix stack of two slices per trial.
        if isinstance(mat, QMatrix) and mat.alpha.ndim == 3 and len(mat.alpha) == 2 * 5:
            raise TraceNotOne("injected failure of the stacked lift gate")
        return gate(mat, tol)

    monkeypatch.setattr(scenario, "_density_gate", lift_stack_fails)
    with pytest.raises(TraceNotOne, match="stacked lift gate"):
        check_propositions(n_max=2, trials=5, seed=0)
