"""Acceptance suite: one test per criterion, tolerances pinned.

Every test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` and in captured output on failure) before asserting, so a
run documents each criterion's outcome and measured worst case.
"""

import time

import numpy as np

from qmix import (
    CDensity,
    MixtureKind,
    Observable,
    Propagator,
    QMatrix,
    complex_projection,
    embed_proper,
    evolve,
    expectation,
    expm_q,
    frobenius_norm,
    integrate,
    lift,
    partition_witness,
    projected_evolution,
    projected_rate_check,
    purify,
    random_density,
    random_generator,
    rank_q,
    run_scenario,
)
from qmix.errors import NotPurifiable

from support import random_complex, random_complex_unitary

KINDS = (MixtureKind.IMPROPER, "Pure-Q", MixtureKind.PROPER)

_trial_cache = {}


def thousand_trials():
    """1000 random densities over n in {2..6}, shared by criteria 1 and 2."""
    if "densities" not in _trial_cache:
        rng = np.random.default_rng(20240817)
        _trial_cache["densities"] = [
            random_density(2 + trial % 5, KINDS[trial % 3], rng) for trial in range(1000)
        ]
    return _trial_cache["densities"]


def random_cdensity(rng, n, rank):
    frame = np.linalg.qr(random_complex(rng, n, rank))[0]
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    return CDensity.from_matrix((frame * weights) @ frame.conj().T)


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_projection_is_a_density():
    start = time.perf_counter()
    worst_herm = worst_neg = worst_trace = 0.0
    for rho in thousand_trials():
        projected = complex_projection(rho).mat
        worst_herm = max(worst_herm, np.abs(projected - projected.conj().T).max())
        eigs = np.linalg.eigvalsh(projected)
        worst_neg = max(worst_neg, -eigs.min())
        worst_trace = max(worst_trace, abs(np.trace(projected).real - 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        worst_herm <= 1e-10
        and worst_neg <= 1e-10
        and worst_trace <= 1e-12
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"1000 trials: herm {worst_herm:.2e}, negativity {worst_neg:.2e}, "
        f"trace {worst_trace:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_projection_rank_bounds():
    holds = 0
    trials = thousand_trials()
    for rho in trials:
        m = rank_q(rho.mat)
        rank_alpha = complex_projection(rho).rank
        holds += m <= rank_alpha <= 2 * m
    report(2, holds == len(trials), f"{holds}/{len(trials)} trials satisfy m <= rank <= 2m")


def test_criterion_03_lift_sweep():
    rng = np.random.default_rng(3)
    failures = 0
    worst_round_trip = 0.0
    cases = 0
    for m in range(2, 7):
        for target in range((m + 1) // 2, m + 1):
            for trial in range(50):
                n = m if trial % 2 else min(m + 1, 6)
                source = random_cdensity(rng, n, m)
                lifted = lift(source, target)
                round_trip = np.abs(lifted.alpha - source.mat).max()
                worst_round_trip = max(worst_round_trip, round_trip)
                got = rank_q(lifted.mat)
                failures += round_trip > 1e-12 or got != target
                cases += 1
    report(
        3,
        failures == 0,
        f"{cases} lifts, {failures} failures, worst round trip {worst_round_trip:.2e}",
    )


def test_criterion_04_purify_rank_two_only():
    rng = np.random.default_rng(4)
    pure_ok = 0
    worst_idem = 0.0
    for trial in range(200):
        source = random_cdensity(rng, 2 + trial % 5, 2)
        pure = purify(source)
        idem = frobenius_norm(pure.mat @ pure.mat - pure.mat)
        worst_idem = max(worst_idem, idem)
        pure_ok += rank_q(pure.mat) == 1 and idem <= 1e-10
    refused = 0
    for trial in range(200):
        source = random_cdensity(rng, 3 + trial % 4, 3)
        try:
            purify(source)
        except NotPurifiable:
            refused += 1
    ok = pure_ok == 200 and refused == 200
    report(
        4,
        ok,
        f"rank-2: {pure_ok}/200 pure (worst idempotency {worst_idem:.2e}), "
        f"rank-3 refusals {refused}/200",
    )


def test_criterion_05_complex_observables_blind_to_class():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(500):
        n = 2 + trial % 5
        rank = int(rng.integers(2, n + 1))
        source = random_cdensity(rng, n, rank)
        proper = embed_proper(source)
        target = int(rng.integers((rank + 1) // 2, rank + 1))
        improper = lift(source, target)
        herm = random_complex(rng, n)
        obs = Observable.from_complex((herm + herm.conj().T) / 2)
        worst = max(worst, abs(expectation(obs, proper) - expectation(obs, improper)))
    report(5, worst <= 1e-11, f"500 class pairs, worst expectation gap {worst:.2e}")


def test_criterion_06_balanced_purification_bit_level():
    pure = purify(CDensity.from_matrix(np.diag([0.5, 0.5])))
    alpha_dev = np.abs(pure.alpha - np.diag([0.5, 0.5])).max()
    beta_dev = np.abs(pure.beta - np.array([[0, -0.5], [0.5, 0]])).max()
    ok = alpha_dev <= 1e-14 and beta_dev <= 1e-14
    report(6, ok, f"alpha dev {alpha_dev:.2e}, beta dev {beta_dev:.2e}")


def test_criterion_07_integrator_matches_propagator():
    rng = np.random.default_rng(7)
    gen = random_generator(4, rng, quaternionic=True)
    rho = random_density(4, MixtureKind.IMPROPER, rng)
    prop = Propagator(u=expm_q(gen.h * -1.0))
    exact = evolve(rho, prop)
    err_1000 = frobenius_norm(exact.mat - integrate(rho, gen, 1.0, 1000).mat)
    err_250 = frobenius_norm(exact.mat - integrate(rho, gen, 1.0, 250).mat)
    err_125 = frobenius_norm(exact.mat - integrate(rho, gen, 1.0, 125).mat)
    ratio = err_125 / err_250
    ok = err_1000 <= 1e-8 and 10.0 <= ratio <= 24.0
    report(7, ok, f"error at 1000 steps {err_1000:.2e}, halving ratio {ratio:.1f}")


def test_criterion_08_projection_path_checks():
    rng = np.random.default_rng(8)
    worst_path = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 5))
        rho = random_density(n, MixtureKind.IMPROPER, rng)
        gen = random_generator(n, rng, quaternionic=True)
        prop = Propagator(u=expm_q(gen.h * -1.0))
        gap = np.abs(
            projected_evolution(rho, prop).mat - complex_projection(evolve(rho, prop)).mat
        ).max()
        worst_path = max(worst_path, gap)
    gen = random_generator(3, rng, quaternionic=True)
    rho = random_density(3, MixtureKind.IMPROPER, rng)
    coarse = projected_rate_check(rho, gen, h=1e-3)
    fine = projected_rate_check(rho, gen, h=5e-4)
    ratio = coarse / fine
    ok = worst_path <= 1e-11 and abs(ratio - 4.0) <= 0.5
    report(8, ok, f"worst path gap {worst_path:.2e}, rate ratio {ratio:.2f}")


def test_criterion_09_partition_dichotomy():
    rng = np.random.default_rng(9)
    preserved = 0
    for trial in range(500):
        n = 2 + trial % 3
        rho = random_density(n, KINDS[trial % 3], rng)
        prop = Propagator(QMatrix.from_complex(random_complex_unitary(rng, n)))
        preserved += evolve(rho, prop).classification == rho.classification
    leaks = {}
    for n in (2, 3, 4):
        _, _, leak = partition_witness(n, seed=900 + n)
        leaks[n] = leak
    ok = preserved == 500 and all(leak > 1e-6 for leak in leaks.values())
    report(
        9,
        ok,
        f"{preserved}/500 complex evolutions preserve the class, "
        f"witness leaks {', '.join(f'n={n}: {leak:.2e}' for n, leak in leaks.items())}",
    )


def test_criterion_10_measurement_scenario():
    worst_mix = worst_obs = worst_disc = worst_disc_zero = 0.0
    slowest = 0.0
    for weight in (0.5, 0.7, 0.9):
        start = time.perf_counter()
        reportage = run_scenario(np.sqrt(weight), np.sqrt(1 - weight))
        slowest = max(slowest, time.perf_counter() - start)
        worst_mix = max(worst_mix, reportage.checks["partial_trace_matches_lueders"].residual)
        worst_obs = max(worst_obs, reportage.checks["complex_observables_agree"].residual)
        theory = 2 * weight * (1 - weight)
        worst_disc = max(
            worst_disc, abs(reportage.quaternionic_discriminator.on_improper - theory)
        )
        worst_disc_zero = max(
            worst_disc_zero, abs(reportage.quaternionic_discriminator.on_proper)
        )
    ok = (
        worst_mix <= 1e-12
        and worst_obs <= 1e-11
        and worst_disc <= 1e-10
        and worst_disc_zero <= 1e-12
        and slowest < 1.0
    )
    report(
        10,
        ok,
        f"mixtures {worst_mix:.2e}, observables {worst_obs:.2e}, "
        f"discriminator {worst_disc:.2e}/{worst_disc_zero:.2e}, slowest {slowest:.3f}s",
    )
