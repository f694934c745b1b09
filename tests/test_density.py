"""Density layer: validation, projection, classification, lift, purify."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix import (
    CDensity,
    MixtureKind,
    Observable,
    QMatrix,
    block_purify,
    complex_projection,
    discriminating_observable,
    embed_proper,
    expectation,
    lift,
    proper_tolerance,
    purify,
    random_density,
    rank_bounds_check,
    rank_q,
    real_trace,
    validate,
)
from qmix import density
from qmix.density import _density_gate, _lift_blocks, _random_density_matrix
from qmix.errors import (
    DimensionMismatch,
    NotHermitian,
    NotNormalized,
    NotOrthogonal,
    NotPositive,
    NotPurifiable,
    QmixError,
    RankOne,
    RankOutOfRange,
    TraceNotOne,
)
from qmix.qmatrix import VALIDATION_TOL, chi_inverse

from support import (
    NON_FINITE_CASES,
    assert_names_value_and_tolerance,
    qclose,
    random_complex,
    with_non_finite,
)

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
HALF = 1 / np.sqrt(2)


def purified_two_level() -> QMatrix:
    return QMatrix(np.diag([0.5, 0.5]), np.array([[0, -0.5], [0.5, 0]]))


def random_cdensity(rng, n, rank=None) -> CDensity:
    rank = n if rank is None else rank
    frame = np.linalg.qr(random_complex(rng, n, rank))[0]
    weights = rng.uniform(0.2, 1.0, size=rank)
    weights /= weights.sum()
    return CDensity.from_matrix((frame * weights) @ frame.conj().T)


# -- validation ---------------------------------------------------------

def test_validate_maximally_mixed_is_proper():
    rho = validate(QMatrix.from_complex(np.eye(2) / 2))
    assert rho.classification is MixtureKind.PROPER
    assert rho.beta_norm == 0.0


def test_validate_purified_state_improper_and_pure():
    rho = validate(purified_two_level())
    assert rho.classification is MixtureKind.IMPROPER
    assert rank_q(rho.mat) == 1


def test_validate_rejects_indefinite():
    mat = QMatrix(np.diag([0.7, 0.3]), np.array([[0, 0.6], [-0.6, 0]]))
    with pytest.raises(NotPositive):
        validate(mat)


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        validate(QMatrix(np.diag([0.5, 0.5]), np.eye(2)))  # symmetric beta


def test_validate_rejects_wrong_trace():
    with pytest.raises(TraceNotOne):
        validate(QMatrix.from_complex(np.eye(2)))


def test_validate_error_message_carries_deviation():
    with pytest.raises(TraceNotOne, match="deviates from 1 by"):
        validate(QMatrix.from_complex(np.eye(2)))


def _no_eigensolver(*args, **kwargs):
    raise AssertionError("non-finite input reached an eigensolver")


@pytest.mark.parametrize("block,position,value", NON_FINITE_CASES)
def test_validate_rejects_non_finite_before_eigensolver(monkeypatch, block, position, value):
    mat = with_non_finite(QMatrix.from_complex(np.eye(2) / 2), block, position, value)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    with pytest.raises(NotHermitian) as excinfo:
        validate(mat)
    assert_names_value_and_tolerance(excinfo.value, 1e-10)


@pytest.mark.parametrize(
    "position,value", [(p, v) for b, p, v in NON_FINITE_CASES if b == "alpha"]
)
def test_cdensity_rejects_non_finite_before_eigensolver(monkeypatch, position, value):
    mat = with_non_finite(QMatrix.from_complex(np.eye(2) / 2), "alpha", position, value)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    with pytest.raises(NotHermitian) as excinfo:
        CDensity.from_matrix(mat.alpha)
    assert_names_value_and_tolerance(excinfo.value, 1e-10)


@pytest.mark.parametrize("block,position,value", NON_FINITE_CASES)
def test_observable_rejects_non_finite(block, position, value):
    mat = with_non_finite(QMatrix.from_complex(np.diag([1.0, -1.0])), block, position, value)
    with pytest.raises(NotHermitian) as excinfo:
        Observable.from_qmatrix(mat)
    assert_names_value_and_tolerance(excinfo.value, 1e-10)


def _random_states(seed, count, n):
    rng = np.random.default_rng(seed)
    return [random_density(n, MixtureKind.IMPROPER, rng).mat for _ in range(count)]


def _stack(mats):
    return QMatrix(np.stack([m.alpha for m in mats]), np.stack([m.beta for m in mats]))


def test_density_gate_on_a_stack_gives_the_per_slice_spectra():
    mats = _random_states(41, 5, 4)
    spectra = _density_gate(_stack(mats), 1e-10)
    complex_spectra = _density_gate(np.stack([m.alpha for m in mats]), 1e-10)
    assert spectra.shape == complex_spectra.shape == (5, 4)
    for i, mat in enumerate(mats):
        assert np.array_equal(spectra[i], _density_gate(mat, 1e-10))
        assert np.array_equal(complex_spectra[i], _density_gate(mat.alpha, 1e-10))


@pytest.mark.parametrize("block,position,value", NON_FINITE_CASES)
def test_density_gate_stack_names_non_finite_slice_before_eigensolver(
    monkeypatch, block, position, value
):
    mats = _random_states(42, 4, 3)
    mats[1] = with_non_finite(mats[1], block, position, value)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    stacks = [_stack(mats)] + ([np.stack([m.alpha for m in mats])] if block == "alpha" else [])
    for stack in stacks:
        with pytest.raises(NotHermitian) as excinfo:
            _density_gate(stack, 1e-10)
        assert excinfo.value.index == (1,)
        assert str(excinfo.value).endswith(" at slice 1")
        assert_names_value_and_tolerance(excinfo.value, 1e-10)


@pytest.mark.parametrize(
    "error,spoil",
    [
        (NotPositive, lambda m: QMatrix(m.alpha + np.diag([1.0, 0.0, -1.0]), m.beta)),
        (TraceNotOne, lambda m: m * 1.25),
    ],
)
def test_density_gate_stack_reports_the_first_failing_slice(error, spoil):
    mats = _random_states(43, 5, 3)
    for i in (2, 4):
        mats[i] = spoil(mats[i])
    with pytest.raises(error) as alone:
        _density_gate(mats[2], 1e-10)
    with pytest.raises(error) as stacked:
        _density_gate(_stack(mats), 1e-10)
    assert stacked.value.index == (2,)
    assert str(stacked.value) == f"{alone.value} at slice 2"


@pytest.mark.parametrize("quaternionic", [False, True], ids=["complex", "quaternionic"])
def test_density_gate_admits_the_largest_entry_a_density_can_have(quaternionic):
    # trace one and lowest eigenvalue -tol: the largest eigenvalue is 1 + (n-1) tol
    n, tol = 4, 1e-10
    mat = np.diag([1 + (n - 1) * tol] + [-tol] * (n - 1)).astype(complex)
    eigs = _density_gate(QMatrix.from_complex(mat) if quaternionic else mat, tol)
    assert eigs.max() == 1 + (n - 1) * tol


@pytest.mark.parametrize(
    "mat",
    [
        np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex),
        QMatrix(np.diag([0.5, 0.5]), np.array([[0, 1.7e308 + 1.7e308j], [-1.7e308 - 1.7e308j, 0]])),
        QMatrix.from_complex([[0.5, 2.0], [2.0, 0.5]]),
    ],
    ids=["complex", "quaternionic-overflow", "quaternionic"],
)
def test_density_gate_rejects_a_huge_entry_before_any_eigensolver(monkeypatch, mat):
    # unit trace, so an entry beyond the bound proves an eigenvalue below -tol
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    with pytest.raises(NotPositive, match="entry magnitude .* exceeds 1.0000000005,"):
        _density_gate(mat, 1e-10)


def test_density_gate_tests_the_trace_before_entry_magnitudes(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    with pytest.raises(TraceNotOne, match="real trace 0.0 deviates"):
        _density_gate(np.diag([1e308, -1e308]).astype(complex), 1e-10)
    with pytest.raises(TraceNotOne, match="real trace inf deviates"):
        _density_gate(np.diag([1.7e308, 1.7e308]).astype(complex), 1e-10)


def test_density_caches_its_spectrum_and_rank():
    rho = validate(purified_two_level())
    assert np.allclose(rho.eigenvalues, [0.0, 1.0], atol=1e-15)
    assert rho.rank == rank_q(rho.mat) == 1
    projected = complex_projection(rho)
    assert np.array_equal(projected.eigenvalues, np.linalg.eigvalsh(projected.mat))
    assert projected.rank == 2


# -- projection and classification ---------------------------------------

def test_projection_of_proper_state_is_identity_map():
    rng = np.random.default_rng(30)
    rho = random_density(4, MixtureKind.PROPER, rng)
    projected = complex_projection(rho)
    assert np.array_equal(projected.mat, rho.alpha)


def test_projection_of_purified_state():
    rho = validate(purified_two_level())
    projected = complex_projection(rho)
    assert np.abs(projected.mat - np.diag([0.5, 0.5])).max() < 1e-15
    assert projected.rank == 2


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_projection_always_yields_valid_density(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(n, MixtureKind.IMPROPER, rng)
    projected = complex_projection(rho)  # raises if any invariant breaks
    eigs = np.linalg.eigvalsh(projected.mat)
    assert eigs.min() >= -1e-10
    assert abs(np.trace(projected.mat).real - 1.0) <= 1e-12


def test_classify_embedded_complex_density_is_proper():
    rng = np.random.default_rng(31)
    rho = embed_proper(random_cdensity(rng, 3))
    assert rho.classification is MixtureKind.PROPER


def test_classify_lift_below_full_rank_is_improper():
    rng = np.random.default_rng(32)
    source = random_cdensity(rng, 4, rank=4)
    lowered = lift(source, 3)
    assert lowered.classification is MixtureKind.IMPROPER


def test_proper_tolerance_scales():
    assert proper_tolerance(2, 1.0) == pytest.approx(4e-12)
    assert proper_tolerance(4, 0.0) == pytest.approx(4e-12)


def _layouts(alpha: np.ndarray, beta: np.ndarray) -> dict:
    """The same matrix C-ordered, Fortran-ordered and as a [::2, ::2] slice."""
    n = alpha.shape[0]
    spread = [np.zeros((2 * n, 2 * n), dtype=complex) for _ in range(2)]
    spread[0][::2, ::2], spread[1][::2, ::2] = alpha, beta
    return {
        "C": QMatrix(alpha, beta),
        "F": QMatrix(np.asfortranarray(alpha), np.asfortranarray(beta)),
        "slice": QMatrix(spread[0][::2, ::2], spread[1][::2, ::2]),
    }


@pytest.mark.parametrize("n", range(1, 65))
def test_classification_is_one_rule_across_layouts(n):
    # a drawn complex density with a skew beta at factors of the zero test's
    # threshold: the bits of np.linalg.norm and the hand-written test decide,
    # whatever the layout, and a stack decides slice by slice alike
    rng = np.random.default_rng(n)
    alpha = random_density(n, "Proper", rng).alpha
    skew = random_complex(rng, n)
    skew = skew - skew.T
    tol = proper_tolerance(n, float(np.linalg.norm(alpha)))
    factors = (0.0, 0.5, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 2.0) if n > 1 else (0.0,)
    draws = [skew * (f * tol / np.linalg.norm(skew)) if f else 0 * skew for f in factors]
    alpha = [alpha] * len(draws)
    if n > 1:
        improper = random_density(n, "Improper", rng)
        alpha.append(improper.alpha)
        draws.append(improper.beta)
    alpha = np.stack(alpha)
    kinds = set()
    for a, beta in zip(alpha, draws):
        for layout, m in _layouts(a, beta).items():
            # each layout sums in its own memory order, so its bits may differ
            norm = float(np.linalg.norm(m.beta))
            threshold = proper_tolerance(n, float(np.linalg.norm(m.alpha)))
            rho = validate(m)
            assert rho.beta_norm == norm, layout
            assert type(rho.beta_norm) is float
            want = MixtureKind.PROPER if norm <= threshold else MixtureKind.IMPROPER
            assert rho.classification is want, layout
            kinds.add(want)
            for bound in (threshold, VALIDATION_TOL):
                witness = Observable.from_qmatrix(m, bound)
                assert type(witness.is_complex) is bool
                assert witness.is_complex == (norm <= bound), layout
    assert len(kinds) == (2 if n > 1 else 1)
    stacked, norms = density._mixture_kind(QMatrix(alpha, np.stack(draws)))
    for i, (a, beta) in enumerate(zip(alpha, draws)):
        alone = validate(QMatrix(a, beta))
        assert stacked[i] is alone.classification
        assert norms[i] == alone.beta_norm


# -- expectation values ---------------------------------------------------

def test_expectation_of_identity_is_one():
    rng = np.random.default_rng(33)
    rho = random_density(3, MixtureKind.IMPROPER, rng)
    assert expectation(Observable.from_complex(np.eye(3)), rho) == pytest.approx(1.0)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_expectation_of_sigma_z_ignores_beta(p):
    sigma_z = Observable.from_complex(np.diag([1.0, -1.0]))
    weights = np.diag([p, 1 - p])
    proper = validate(QMatrix.from_complex(weights))
    improper = validate(block_purify(E0, E1, np.sqrt(p), np.sqrt(1 - p)))
    assert expectation(sigma_z, proper) == pytest.approx(2 * p - 1)
    assert expectation(sigma_z, improper) == pytest.approx(2 * p - 1)


def test_discriminator_separates_the_class():
    # oracle: Re Tr(-conj(beta) beta) = ||beta||_F^2 = 1/2 for this state
    improper = validate(purified_two_level())
    proper = embed_proper(complex_projection(improper))
    witness = discriminating_observable(improper)
    assert expectation(witness, improper) == pytest.approx(0.5, abs=1e-14)
    assert expectation(witness, proper) == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_discriminator_value_is_beta_norm_squared(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(3, MixtureKind.IMPROPER, rng)
    witness = discriminating_observable(rho)
    assert expectation(witness, rho) == pytest.approx(rho.beta_norm**2, rel=1e-10)
    assert expectation(witness, embed_proper(complex_projection(rho))) == 0.0


def test_complex_observables_cannot_distinguish_class_members():
    rng = np.random.default_rng(34)
    for _ in range(50):
        source = random_cdensity(rng, 4)
        members = [embed_proper(source)]
        for target in range((source.rank + 1) // 2, source.rank + 1):
            members.append(lift(source, target))
        herm = random_complex(rng, 4)
        obs = Observable.from_complex((herm + herm.conj().T) / 2)
        values = [expectation(obs, member) for member in members]
        assert max(values) - min(values) <= 1e-11


def test_expectation_dimension_check():
    rho = validate(QMatrix.from_complex(np.eye(2) / 2))
    with pytest.raises(DimensionMismatch):
        expectation(Observable.from_complex(np.eye(3)), rho)


# -- rank bounds -----------------------------------------------------------

def test_rank_bounds_proper():
    rng = np.random.default_rng(35)
    rho = random_density(4, MixtureKind.PROPER, rng)
    m, rank_alpha, ok = rank_bounds_check(rho)
    assert ok and rank_alpha == m


def test_rank_bounds_purified_state():
    rho = validate(purified_two_level())
    assert rank_bounds_check(rho) == (1, 2, True)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=80, deadline=None)
def test_rank_bounds_hold_on_randoms(seed, n):
    rng = np.random.default_rng(seed)
    kind = [MixtureKind.IMPROPER, "Pure-Q"][seed % 2]
    rho = random_density(n, kind, rng)
    _, _, ok = rank_bounds_check(rho)
    assert ok


# -- block_purify ----------------------------------------------------------

def test_block_purify_degenerate_pair_is_complex():
    block = block_purify(E0, E1, 1.0, 0.0)
    assert np.array_equal(block.alpha, np.diag([1.0, 0.0]))
    assert not block.beta.any()


def test_block_purify_two_level_blocks_exact():
    block = block_purify(E0, E1, HALF, HALF)
    assert np.abs(block.alpha - np.diag([0.5, 0.5])).max() <= 1e-14
    assert np.abs(block.beta - np.array([[0, -0.5], [0.5, 0]])).max() <= 1e-14


def test_block_purify_random_idempotent_after_normalization():
    rng = np.random.default_rng(36)
    for _ in range(50):
        frame = np.linalg.qr(random_complex(rng, 4))[0]
        u, v = frame[:, 0], frame[:, 1]
        cu = complex(*rng.standard_normal(2))
        cv = complex(*rng.standard_normal(2))
        block = block_purify(u, v, cu, cv)
        weight = abs(cu) ** 2 + abs(cv) ** 2
        normalized = block / weight
        assert qclose(normalized @ normalized, normalized, tol=1e-10)
        assert rank_q(block) == 1
        projection = abs(cu) ** 2 * np.outer(u, u.conj()) + abs(cv) ** 2 * np.outer(v, v.conj())
        assert np.abs(block.alpha - projection).max() <= 1e-13


def test_block_purify_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        block_purify(E0, (E0 + E1) / np.sqrt(2), HALF, HALF)


def test_block_purify_rejects_unnormalized_vectors():
    with pytest.raises(NotNormalized):
        block_purify(2 * E0, E1, HALF, HALF)
    with pytest.raises(NotNormalized):
        block_purify(np.array([np.nan, 0.0]), E1, HALF, HALF)
    with pytest.raises(NotNormalized):
        block_purify(E0, E1, 0.0, 0.0)


# -- lift -------------------------------------------------------------------

def test_lift_full_rank_target_keeps_beta_zero():
    rng = np.random.default_rng(37)
    source = random_cdensity(rng, 4)
    lifted = lift(source, source.rank)
    assert not lifted.beta.any()
    assert np.abs(lifted.alpha - source.mat).max() <= 1e-12


def test_lift_maximally_mixed_two_level_gives_purified_state():
    lifted = lift(CDensity.from_matrix(np.diag([0.5, 0.5])), 1)
    assert np.abs(lifted.alpha - np.diag([0.5, 0.5])).max() <= 1e-14
    assert np.abs(lifted.beta - np.array([[0, -0.5], [0.5, 0]])).max() <= 1e-14


def test_lift_rank_four_all_targets():
    rng = np.random.default_rng(38)
    source = random_cdensity(rng, 4, rank=4)
    for target in (2, 3, 4):
        lifted = lift(source, target)
        assert np.abs(lifted.alpha - source.mat).max() <= 1e-10
        assert rank_q(lifted.mat) == target


@pytest.mark.parametrize("seed", range(5))
def test_lift_matches_the_sum_of_purification_blocks(seed):
    # the blockwise construction, one block_purify per pair, is the oracle
    rng = np.random.default_rng(seed)
    source = random_cdensity(rng, 6, rank=int(rng.integers(2, 7)))
    for target in range((source.rank + 1) // 2, source.rank + 1):
        lifted = lift(source, target)
        eigs, vecs = source.eigenpairs
        pairs = source.rank - target
        total = QMatrix.from_complex(np.zeros((6, 6)))
        for k in range(pairs):
            a, b = 2 * k, 2 * k + 1
            total = total + block_purify(vecs[:, a], vecs[:, b], np.sqrt(eigs[a]), np.sqrt(eigs[b]))
        # every eigenpair, those below the rank threshold included
        for i in range(2 * pairs, source.dim):
            total = total + QMatrix.from_complex(eigs[i] * np.outer(vecs[:, i], vecs[:, i].conj()))
        assert qclose(lifted.mat, total, tol=1e-15)
        assert np.array_equal(lifted.beta, -lifted.beta.T)


def test_lift_decomposes_its_source_once(monkeypatch):
    source = random_cdensity(np.random.default_rng(44), 6, rank=6)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(mat) or eigh(mat))
    for target in (3, 4, 5, 6):
        lift(source, target)
    assert len(calls) == 1


def stacked_cdensity(sources) -> CDensity:
    """The sources as one CDensity stack, gated as the audit gates it."""
    mats = np.stack([source.mat for source in sources])
    return CDensity(mat=mats, eigenvalues=_density_gate(mats, 1e-10))


@pytest.mark.parametrize("n", range(2, 7))
def test_stacked_builders_give_each_slice_the_single_source_blocks(n):
    rng = np.random.default_rng(100 + n)
    sources = [random_cdensity(rng, n, rank) for rank in range(1, n + 1) for _ in range(2)]
    stack = stacked_cdensity(sources)
    lifts = [
        (i, target)
        for i, source in enumerate(sources)
        for target in range((source.rank + 1) // 2, source.rank + 1)
        if source.rank > 1
    ]
    lifts = [lifts[j] for j in rng.permutation(len(lifts))]  # targets interleaved
    owner, targets = zip(*lifts)
    alpha, beta = _lift_blocks(stack, owner, targets)
    assert alpha.shape == beta.shape == (len(lifts), n, n)
    for j, (i, target) in enumerate(lifts):
        single = lift(sources[i], target)
        assert np.array_equal(alpha[j], single.alpha) and np.array_equal(beta[j], single.beta)
    # purification of a rank-two source is its lift to rank one
    owner = [i for i, source in enumerate(sources) if source.rank == 2][::-1]
    alpha, beta = _lift_blocks(stack, owner, 1)
    for j, i in enumerate(owner):
        single = purify(sources[i])
        assert np.array_equal(alpha[j], single.alpha) and np.array_equal(beta[j], single.beta)
    # and a rank-one source is embedded
    for source in sources[:2]:
        assert source.rank == 1
        pure, embedded = purify(source), embed_proper(source)
        assert np.array_equal(pure.alpha, embedded.alpha) and np.array_equal(pure.beta, embedded.beta)
        assert pure.classification is embedded.classification is MixtureKind.PROPER


def test_stacked_builders_decompose_their_sources_once(monkeypatch):
    rng = np.random.default_rng(45)
    sources = [random_cdensity(rng, 5, rank) for rank in (1, 2, 2, 3, 5)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mat: calls.append(mat) or eigh(mat))
    _lift_blocks(stacked_cdensity(sources), [1, 3, 3, 4, 4, 4], [1, 2, 3, 3, 4, 5])
    assert len(calls) == 1
    # the audit lifts and purifies (lifts to rank one) the sources of one
    # stack in one call: one eigh for both
    _lift_blocks(stacked_cdensity(sources), [3, 4, 1, 2], [2, 3, 1, 1])
    assert len(calls) == 2


def test_gram_test_names_the_slice_of_a_stack_only(monkeypatch):
    # eigenvectors skewed off orthonormal: the first and last of each
    # source mix, so only a lift pairing both fails the Gram test
    eigh = np.linalg.eigh

    def skewed_eigh(mat):
        eigs, vecs = eigh(mat)
        return eigs, vecs + 1e-6 * vecs[..., ::-1]

    monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
    source = random_cdensity(np.random.default_rng(46), 4)
    with pytest.raises(NotOrthogonal) as excinfo:
        lift(source, 2)
    assert re.fullmatch(
        r"paired eigenvectors deviate from orthonormal by \d\.\d{3}e-0\d, beyond 1\.000e-10",
        str(excinfo.value),
    )
    lift(source, 3)
    with pytest.raises(NotOrthogonal, match=r"1\.000e-10 at slice 1$") as excinfo:
        _lift_blocks(stacked_cdensity([source, source]), [0, 1], [3, 2])
    assert excinfo.value.index == (1,)


def test_lift_rejects_out_of_range_rank():
    rng = np.random.default_rng(39)
    source = random_cdensity(rng, 4, rank=4)
    with pytest.raises(RankOutOfRange) as excinfo:
        lift(source, 1)
    assert str(excinfo.value) == (
        "target rank 1 outside admissible range [2, 4] for projection rank 4"
    )
    with pytest.raises(RankOutOfRange):
        lift(source, 5)


def test_lift_takes_numpy_integer_targets():
    source = CDensity.from_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    for target in (np.int64(2), np.uint8(2), np.intp(3)):
        assert lift(source, target).rank == target


def test_lift_rejects_rank_one():
    source = CDensity.from_matrix(np.diag([1.0, 0.0]))
    with pytest.raises(RankOne) as excinfo:
        lift(source, 1)
    assert str(excinfo.value) == "rank-one complex densities admit no lift to lower rank"


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_lift_round_trips_every_admissible_rank(seed, m):
    rng = np.random.default_rng(seed)
    source = random_cdensity(rng, 6, rank=m)
    for target in range((m + 1) // 2, m + 1):
        lifted = lift(source, target)
        assert np.abs(lifted.alpha - source.mat).max() <= 1e-12
        assert rank_q(lifted.mat) == target


# -- purify -------------------------------------------------------------------

def test_purify_rank_one_returns_embedding():
    source = CDensity.from_matrix(np.outer(E0, E0))
    pure = purify(source)
    assert pure.classification is MixtureKind.PROPER
    assert rank_q(pure.mat) == 1
    assert np.array_equal(pure.alpha, source.mat)


def test_purify_two_level():
    pure = purify(CDensity.from_matrix(np.diag([0.5, 0.5])))
    assert rank_q(pure.mat) == 1
    assert pure.classification is MixtureKind.IMPROPER


def test_purify_rank_three_refused():
    with pytest.raises(NotPurifiable) as excinfo:
        purify(CDensity.from_matrix(np.eye(3) / 3))
    assert str(excinfo.value) == (
        "projection rank 3 exceeds 2, the largest rank a quaternionic pure state can project onto"
    )


# -- hard spectra ------------------------------------------------------------
# Near-singular and near-degenerate spectra in random unitary frames, from
# n = 2 to 64.  The rank threshold is RANK_REL_TOL = 1e-12 times the trace.

HARD_DIMS = [2, 3, 8, 16, 32, 64]
HARD_FAMILIES = ["degenerate", "split-1e-11", "geometric-1e-13", "geometric-1e-14", "straddling"]


def hard_spectrum(family: str, n: int) -> np.ndarray:
    """Descending eigenvalues of unit sum."""
    levels = np.ceil(np.arange(n, 0, -1) / 2)  # equal pairs: 4, 4, 3, 3, ...
    if family == "degenerate":
        values = levels
        values[n - n // 4:] = 0.0  # and an exactly zero tail
    elif family == "split-1e-11":
        values = levels / levels.sum()
        values[0::2] += 1e-11
    elif family == "geometric-1e-13":
        values = np.geomspace(1.0, 1e-13, n)
    elif family == "geometric-1e-14":
        values = np.geomspace(1.0, 1e-14, n)
    else:  # one value each side of the threshold, below a flat head
        head = np.ones(max(n - 2, 1))
        values = np.r_[head / head.sum() * (1 - 2.5e-12), 2e-12, 5e-13][:n]
    return values / values.sum()


def rank_two_spectrum(family: str, n: int) -> np.ndarray:
    """Two values above the rank threshold, the rest of ``family``'s kind below it."""
    head, tail = {
        "degenerate": ([0.5, 0.5], np.zeros(n - 2)),
        "split-1e-11": ([0.5 + 5e-12, 0.5 - 5e-12], np.zeros(n - 2)),
        "geometric-1e-13": ([0.6, 0.4], np.geomspace(5e-13, 1e-13, n - 2)),
        "geometric-1e-14": ([0.6, 0.4], np.geomspace(5e-13, 1e-14, n - 2)),
        "straddling": ([1 - 2e-12, 2e-12], np.full(n - 2, 5e-13)),
    }[family]
    values = np.r_[head, tail]
    return values / values.sum()


def in_random_frame(values: np.ndarray, seed: int) -> CDensity:
    n = values.size
    frame = np.linalg.qr(random_complex(np.random.default_rng(seed), n))[0]
    return CDensity.from_matrix((frame * values) @ frame.conj().T)


@pytest.mark.parametrize("n", HARD_DIMS)
@pytest.mark.parametrize("family", HARD_FAMILIES)
def test_lift_round_trips_and_lands_on_its_rank_on_hard_spectra(family, n):
    values = hard_spectrum(family, n)
    source = in_random_frame(values, seed=n)
    assert source.rank == np.count_nonzero(values > 1e-12)
    targets = range((source.rank + 1) // 2, source.rank + 1) if source.rank > 1 else ()
    for target in targets:
        lifted = lift(source, target)
        assert np.abs(lifted.alpha - source.mat).max() <= 1e-12
        assert lifted.rank == target
        assert rank_bounds_check(lifted) == (target, source.rank, True)


@pytest.mark.parametrize("n", HARD_DIMS)
@pytest.mark.parametrize("family", HARD_FAMILIES)
def test_purify_round_trips_to_rank_one_on_hard_spectra(family, n):
    source = in_random_frame(rank_two_spectrum(family, n), seed=n)
    assert source.rank == 2
    pure = purify(source)
    assert np.abs(pure.alpha - source.mat).max() <= 1e-12
    assert pure.rank == 1
    assert rank_bounds_check(pure) == (1, 2, True)


# -- random generation ---------------------------------------------------------

def test_random_proper_has_zero_beta():
    rho = random_density(4, MixtureKind.PROPER, 1234)
    assert rho.beta_norm == 0.0


def test_random_pure_q_has_rank_one_with_rank_two_projection():
    rho = random_density(2, "Pure-Q", 99)
    assert rank_q(rho.mat) == 1
    assert complex_projection(rho).rank == 2


def test_random_density_deterministic_per_seed():
    a = random_density(3, MixtureKind.IMPROPER, 7)
    b = random_density(3, MixtureKind.IMPROPER, 7)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.beta, b.beta)


def test_random_density_takes_none_a_generator_and_numpy_integer_seeds():
    for seed in (None, np.random.default_rng(7), np.int64(7), np.uint8(0)):
        assert random_density(3, MixtureKind.IMPROPER, seed).dim == 3


def test_random_density_rejects_dimension_one_quaternionic():
    with pytest.raises(DimensionMismatch):
        random_density(1, MixtureKind.IMPROPER, 0)
    # a 1x1 proper density is fine
    assert random_density(1, MixtureKind.PROPER, 0).alpha[0, 0] == pytest.approx(1.0)


def _reference_draw(n, label, rng):
    """The draws as first written: a branch per kind, a vector draw for Pure-Q."""
    if label == "proper":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        return QMatrix.from_complex(mat)
    if label == "improper":
        ga = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        gb = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = QMatrix(ga, gb)
        mat = g @ g.h
    else:
        wa = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        wb = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = QMatrix(wa.reshape(-1, 1), wb.reshape(-1, 1))
        mat = w @ w.h
    return mat / real_trace(mat)


@pytest.mark.parametrize(
    "kind,n", [(kind, n) for kind in ("proper", "improper", "pure-q") for n in range(1, 9)
               if n >= 2 or kind == "proper"]
)
def test_draw_streams_are_pinned(kind, n):
    # every seeded output rests on these bits and on the stream left after them
    for seed in range(50):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _random_density_matrix(n, kind, [got_rng])[0]
        want = _reference_draw(n, kind, want_rng)
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.beta.tobytes() == want.beta.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("kind", ["Improper", "Pure-Q"])
def test_a_quaternionic_draw_called_proper_is_an_error(monkeypatch, kind):
    classify = density._mixture_kind
    monkeypatch.setattr(density, "_mixture_kind", lambda m: (MixtureKind.PROPER, classify(m)[1]))
    number = r"\d\.\d{3}e[+-]\d+"
    pattern = rf"random {kind.lower()} draw is proper: \|\|beta\|\|_F = {number} <= {number}$"
    with pytest.raises(QmixError, match=pattern):
        random_density(4, kind, 0)


# -- input errors ----------------------------------------------------------------

@pytest.mark.parametrize(
    "call,error,fragment",
    [
        (lambda: validate(QMatrix(np.eye(2, 3), np.zeros((2, 3)))), DimensionMismatch,
         "density matrix must be square, got (2, 3)"),
        (lambda: CDensity.from_matrix(np.eye(2, 3)), DimensionMismatch,
         "density matrix must be square, got (2, 3)"),
        (lambda: block_purify(E0, np.r_[E1, 0.0], 1.0, 1.0), DimensionMismatch,
         "vector shapes differ: (2,) vs (3,)"),
        (lambda: random_density(2, "mixed", 0), ValueError, "unknown density kind: 'mixed'"),
        (lambda: random_density(0, "Proper", 1), DimensionMismatch,
         "proper density dimension must be >= 1, got 0"),
        (lambda: random_density(-1, "Proper", 1), DimensionMismatch,
         "proper density dimension must be >= 1, got -1"),
        (lambda: random_density(0, "Improper", 1), DimensionMismatch,
         "improper density dimension must be >= 2, got 0"),
        (lambda: random_density(1, "Pure-Q", 1), DimensionMismatch,
         "pure-q density dimension must be >= 2, got 1"),
        (lambda: random_density(2.5, "Proper", 0), DimensionMismatch,
         "proper density dimension must be an integer, got 2.5"),
        (lambda: random_density(True, "Proper", 0), DimensionMismatch,
         "proper density dimension must be an integer, got True"),
        (lambda: random_density(2, "Proper", -1), ValueError, "seed must be >= 0, got -1"),
        (lambda: random_density(2, "Proper", 1.5), ValueError, "seed must be an integer, got 1.5"),
        (lambda: random_density(2, "Proper", "1"), ValueError, "seed must be an integer, got '1'"),
        (lambda: random_density(2, "Proper", True), ValueError,
         "seed must be an integer, got True"),
        (lambda: lift(CDensity.from_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex)), 2.0),
         RankOutOfRange, "target rank must be an integer, got 2.0"),
        (lambda: lift(CDensity.from_matrix(np.diag([0.5, 0.5]).astype(complex)), 1.5),
         RankOutOfRange, "target rank must be an integer, got 1.5"),
        (lambda: lift(CDensity.from_matrix(np.diag([0.5, 0.3, 0.2]).astype(complex)), None),
         RankOutOfRange, "target rank must be an integer, got None"),
        (lambda: lift(CDensity.from_matrix(np.diag([0.5, 0.5]).astype(complex)), 1.0),
         RankOutOfRange, "target rank must be an integer, got 1.0"),
        (lambda: lift(CDensity.from_matrix(np.diag([0.5, 0.5]).astype(complex)), True),
         RankOutOfRange, "target rank must be an integer, got True"),
        (lambda: lift(CDensity.from_matrix(np.diag([0.5, 0.5]).astype(complex)), 10**23),
         RankOutOfRange,
         f"target rank {10**23} outside admissible range [1, 2] for projection rank 2"),
        (lambda: lift(CDensity.from_matrix(np.diag([0.5, 0.5]).astype(complex)), 10**5000),
         RankOutOfRange,
         "target rank <int of 16610 bits> outside admissible range [1, 2] for projection rank 2"),
        (lambda: block_purify(E0, E1, 1e200, 1e200), NotNormalized,
         "weights cu = (1e+200+0j) and cv = (1e+200+0j) give |cu|^2 + |cv|^2 = inf"),
        (lambda: block_purify(E0, E1, np.nan, 1.0), NotNormalized,
         "weights cu = (nan+0j) and cv = (1+0j) give |cu|^2 + |cv|^2 = nan"),
        (lambda: block_purify(E0, E1, 1.0, np.inf), NotNormalized,
         "weights cu = (1+0j) and cv = (inf+0j) give |cu|^2 + |cv|^2 = inf"),
        (lambda: validate(QMatrix.identity(1), tol=np.nan), ValueError,
         "tol must be a real number with 0 < tol < 1, got nan"),
        (lambda: validate(QMatrix.identity(1), tol=-1.0), ValueError,
         "tol must be a real number with 0 < tol < 1, got -1.0"),
        (lambda: validate(QMatrix.identity(1), tol=1.0), ValueError,
         "tol must be a real number with 0 < tol < 1, got 1.0"),
        (lambda: validate(QMatrix.identity(1), tol="1e-3"), ValueError,
         "tol must be a real number with 0 < tol < 1, got '1e-3'"),
        (lambda: validate(QMatrix.identity(1), tol=10**5000), ValueError,
         "tol must be a real number with 0 < tol < 1, got <int of 16610 bits>"),
        (lambda: CDensity.from_matrix(np.eye(1), tol=np.nan), ValueError,
         "tol must be a real number with 0 < tol < 1, got nan"),
        (lambda: Observable.from_qmatrix(QMatrix.identity(1), tol=np.nan), ValueError,
         "tol must be a real number with 0 < tol < 1, got nan"),
        (lambda: chi_inverse(np.eye(2), tol=np.nan), ValueError,
         "tol must be a real number with 0 < tol < 1, got nan"),
        (lambda: expectation(None, None), ValueError, "a must be an Observable, got None"),
        (lambda: expectation(Observable.from_complex(np.eye(2)), None), ValueError,
         "rho must be a QDensity, got None"),
        (lambda: expectation(Observable.from_complex(np.eye(2)), QMatrix.identity(2)), ValueError,
         "rho must be a QDensity, got QMatrix of shape (2, 2)"),
        (lambda: expectation(Observable.from_complex(np.eye(3)), validate(QMatrix.identity(2) / 2)),
         DimensionMismatch, "observable dimension 3 != state dimension 2"),
        (lambda: validate(np.eye(2) / 2), ValueError,
         "density matrix must be a QMatrix, got ndarray of shape (2, 2)"),
        (lambda: Observable.from_qmatrix(np.eye(2)), ValueError,
         "observable must be a QMatrix, got ndarray of shape (2, 2)"),
    ],
    ids=["validate-non-square", "from-matrix-non-square", "block-purify-shapes",
         "random-density-kind", "random-density-zero", "random-density-negative",
         "random-improper-zero", "random-pure-q-one", "random-density-float-dimension",
         "random-density-bool-dimension", "random-density-negative-seed",
         "random-density-float-seed", "random-density-string-seed", "random-density-bool-seed",
         "lift-float-target", "lift-fractional-target",
         "lift-none-target", "lift-unit-float-target", "lift-bool-target", "lift-huge-target",
         "lift-digit-limit-target", "block-purify-overflowing-weights", "block-purify-nan-weight",
         "block-purify-inf-weight", "validate-nan-tol", "validate-negative-tol",
         "validate-unit-tol", "validate-string-tol", "validate-huge-int-tol", "from-matrix-nan-tol",
         "from-qmatrix-nan-tol", "chi-inverse-nan-tol", "expectation-none-observable",
         "expectation-none-state", "expectation-matrix-state", "expectation-dimension",
         "validate-array", "from-qmatrix-array"],
)
def test_input_errors(call, error, fragment):
    with pytest.raises(error) as excinfo:
        call()
    assert fragment in str(excinfo.value)
