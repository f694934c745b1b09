"""Bipartite machinery: Schmidt terms, partial trace, projective update."""

import numpy as np
import pytest

from qmix import (
    BipartiteState,
    ProjectorFamily,
    lueders_nonselective,
    measurement_interaction,
    partial_trace,
    schmidt,
)
from qmix.density import CDensity
from qmix.errors import DimensionMismatch, NotNormalized, NotOrthogonal

from support import random_complex, random_complex_unitary

HALF = 1 / np.sqrt(2)


def weights_of(terms):
    """Weights of a state's Schmidt terms, descending."""
    return np.array([w for w, _, _ in terms])


def random_state(rng, n1, n2) -> BipartiteState:
    vec = rng.standard_normal(n1 * n2) + 1j * rng.standard_normal(n1 * n2)
    return BipartiteState(dims=(n1, n2), vec=vec / np.linalg.norm(vec))


def test_state_norm_enforced():
    with pytest.raises(NotNormalized):
        BipartiteState(dims=(2, 2), vec=np.ones(4))
    with pytest.raises(NotNormalized):
        BipartiteState(dims=(2, 2), vec=[np.nan, 0.0, 0.0, 0.0])


def test_schmidt_product_state():
    u = np.array([1.0, 0.0])
    v = np.array([HALF, HALF])
    terms = schmidt(BipartiteState(dims=(2, 2), vec=np.kron(u, v)))
    assert len(terms) == 1
    assert weights_of(terms)[0] == pytest.approx(1.0)


def test_schmidt_balanced_entangled_state():
    vec = np.zeros(4)
    vec[0] = HALF  # |+>|u>
    vec[3] = HALF  # |->|d>
    terms = schmidt(BipartiteState(dims=(2, 2), vec=vec))
    assert np.allclose(weights_of(terms), [HALF, HALF])


def test_schmidt_reconstruction_and_normalization():
    rng = np.random.default_rng(41)
    for n1, n2 in [(2, 2), (3, 4), (4, 2)]:
        state = random_state(rng, n1, n2)
        terms = schmidt(state)
        weights = weights_of(terms)
        assert np.all(np.diff(weights) <= 0)
        assert np.sum(weights**2) == pytest.approx(1.0, abs=1e-12)
        rebuilt = sum(
            w * np.kron(left, right) for w, left, right in terms
        )
        assert np.abs(rebuilt - state.vec).max() <= 1e-10
        for _, left, right in terms:
            assert np.linalg.norm(left) == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.norm(right) == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(42)
    u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u /= np.linalg.norm(u)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    state = BipartiteState(dims=(3, 2), vec=np.kron(u, v))
    reduced = partial_trace(state.density(), dims=(3, 2), over=2)
    assert np.abs(reduced.mat - np.outer(u, u.conj())).max() <= 1e-12


def test_partial_trace_of_maximally_mixed():
    for over, kept in [(1, 3), (2, 2)]:
        reduced = partial_trace(np.eye(6) / 6, dims=(2, 3), over=over)
        assert np.abs(reduced.mat - np.eye(kept) / kept).max() <= 1e-14


def test_partial_trace_eigenvalues_are_schmidt_weights_squared():
    rng = np.random.default_rng(43)
    state = random_state(rng, 3, 3)
    terms = schmidt(state)
    reduced = partial_trace(state.density(), dims=(3, 3), over=2)
    eigs = np.sort(np.linalg.eigvalsh(reduced.mat))[::-1]
    weights = np.zeros(3)
    weights[: len(terms)] = weights_of(terms)**2
    assert np.abs(eigs - weights).max() <= 1e-10


def test_partial_trace_defining_property():
    rng = np.random.default_rng(44)
    state = random_state(rng, 3, 2)
    rho = state.density()
    reduced = partial_trace(rho, dims=(3, 2), over=2)
    herm = random_complex(rng, 3)
    a = (herm + herm.conj().T) / 2
    lhs = np.trace(np.kron(a, np.eye(2)) @ rho)
    rhs = np.trace(a @ reduced.mat)
    assert abs(lhs - rhs) <= 1e-12
    assert abs(np.trace(reduced.mat) - np.trace(rho)) <= 1e-12


def test_partial_trace_shape_check():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(5) / 5, dims=(2, 2), over=1)


def test_lueders_trivial_family():
    rng = np.random.default_rng(45)
    state = random_state(rng, 2, 2)
    rho = CDensity.from_matrix(state.density())
    family = ProjectorFamily.from_projectors([np.eye(4)])
    assert np.abs(lueders_nonselective(rho, family).mat - rho.mat).max() == 0.0


def test_lueders_measured_basis():
    c = np.array([0.6, 0.8])
    rho = CDensity.from_matrix(np.outer(c, c.conj()))
    family = ProjectorFamily.from_basis(np.eye(2))
    updated = lueders_nonselective(rho, family)
    assert np.abs(updated.mat - np.diag([0.36, 0.64])).max() <= 1e-15


def test_lueders_diagonal_fixed_point_and_idempotence():
    rng = np.random.default_rng(46)
    family = ProjectorFamily.from_basis(random_complex_unitary(rng, 3))
    probs = rng.uniform(0.1, 1.0, 3)
    probs /= probs.sum()
    basis = family.projectors
    rho = CDensity.from_matrix(sum(p * proj for p, proj in zip(probs, basis)))
    once = lueders_nonselective(rho, family)
    assert np.abs(once.mat - rho.mat).max() <= 1e-12
    mixed = CDensity.from_matrix(np.eye(3) / 3 * 0.5 + 0.5 * rho.mat)
    first = lueders_nonselective(mixed, family)
    second = lueders_nonselective(first, family)
    assert np.abs(first.mat - second.mat).max() <= 1e-12
    for proj in basis:
        assert np.abs(proj @ first.mat - first.mat @ proj).max() <= 1e-12


def test_lueders_preserves_trace_and_positivity():
    rng = np.random.default_rng(47)
    for _ in range(20):
        g = random_complex(rng, 4)
        rho = CDensity.from_matrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        family = ProjectorFamily.from_basis(random_complex_unitary(rng, 4))
        updated = lueders_nonselective(rho, family)  # revalidates internally
        assert abs(np.trace(updated.mat).real - 1.0) <= 1e-12


def test_projector_family_rejects_non_orthogonal():
    p = np.diag([1.0, 0.0])
    with pytest.raises(NotOrthogonal):
        ProjectorFamily.from_projectors([p, p])
    with pytest.raises(NotOrthogonal):  # NaN fails, it does not drop out of the max
        ProjectorFamily.from_projectors([np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])])


def test_projector_family_rejects_incomplete():
    with pytest.raises(NotNormalized):
        ProjectorFamily.from_projectors([np.diag([1.0, 0.0])])


def test_measurement_interaction_pointer_follows_system():
    unitary, state = measurement_interaction((1.0, 0.0))
    assert np.abs(unitary.conj().T @ unitary - np.eye(4)).max() == 0.0
    assert len(schmidt(state)) == 1
    want = np.zeros(4)
    want[0] = 1.0  # |+>|u>
    assert np.abs(state.vec - want).max() == 0.0


def test_measurement_interaction_balanced():
    _, state = measurement_interaction((HALF, HALF))
    assert np.allclose(sorted(weights_of(schmidt(state))), [HALF, HALF])
    reduced = partial_trace(state.density(), dims=(2, 2), over=2)
    assert np.abs(reduced.mat - np.eye(2) / 2).max() <= 1e-15


def test_measurement_interaction_general_amplitudes():
    c_plus, c_minus = 0.6, 0.8j
    unitary, state = measurement_interaction((c_plus, c_minus))
    # the map only constrains the |0> pointer column of each system block
    want = c_plus * np.array([1, 0, 0, 0]) + c_minus * np.array([0, 0, 0, 1])
    assert np.abs(state.vec - want).max() <= 1e-15
    assert np.abs(unitary.conj().T @ unitary - np.eye(4)).max() == 0.0
    assert np.allclose(weights_of(schmidt(state)), [0.8, 0.6])


def test_measurement_interaction_rejects_unnormalized():
    with pytest.raises(NotNormalized):
        measurement_interaction((1.0, 1.0))
    with pytest.raises(NotNormalized):
        measurement_interaction((np.nan, 0.8))


# -- input errors ----------------------------------------------------------------

@pytest.mark.parametrize(
    "call,error,fragment",
    [
        (lambda: partial_trace(np.eye(4) / 4, dims=(2, 2), over=3), ValueError,
         "over must be 1 or 2, got 3"),
        (lambda: ProjectorFamily.from_projectors([]), ValueError,
         "projector family cannot be empty"),
        (lambda: ProjectorFamily.from_projectors([np.eye(2), np.eye(3)]), DimensionMismatch,
         "projector 1 has shape (3, 3), expected (2, 2)"),
        (lambda: lueders_nonselective(
            CDensity.from_matrix(np.eye(3) / 3), ProjectorFamily.from_basis(np.eye(2))
        ), DimensionMismatch, "family dimension 2 != state dimension 3"),
        (lambda: measurement_interaction((0.6, 0.8, 0.0)), DimensionMismatch,
         "system state must have two components, got 3"),
        (lambda: BipartiteState(dims=(2, 2), vec=np.ones(3) / np.sqrt(3)), DimensionMismatch,
         "vector length 3 != 2 * 2"),
        (lambda: lueders_nonselective(None, ProjectorFamily.from_basis(np.eye(2))), ValueError,
         "rho must be a CDensity, got None"),
        (lambda: lueders_nonselective(np.eye(2) / 2, ProjectorFamily.from_basis(np.eye(2))),
         ValueError, "rho must be a CDensity, got ndarray of shape (2, 2)"),
        (lambda: lueders_nonselective(CDensity.from_matrix(np.eye(2) / 2), None), ValueError,
         "family must be a ProjectorFamily, got None"),
        (lambda: lueders_nonselective(CDensity.from_matrix(np.eye(2) / 2), np.eye(2)), ValueError,
         "family must be a ProjectorFamily, got ndarray of shape (2, 2)"),
        (lambda: schmidt(None), ValueError, "state must be a BipartiteState, got None"),
        (lambda: schmidt(np.ones(4) / 2), ValueError,
         "state must be a BipartiteState, got ndarray of shape (4,)"),
    ],
    ids=["partial-trace-over", "family-empty", "family-mixed-shapes", "lueders-dimensions",
         "interaction-three-components", "state-length", "lueders-none-state",
         "lueders-array-state", "lueders-none-family", "lueders-array-family", "schmidt-none",
         "schmidt-array"],
)
def test_input_errors(call, error, fragment):
    with pytest.raises(error) as excinfo:
        call()
    assert fragment in str(excinfo.value)
