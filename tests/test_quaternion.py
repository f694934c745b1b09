"""Quaternion scalar algebra against the four-real-component oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmix.quaternion import I, J, K, ONE, Quaternion

from support import hamilton_mul

EPS = np.finfo(np.float64).eps

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
quaternions = st.builds(Quaternion.from_four_reals, finite, finite, finite, finite)


def as_reals(q: Quaternion):
    return q.to_four_reals()


def test_unit_table():
    units = {"1": ONE, "i": I, "j": J, "k": K}
    for name_a, a in units.items():
        for name_b, b in units.items():
            got = as_reals(a * b)
            want = hamilton_mul(as_reals(a), as_reals(b))
            assert got == pytest.approx(want), f"{name_a} * {name_b}"


def test_j_times_i_is_minus_k():
    assert (J * I).is_close(-K)
    # in pair form: (0 + j*1)(i + j*0) = 0 + j*(-i)
    assert J * I == Quaternion(0, 1j)


def test_identity_neutral():
    rng = np.random.default_rng(1)
    for _ in range(50):
        q = Quaternion.from_four_reals(*rng.standard_normal(4))
        assert (q * ONE).is_close(q)
        assert (ONE * q).is_close(q)


def test_conjugate_examples():
    assert J.conjugate() == -J
    assert Quaternion(2 + 3j, 0).conjugate() == Quaternion(2 - 3j, 0)
    q = Quaternion.from_four_reals(1, 2, 3, 4)
    assert q.conjugate().to_four_reals() == (1, -2, -3, -4)


def test_conjugate_involution_and_norm():
    rng = np.random.default_rng(2)
    for _ in range(50):
        q = Quaternion.from_four_reals(*rng.standard_normal(4))
        assert q.conjugate().conjugate().is_close(q)
        prod = q * q.conjugate()
        assert prod.beta == pytest.approx(0)
        assert prod.alpha == pytest.approx(q.norm() ** 2)


def test_mixed_product_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = Quaternion.from_four_reals(*rng.standard_normal(4))
        p = Quaternion.from_four_reals(*rng.standard_normal(4))
        assert (q * p).conjugate().is_close(p.conjugate() * q.conjugate(), tol=1e-12)


def test_textbook_real_product():
    # (1 + i + j + k)(1 - i - j - k) = 4
    q = Quaternion.from_four_reals(1, 1, 1, 1)
    p = Quaternion.from_four_reals(1, -1, -1, -1)
    want = hamilton_mul((1, 1, 1, 1), (1, -1, -1, -1))
    assert want == (4, 0, 0, 0)
    assert (q * p).is_close(Quaternion(4, 0))


@given(quaternions, quaternions)
@settings(max_examples=200)
def test_product_matches_hamilton_oracle(q, p):
    got = np.array(as_reals(q * p))
    want = np.array(hamilton_mul(as_reals(q), as_reals(p)))
    scale = max(1.0, np.abs(want).max())
    assert np.abs(got - want).max() <= 8 * EPS * scale


@given(quaternions, quaternions)
@settings(max_examples=200)
def test_norm_multiplicative(q, p):
    lhs = (q * p).norm()
    rhs = q.norm() * p.norm()
    assert abs(lhs - rhs) <= 4 * EPS * max(1.0, rhs)


@given(st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False))
def test_j_commutation_rule_exact(z):
    # j * z == conj(z) * j with no rounding at all
    embedded = Quaternion(z, 0)
    assert J * embedded == Quaternion(z.conjugate(), 0) * J


def test_norm_squared_is_component_sum():
    q = Quaternion(3 + 4j, 1 - 2j)
    assert q.norm() ** 2 == pytest.approx(abs(3 + 4j) ** 2 + abs(1 - 2j) ** 2)


def test_four_real_examples():
    assert Quaternion.from_four_reals(0, 0, 1, 0) == J
    assert Quaternion.from_four_reals(0, 0, 0, 1) == Quaternion(0, -1j)
    assert Quaternion.from_four_reals(0, 0, 0, 1) == K


def test_round_trip_exact():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        reals = tuple(rng.standard_normal(4))
        assert Quaternion.from_four_reals(*reals).to_four_reals() == reals


def test_associativity_against_oracle():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b, c = (Quaternion.from_four_reals(*rng.standard_normal(4)) for _ in range(3))
        assert ((a * b) * c).is_close(a * (b * c), tol=1e-12 * max(1.0, a.norm() * b.norm() * c.norm()))


def test_complex_scalars_coerce():
    q = Quaternion(1, 2)
    assert (q * 2).is_close(Quaternion(2, 4))
    assert (2 * q).is_close(Quaternion(2, 4))
    assert (q + 1).is_close(Quaternion(2, 2))
    assert 1 - q == Quaternion(0, -2)
    assert q * ONE == q
    assert Quaternion.from_complex(2 - 1j) == Quaternion(2 - 1j, 0)


@pytest.mark.parametrize(
    "call",
    [lambda q: q + None, lambda q: None + q, lambda q: q - None, lambda q: None - q,
     lambda q: q * None, lambda q: None * q],
    ids=["add", "add-on-the-left", "subtract", "subtract-from", "multiply", "multiply-on-the-left"],
)
def test_a_non_number_operand_is_a_type_error(call):
    with pytest.raises(TypeError):
        call(ONE)


def test_arithmetic_helpers():
    q = Quaternion(1 + 1j, 2)
    p = Quaternion(0.5, -1j)
    assert (q - p).is_close(Quaternion(0.5 + 1j, 2 + 1j))
    assert (-q).is_close(Quaternion(-1 - 1j, -2))
    assert abs(Quaternion(3, 4)) == pytest.approx(5)
