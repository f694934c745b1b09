"""Shared test helpers and independent oracles.

The oracles here deliberately avoid the code paths they check: the
quaternion product oracle works on four real components with the
textbook multiplication table, and the matrix product oracle multiplies
complex-adjoint images and reads the blocks back out by slicing.
"""

import numpy as np

from qmix import QMatrix


def hamilton_mul(q, p):
    """Textbook four-real-component quaternion product."""
    a1, b1, c1, d1 = q
    a2, b2, c2, d2 = p
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def chi_blocks(a, b):
    """Complex-adjoint image assembled by hand."""
    return np.block([[a, -b.conj()], [b, a.conj()]])


def chi_oracle_matmul(x: QMatrix, y: QMatrix) -> QMatrix:
    """Multiply in the complex-adjoint picture, slice the blocks back."""
    prod = chi_blocks(x.alpha, x.beta) @ chi_blocks(y.alpha, y.beta)
    n = x.rows
    m = y.cols
    return QMatrix(prod[:n, :m], prod[n:, :m])


def random_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_qmatrix(rng, rows, cols=None) -> QMatrix:
    cols = rows if cols is None else cols
    return QMatrix(random_complex(rng, rows, cols), random_complex(rng, rows, cols))


def random_hermitian_qmatrix(rng, n) -> QMatrix:
    a = random_complex(rng, n)
    b = random_complex(rng, n)
    return QMatrix((a + a.conj().T) / 2, (b - b.T) / 2)


def random_complex_unitary(rng, n):
    q, r = np.linalg.qr(random_complex(rng, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def qclose(x: QMatrix, y: QMatrix, tol=1e-12) -> bool:
    return (
        np.abs(x.alpha - y.alpha).max() <= tol
        and np.abs(x.beta - y.beta).max() <= tol
    )


#: (block, position, value) cases for the non-finite input regressions.
NON_FINITE_CASES = [
    (block, position, value)
    for block in ("alpha", "beta")
    for position in ("diagonal", "off-diagonal")
    for value in (float("nan"), float("inf"))
]


def with_non_finite(m: QMatrix, block: str, position: str, value: float) -> QMatrix:
    """Copy of ``m`` with ``value`` in one block, at (0, 0) or mirrored.

    Off the diagonal the value goes to (0, 1) and, with the sign that
    keeps the block hermitian (alpha) or skew (beta), to (1, 0), so the
    input looks like a density matrix to a NaN-blind comparison.
    """
    blocks = {"alpha": m.alpha.copy(), "beta": m.beta.copy()}
    target = blocks[block]
    if position == "diagonal":
        target[0, 0] = value
    else:
        target[0, 1] = value
        target[1, 0] = value if block == "alpha" else -value
    return QMatrix(blocks["alpha"], blocks["beta"])


def assert_names_value_and_tolerance(error: Exception, tol: float) -> None:
    """The message carries the non-finite measurement and the tolerance."""
    words = str(error).replace(",", " ").split()
    assert "nan" in words or "inf" in words, str(error)
    assert f"{tol:.3e}" in str(error), str(error)
