"""Quaternion scalars stored as pairs of complex numbers.

A quaternion q = a + b*i + c*j + d*k is kept as q = alpha + j*beta with
alpha = a + b*i and beta = c - d*i.  The unit k = i*j is derived, never
stored.  This module fixes the sign conventions used everywhere else:

* scalars act on vectors from the right (right-module convention);
* moving j past a complex number conjugates it:  j*z = conj(z)*j.

Both choices make the split q = alpha + j*beta close under products:

    (a_1 + j*b_1)(a_2 + j*b_2)
        = (a_1*a_2 - conj(b_1)*b_2) + j*(conj(a_1)*b_2 + b_1*a_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Complex


@dataclass(frozen=True)
class Quaternion:
    """Quaternion alpha + j*beta with complex components alpha, beta."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))

    @classmethod
    def from_complex(cls, z: complex) -> "Quaternion":
        return cls(z, 0)

    @classmethod
    def from_four_reals(cls, a: float, b: float, c: float, d: float) -> "Quaternion":
        """Build a + b*i + c*j + d*k; the pair is (a + b*i, c - d*i)."""
        return cls(complex(a, b), complex(c, -d))

    def to_four_reals(self) -> tuple[float, float, float, float]:
        return (self.alpha.real, self.alpha.imag, self.beta.real, -self.beta.imag)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.alpha.conjugate(), -self.beta)

    def norm(self) -> float:
        return math.hypot(abs(self.alpha), abs(self.beta))

    def __abs__(self) -> float:
        return self.norm()

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.alpha + other.alpha, self.beta + other.beta)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(self.alpha - other.alpha, self.beta - other.beta)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.alpha, -self.beta)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Quaternion(
            self.alpha * other.alpha - self.beta.conjugate() * other.beta,
            self.alpha.conjugate() * other.beta + self.beta * other.alpha,
        )

    def __rmul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def is_close(self, other: "Quaternion", tol: float = 0.0) -> bool:
        return (self - other).norm() <= tol


def _coerce(value) -> "Quaternion":
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, Complex):
        return Quaternion(complex(value), 0)
    return NotImplemented


ONE = Quaternion(1, 0)
I = Quaternion(1j, 0)
J = Quaternion(0, 1)
K = I * J  # = Quaternion(0, -1j)
