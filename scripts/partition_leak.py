#!/usr/bin/env python3
"""Watch a proper mixture leak into the improper class.

Evolves a proper state (the projector onto the +1 eigenvector of
sigma_y) under the quaternionic generator jI and prints ||beta(t)||_F
against the closed form |sin 2t| * ||Im alpha||_F, next to the same
state under a complex generator, which never leaks.
"""

import argparse
import sys

import numpy as np

from qmix import Propagator, QMatrix, evolve, expm_q, random_generator, validate
from qmix.cli import _finite_float, _int_at_least
from qmix.errors import QmixError


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tmax", type=_finite_float, default=3.0)
    parser.add_argument("--points", type=_int_at_least(1), default=13)
    parser.add_argument("--seed", type=_int_at_least(0), default=0)
    args = parser.parse_args()

    alpha = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    rho = validate(QMatrix.from_complex(alpha))
    j_gen = QMatrix(np.zeros((2, 2)), np.eye(2))
    complex_gen = random_generator(2, np.random.default_rng(args.seed), quaternionic=False)

    print(f"{'t':>6} {'leak (jI)':>12} {'closed form':>12} {'leak (complex gen)':>19}")
    for t in np.linspace(0.0, args.tmax, args.points):
        try:
            quater = evolve(rho, Propagator(u=expm_q(j_gen * -t)))
            comp = evolve(rho, Propagator(u=expm_q(complex_gen.h * -t)))
        except QmixError as exc:  # one line and exit 1, as `qmix evolve` does
            print(f"error: {exc}", file=sys.stderr)
            return 1
        closed = abs(np.sin(2 * t)) * np.linalg.norm(alpha.imag)
        print(f"{t:6.2f} {quater.beta_norm:12.6f} {closed:12.6f} {comp.beta_norm:19.3e}")


if __name__ == "__main__":
    sys.exit(main())
