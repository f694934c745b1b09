#!/usr/bin/env python3
"""Sweep the measurement scenario over the branch weight |c+|^2.

Prints, for each weight, the largest gap any complex observable sees
between the proper and improper representations, next to the value the
quaternionic witness takes on each.  The complex column stays at
rounding noise while the witness column follows 2 |c+ c-|^2.
"""

import argparse
import sys

import numpy as np

from qmix import run_scenario
from qmix.cli import _checked
from qmix.errors import QmixError
from qmix.qmatrix import check_int, check_real


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--points", type=_checked(int, check_int, "points", least=1), default=11,
        help="number of weights to sweep",
    )
    parser.add_argument(
        "--theta", type=_checked(float, check_real, "direction angle theta"), default=0.0,
        help="polar angle of the measured axis",
    )
    parser.add_argument(
        "--phi", type=_checked(float, check_real, "direction angle phi"), default=0.0,
        help="azimuthal angle of the measured axis",
    )
    args = parser.parse_args()

    print(f"{'|c+|^2':>8} {'complex gap':>12} {'witness (improper)':>19} {'witness (proper)':>17} {'2|c+c-|^2':>10}")
    for weight in np.linspace(0.0, 1.0, args.points):
        try:
            report = run_scenario(
                np.sqrt(weight), np.sqrt(1.0 - weight), n_hat=(args.theta, args.phi)
            )
        except QmixError as exc:  # one line and exit 1, as `qmix scenario` does
            print(f"error: {exc}", file=sys.stderr)
            return 1
        complex_gap = max(row.difference for row in report.complex_expectation_table)
        disc = report.quaternionic_discriminator
        theory = 2.0 * weight * (1.0 - weight)
        print(
            f"{weight:8.3f} {complex_gap:12.3e} {disc.on_improper:19.12f}"
            f" {disc.on_proper:17.12f} {theory:10.6f}"
        )


if __name__ == "__main__":
    sys.exit(main())
