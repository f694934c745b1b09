#!/usr/bin/env python3
"""Run the randomized structural audit and print the tally table."""

import argparse
import sys

from qmix import check_propositions
from qmix.cli import _int_at_least
from qmix.errors import QmixError


def main():
    # The bounds of `qmix check-props`: a bad value exits 2 with one line.
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=_int_at_least(2), default=6)
    parser.add_argument("--trials", type=_int_at_least(0), default=1000)
    parser.add_argument("--seed", type=_int_at_least(0), default=0)
    args = parser.parse_args()

    try:
        summary = check_propositions(args.nmax, args.trials, args.seed)
    except QmixError as exc:  # one line and exit 1, as `qmix check-props` does
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.trials} trials, dimensions 2..{args.nmax}, seed {args.seed}\n")
    print(f"{'check':<26} {'attempts':>8} {'failures':>8} {'worst residual':>15}")
    for row in summary.rows:
        print(f"{row.name:<26} {row.attempts:>8} {row.failures:>8} {row.worst_residual:>15.3e}")
    print(f"\noverall: {'PASS' if summary.passed else 'FAIL'}")


if __name__ == "__main__":
    sys.exit(main())
