"""Command-line front end: matrix file I/O and subcommand dispatch.

Matrix files are JSON objects

    {"rows": n, "cols": m,
     "alpha": [[[re, im], ...], ...],
     "beta":  [[[re, im], ...], ...]}

with "beta" optional (omitted means zero, and zero beta is omitted on
write, so write(read(f)) reproduces a canonical file byte for byte).
All emitted numbers use full double precision and no locale formatting;
identical invocations produce byte-identical output.

Exit codes: 0 on success, 1 on validation failure, 2 on usage errors.
The default seed comes from --seed, falling back to the QMIX_SEED
environment variable, then to 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import chain

import numpy as np

from . import density, dynamics, scenario
from .density import CDensity, Observable, QDensity
from .errors import QmixError, SchemaError
from .qmatrix import VALIDATION_TOL, QMatrix

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------
# matrix file serialization
# ---------------------------------------------------------------------

def _is_entry(entry) -> bool:
    return (
        isinstance(entry, list)
        and len(entry) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
    )


def _parse_block(node, rows: int, cols: int, pointer: str) -> np.ndarray:
    if not isinstance(node, list) or len(node) != rows:
        raise SchemaError(pointer, f"expected {rows} rows")
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{pointer}/{i}", f"expected {cols} entries")
    entries = list(chain.from_iterable(node))
    # Fast path on exact types; anything else (bool, str, list or float
    # subclasses) falls back to the per-entry check, which names the first
    # bad entry.
    if not (
        set(map(type, entries)) == {list}
        and set(map(len, entries)) == {2}
        and set(map(type, chain.from_iterable(entries))) <= {int, float}
    ):
        for k, entry in enumerate(entries):
            if not _is_entry(entry):
                raise SchemaError(f"{pointer}/{k // cols}/{k % cols}", "expected [re, im]")
    values = np.array(entries, dtype=np.float64).reshape(rows, cols, 2)
    finite = np.isfinite(values).all(axis=-1)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise SchemaError(f"{pointer}/{i}/{j}", "entries must be finite")
    return values.view(np.complex128).reshape(rows, cols)


def parse_matrix(obj) -> QMatrix:
    """Build a QMatrix from a parsed matrix-file object."""
    if not isinstance(obj, dict):
        raise SchemaError("", "matrix file must be a JSON object")
    for key in ("rows", "cols"):
        if key not in obj:
            raise SchemaError(f"/{key}", "missing")
        if not isinstance(obj[key], int) or isinstance(obj[key], bool) or obj[key] < 1:
            raise SchemaError(f"/{key}", "must be a positive integer")
    rows, cols = obj["rows"], obj["cols"]
    if "alpha" not in obj:
        raise SchemaError("/alpha", "missing")
    alpha = _parse_block(obj["alpha"], rows, cols, "/alpha")
    if "beta" in obj:
        beta = _parse_block(obj["beta"], rows, cols, "/beta")
    else:
        beta = np.zeros((rows, cols), dtype=np.complex128)
    return QMatrix(alpha, beta)


def _block_to_lists(block: np.ndarray) -> list:
    return np.stack([block.real, block.imag], -1).tolist()


def serialize_matrix(m: QMatrix) -> dict:
    """Matrix-file object for a QMatrix; zero beta is omitted."""
    out = {"rows": m.rows, "cols": m.cols, "alpha": _block_to_lists(m.alpha)}
    if np.any(m.beta != 0):
        out["beta"] = _block_to_lists(m.beta)
    return out


def load_matrix(path: str) -> QMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from exc
    return parse_matrix(obj)


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------

def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def serialize_density(rho: QDensity) -> dict:
    return {
        "matrix": serialize_matrix(rho.mat),
        "classification": rho.classification.value,
        "beta_norm": rho.beta_norm,
    }


def serialize_report(report: scenario.ScenarioReport) -> dict:
    """JSON form of a scenario report; every residual is preserved."""
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": {
            "c_plus": _complex_pair(report.c_plus),
            "c_minus": _complex_pair(report.c_minus),
            "n_hat": {"theta": report.n_hat[0], "phi": report.n_hat[1]},
        },
        "improper_representation": "purified",
        "rho_improper": serialize_density(report.rho_improper),
        "rho_proper": serialize_density(report.rho_proper),
        "complex_expectations": [
            {
                "observable": row.label,
                "on_proper": row.on_proper,
                "on_improper": row.on_improper,
                "difference": row.difference,
            }
            for row in report.complex_expectation_table
        ],
        "quaternionic_discriminator": {
            "observable": serialize_matrix(report.quaternionic_discriminator.observable.mat),
            "on_proper": report.quaternionic_discriminator.on_proper,
            "on_improper": report.quaternionic_discriminator.on_improper,
        },
        "checks": {
            name: {
                "passed": check.passed,
                "residual": check.residual,
                "tolerance": check.tolerance,
            }
            for name, check in report.checks.items()
        },
        "passed": report.passed,
    }


def serialize_summary(summary: scenario.PropositionSummary) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "trials": summary.trials,
        "n_max": summary.n_max,
        "seed": summary.seed,
        "checks": [
            {
                "name": row.name,
                "attempts": row.attempts,
                "failures": row.failures,
                "worst_residual": row.worst_residual,
            }
            for row in summary.rows
        ],
        "passed": summary.passed,
    }


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------

def _cmd_validate(args) -> int:
    rho = density.validate(load_matrix(args.file), tol=args.tol)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "valid": True,
            "classification": rho.classification.value,
            "beta_norm": rho.beta_norm,
        },
        args.output,
    )
    return 0


def _cmd_project(args) -> int:
    rho = density.validate(load_matrix(args.file), tol=args.tol)
    projected = density.complex_projection(rho)
    _emit(serialize_matrix(QMatrix.from_complex(projected.mat)), args.output)
    return 0


def _cmd_classify(args) -> int:
    rho = density.validate(load_matrix(args.file), tol=args.tol)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "classification": rho.classification.value,
            "beta_norm": rho.beta_norm,
        },
        args.output,
    )
    return 0


def _cmd_lift(args) -> int:
    mat = load_matrix(args.file)
    source = CDensity.from_matrix(mat.alpha, tol=args.tol)
    lifted = density.lift(source, args.rank)
    _emit(serialize_matrix(lifted.mat), args.output)
    return 0


def _cmd_purify(args) -> int:
    mat = load_matrix(args.file)
    source = CDensity.from_matrix(mat.alpha, tol=args.tol)
    pure = density.purify(source)
    _emit(serialize_matrix(pure.mat), args.output)
    return 0


def _cmd_expect(args) -> int:
    obs = Observable.from_qmatrix(load_matrix(args.observable), tol=args.tol)
    rho = density.validate(load_matrix(args.state), tol=args.tol)
    value = density.expectation(obs, rho)
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "value": value,
            "observable_is_complex": obs.is_complex,
        },
        args.output,
    )
    return 0


def _cmd_evolve(args) -> int:
    rho = density.validate(load_matrix(args.state), tol=args.tol)
    gen = dynamics.Generator(load_matrix(args.gen))
    if args.method == "rk4":
        evolved = dynamics.integrate(rho, gen, args.t, args.steps)
    else:
        evolved = dynamics.evolve(rho, dynamics.time_ordered(gen, args.t))
    _emit(serialize_matrix(evolved.mat), args.output)
    return 0


def _finite_float(text: str) -> float:
    """Argument type: a finite float; nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_pair(text: str) -> tuple[float, float]:
    """Argument type: two finite floats written ``x,y``."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
    return _finite_float(parts[0]), _finite_float(parts[1])


def _cmd_scenario(args) -> int:
    report = scenario.run_scenario(complex(*args.cplus), complex(*args.cminus), n_hat=args.nhat)
    _emit(serialize_report(report), args.output)
    return 0 if report.passed else 1


def _cmd_check_props(args) -> int:
    summary = scenario.check_propositions(args.nmax, args.trials, args.seed)
    _emit(serialize_summary(summary), args.output)
    return 0 if summary.passed else 1


def _parse_tolerance(text: str) -> float:
    name, _, raw = text.partition("=")
    if not name or not raw:
        raise argparse.ArgumentTypeError(f"expected validate=VALUE, got {text!r}")
    if name != "validate":
        raise argparse.ArgumentTypeError(
            f"unknown tolerance {name!r}; the only one is 'validate'"
        )
    try:
        value = float(raw)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not value > 0:
        raise argparse.ArgumentTypeError(f"tolerance must be positive, got {value!r}")
    return value


def _int_at_least(minimum: int):
    """Argument type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Reads a token such as ``-0.3,0.2`` as a value, not as an option.

    argparse's stock matcher takes only plain negative numbers, so
    ``--cminus -0.3,0.2`` would exit 2.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def _add_common_options(parser: argparse.ArgumentParser, top_level: bool) -> None:
    # The same options are accepted before and after the subcommand; the
    # subparser copies use SUPPRESS defaults so they never clobber values
    # parsed at the top level.
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--seed",
        type=_int_at_least(0),
        default=None if top_level else suppress,
        help="random seed; defaults to QMIX_SEED, then 0",
    )
    parser.add_argument(
        "--tol",
        type=_parse_tolerance,
        default=VALIDATION_TOL if top_level else suppress,
        metavar="validate=VALUE",
        help=f"density-validation tolerance (default: {VALIDATION_TOL:g}); the last one wins",
    )
    parser.add_argument(
        "--output",
        default=None if top_level else suppress,
        help="write the report here instead of stdout",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared by later ones.

    Parsing reads it and never changes it: every ``parse_args`` call
    fills a fresh namespace from the declared defaults.
    """
    parser = _Parser(
        prog="qmix",
        description="Quaternionic density matrices: projection, lifting, "
        "purification, dynamics and the measurement scenario.",
    )
    _add_common_options(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate and classify a density matrix file")
    p.add_argument("file")
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("project", help="complex projection of a density matrix")
    p.add_argument("file")
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("classify", help="report the proper/improper classification")
    p.add_argument("file")
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("lift", help="lift a complex density to a target quaternionic rank")
    p.add_argument("file")
    p.add_argument("--rank", type=int, required=True)
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_lift)

    p = sub.add_parser("purify", help="purify a complex density of rank at most two")
    p.add_argument("file")
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_purify)

    p = sub.add_parser("expect", help="expectation value of an observable in a state")
    p.add_argument("observable")
    p.add_argument("state")
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_expect)

    p = sub.add_parser("evolve", help="evolve a state under a constant generator")
    p.add_argument("state")
    p.add_argument("--gen", required=True, help="matrix file with the anti-hermitian generator")
    p.add_argument("--t", type=_finite_float, default=1.0)
    p.add_argument(
        "--steps",
        type=_int_at_least(1),
        default=1000,
        help="rk4 time steps (default: 1000); the propagator method "
        "ignores it, a constant generator taking one exponential",
    )
    p.add_argument("--method", choices=("propagator", "rk4"), default="propagator")
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_evolve)

    p = sub.add_parser("scenario", help="run the measurement scenario and emit the report")
    p.add_argument("--cplus", type=_parse_pair, required=True, metavar="RE,IM")
    p.add_argument("--cminus", type=_parse_pair, required=True, metavar="RE,IM")
    p.add_argument(
        "--nhat",
        type=_parse_pair,
        default=(0.0, 0.0),
        metavar="THETA,PHI",
        help="measurement direction in radians (default: the z axis)",
    )
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_scenario)

    p = sub.add_parser("check-props", help="run the randomized structural audit")
    p.add_argument("--nmax", type=_int_at_least(2), default=6)
    p.add_argument("--trials", type=_int_at_least(0), default=100)
    _add_common_options(p, top_level=False)
    p.set_defaults(handler=_cmd_check_props)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.seed is None:
        raw = os.environ.get("QMIX_SEED", "0")
        try:
            args.seed = _int_at_least(0)(raw)
        except argparse.ArgumentTypeError as exc:
            print(f"error: QMIX_SEED: {exc}", file=sys.stderr)
            return 2
    try:
        return args.handler(args)
    except QmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
