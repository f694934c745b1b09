"""Command-line front end: matrix file I/O and subcommand dispatch.

Matrix files are JSON objects

    {"rows": n, "cols": m,
     "alpha": [[[re, im], ...], ...],
     "beta":  [[[re, im], ...], ...]}

with "beta" optional (omitted means zero, and zero beta is omitted on
write, so write(read(f)) reproduces a canonical file byte for byte).
Every report is ``json.dumps(payload, indent=2)`` plus a newline, byte
for byte, so numbers keep full double precision and json's spelling of
NaN and the infinities; identical invocations produce byte-identical
output.  Reports hold matrix blocks as complex arrays, which the writer
formats as above; only the parser tests a block's lists.  A report goes
to stdout, or to the file --output names, which ``open(path, "w")``
creates or empties before the report is written.

Exit codes: 0 on success, 1 on validation failure, 2 on usage errors,
each worded by the library's rule for the option (check_int, check_real,
check_tol).  A report that reads ``"passed": false`` is written in full
and exits 1.  Only check-props reads a seed: --seed, falling back to the
QMIX_SEED environment variable, then to 0.  Only the commands that load
matrix files read --tol.

A request (the handler and the writing of its report, after argument
parsing) runs with the cyclic garbage collector paused.  Its lists are
acyclic and reference counting frees them, so the collector's passes
over them, and over every object numpy and qmix keep alive, would be
wasted work.  main restores the collector's prior state on every exit;
a caller that had it off finds it off.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import density, dynamics, scenario
from .density import CDensity, Observable, QDensity
from .errors import QmixError, SchemaError
from .qmatrix import VALIDATION_TOL, QMatrix, check_int, check_real, check_tol

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------
# matrix file serialization
# ---------------------------------------------------------------------

def _as_float(x) -> float:
    """``float(x)``, or inf for an integer past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _parse_block(node, rows: int, cols: int, pointer: str) -> np.ndarray:
    """The complex array of a matrix block: the one test of a block and its entries.

    A block is a list of ``rows`` lists of ``cols`` entries, and an entry an ``[re, im]``
    list of two ints or floats, no bool; subclasses pass.  The writer never calls it: it
    takes its blocks as arrays.
    """
    if not isinstance(node, list) or len(node) != rows:
        raise SchemaError(pointer, f"expected {rows} rows")
    for i, row in enumerate(node):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(f"{pointer}/{i}", f"expected {cols} entries")
    entries = list(chain.from_iterable(node))
    flat = []
    if all(issubclass(t, list) for t in set(map(type, entries))) and set(map(len, entries)) == {2}:
        flat = list(chain.from_iterable(entries))
    leaf_types = set(map(type, flat))
    if not flat or not all(issubclass(t, (float, int)) and t is not bool for t in leaf_types):
        k = next(k for k, e in enumerate(entries) if not isinstance(e, list) or len(e) != 2
                 or not all(isinstance(x, (float, int)) and not isinstance(x, bool) for x in e))
        raise SchemaError(f"{pointer}/{k // cols}/{k % cols}", "expected [re, im]")
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:
        # the finiteness check below names the entry that overflowed
        values = np.array(list(map(_as_float, flat)))
    values = values.reshape(rows, cols, 2)
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


def _matrix_object(m: QMatrix) -> dict:
    """Matrix-file object for a QMatrix, blocks as complex arrays; zero beta is omitted."""
    beta = {"beta": m.beta} if np.any(m.beta != 0) else {}
    return {"rows": m.rows, "cols": m.cols, "alpha": m.alpha, **beta}


def serialize_matrix(m: QMatrix) -> dict:
    """Matrix-file object for a QMatrix, blocks as ``[re, im]`` lists that json.dump takes."""
    return {key: np.stack([v.real, v.imag], -1).tolist() if isinstance(v, np.ndarray) else v
            for key, v in _matrix_object(m).items()}


def load_matrix(path: str) -> QMatrix:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        # ValueError covers bytes that are not UTF-8, malformed JSON and an
        # integer past Python's digit limit; RecursionError, deep nesting.
        except (ValueError, RecursionError) as exc:
            raise SchemaError("", f"invalid JSON: {exc}") from exc
    return parse_matrix(obj)


@functools.lru_cache(maxsize=32)
def _block_layout(rows: int, cols: int, pad: str) -> str:
    """``%s`` template of a rows x cols block of pairs, as indent=2 lays it out at ``pad``."""
    pad1, pad2, pad3 = pad + "  ", pad + "    ", pad + "      "
    pair = f"[\n{pad3}%s,\n{pad3}%s\n{pad2}]"
    row = f"[\n{pad2}" + f",\n{pad2}".join([pair] * cols) + f"\n{pad1}]"
    return f"[\n{pad1}" + f",\n{pad1}".join([row] * rows) + f"\n{pad}]"


def _dumps(node, pad: str = "") -> str:
    """``json.dumps(node, indent=2)`` for a value nested at indent ``pad``.

    A matrix block, the bulk of a report, is a 2-D complex array: its
    ``[re, im]`` pairs take their text from one call of json's C encoder
    into a cached layout, so every float reads as json writes it.  Report keys are strings.
    """
    if isinstance(node, str):
        return encode_basestring_ascii(node)
    if isinstance(node, float) and math.isfinite(node):
        return float.__repr__(node)
    if isinstance(node, bool):
        return "true" if node else "false"
    if isinstance(node, int):
        return int.__repr__(node)
    if isinstance(node, np.ndarray):
        pairs = np.ascontiguousarray(node).view(np.float64).ravel().tolist()
        return _block_layout(*node.shape, pad) % tuple(json.dumps(pairs)[1:-1].split(", "))
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        items = [_dumps(value, inner) for value in node]
        return f"[\n{inner}{sep.join(items)}\n{pad}]"
    if isinstance(node, dict):
        if not node:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a string
        items = [f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}" for k, v in node.items()]
        return f"{{\n{inner}{sep.join(items)}\n{pad}}}"
    # None and non-finite floats; anything else raises TypeError
    return json.dumps(node)


def _emit(payload: dict, output: str | None) -> None:
    """Write the report to stdout, or to the file ``output``, emptied first."""
    text = _dumps(payload) + "\n"
    if output is None:
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------

def _complex_pair(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def serialize_density(rho: QDensity) -> dict:
    return {
        "matrix": _matrix_object(rho.mat),
        "classification": rho.classification.value,
        "beta_norm": rho.beta_norm,
    }


def serialize_report(report: scenario.ScenarioReport) -> dict:
    """JSON form of a scenario report; every residual is kept, each row from its dataclass."""
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
        "complex_expectations": [dict(vars(row)) for row in report.complex_expectation_table],
        "quaternionic_discriminator": {
            **vars(report.quaternionic_discriminator),
            "observable": _matrix_object(report.quaternionic_discriminator.observable.mat),
        },
        "checks": {name: dict(vars(check)) for name, check in report.checks.items()},
        "passed": report.passed,
    }


def serialize_summary(summary: scenario.PropositionSummary) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "trials": summary.trials,
        "n_max": summary.n_max,
        "seed": summary.seed,
        "checks": [dict(vars(row)) for row in summary.rows],
        "passed": summary.passed,
    }


# ---------------------------------------------------------------------
# subcommands: each returns its report, and main writes it
# ---------------------------------------------------------------------

def _load_density(path: str, tol: float) -> QDensity:
    return density.validate(load_matrix(path), tol=tol)


def _load_complex_source(path: str, tol: float) -> CDensity:
    return CDensity.from_matrix(load_matrix(path).alpha, tol=tol)


def _cmd_classify(args) -> dict:
    """The classify report; validate's also reads ``"valid": true``."""
    rho = _load_density(args.file, args.tol)
    valid = {"valid": True} if args.command == "validate" else {}
    return {
        "schema_version": SCHEMA_VERSION,
        **valid,
        "classification": rho.classification.value,
        "beta_norm": rho.beta_norm,
    }


def _cmd_project(args) -> dict:
    projected = density.complex_projection(_load_density(args.file, args.tol))
    return _matrix_object(QMatrix.from_complex(projected.mat))


def _cmd_lift(args) -> dict:
    source = _load_complex_source(args.file, args.tol)
    return _matrix_object(density.lift(source, args.rank).mat)


def _cmd_purify(args) -> dict:
    return _matrix_object(density.purify(_load_complex_source(args.file, args.tol)).mat)


def _cmd_expect(args) -> dict:
    obs = Observable.from_qmatrix(load_matrix(args.observable), tol=args.tol)
    value = density.expectation(obs, _load_density(args.state, args.tol))
    return {
        "schema_version": SCHEMA_VERSION,
        "value": value,
        "observable_is_complex": obs.is_complex,
    }


def _cmd_evolve(args) -> dict:
    rho = _load_density(args.state, args.tol)
    gen = dynamics.Generator(load_matrix(args.gen))
    if args.method == "rk4":
        evolved = dynamics.integrate(rho, gen, args.t, args.steps)
    else:
        evolved = dynamics.evolve(rho, dynamics.time_ordered(gen, args.t))
    return _matrix_object(evolved.mat)


def _cmd_scenario(args) -> dict:
    report = scenario.run_scenario(complex(*args.cplus), complex(*args.cminus), n_hat=args.nhat)
    return serialize_report(report)


def _cmd_check_props(args) -> dict:
    return serialize_summary(scenario.check_propositions(args.nmax, args.trials, args.seed))


def _checked(convert, rule=None, *args, **kwargs):
    """Argument type: ``convert`` the text, then any library ``rule(*args, value, **kwargs)``."""

    def parse(text: str):
        try:
            value = convert(text)
            if rule:
                rule(*args, value, **kwargs)
        except (ValueError, QmixError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return value
    return parse


def _pair(x_name: str, y_name: str):
    """Argument type: two real numbers written ``x,y``, checked as ``x_name`` and ``y_name``."""
    read_x, read_y = (_checked(float, check_real, name) for name in (x_name, y_name))

    def parse(text: str) -> tuple[float, float]:
        parts = text.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError(f"expected two comma-separated numbers, got {text!r}")
        return read_x(parts[0]), read_y(parts[1])
    return parse


def _parse_tolerance(text: str) -> float:
    """``validate=VALUE`` read as ``float(VALUE)``; its argument type adds ``check_tol``."""
    name, _, raw = text.partition("=")
    if not name or not raw:
        raise ValueError(f"expected validate=VALUE, got {text!r}")
    if name != "validate":
        raise ValueError(f"unknown tolerance {name!r}; the only one is 'validate'")
    return float(raw)


_seed = _checked(int, check_int, "seed", least=0)


def _output_path(text: str) -> str:
    """Argument type of --output: any path but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError(f"expected a file path, got {text!r}")
    return text


#: The options of every subcommand and of the top level, as flag -> add_argument
#: keywords.  The same options are accepted before and after the subcommand.  No
#: copy has a default, so one not given never clobbers one that was: main
#: supplies _DEFAULTS in the namespace it parses into.
_COMMON = {
    "--seed": dict(
        type=_seed,
        default=argparse.SUPPRESS,
        help="random seed, read only by check-props; defaults to QMIX_SEED, then 0",
    ),
    "--tol": dict(
        type=_checked(_parse_tolerance, check_tol),
        default=argparse.SUPPRESS,
        metavar="validate=VALUE",
        help=f"density-validation tolerance, finite with 0 < VALUE < 1 "
        f"(default: {VALIDATION_TOL:g}), read only by the commands that load "
        "matrix files; the last one wins",
    ),
    "--output": dict(
        type=_output_path, default=argparse.SUPPRESS, help="write the report here instead of stdout"
    ),
}
_DEFAULTS = {"seed": None, "tol": VALIDATION_TOL, "output": None}

#: name -> (help, handler, positional arguments, options as flag -> add_argument
#: keywords); every subcommand takes the _COMMON options after its own.
_COMMANDS = {
    "validate": ("validate and classify a density matrix file", _cmd_classify, "file", {}),
    "project": ("complex projection of a density matrix", _cmd_project, "file", {}),
    "classify": ("report the proper/improper classification", _cmd_classify, "file", {}),
    "lift": ("lift a complex density to a target quaternionic rank", _cmd_lift, "file", {
        # the admissible ranks depend on the file: lift refuses the others, exit 1
        "--rank": dict(type=_checked(int), required=True),
    }),
    "purify": ("purify a complex density of rank at most two", _cmd_purify, "file", {}),
    "expect": (
        "expectation value of an observable in a state", _cmd_expect, "observable state", {}
    ),
    "evolve": ("evolve a state under a constant generator", _cmd_evolve, "state", {
        "--gen": dict(required=True, help="matrix file with the anti-hermitian generator"),
        "--t": dict(type=_checked(float, check_real, "evolution time t"), default=1.0),
        "--steps": dict(
            type=_checked(int, check_int, "steps", least=1),
            default=1000,
            help="rk4 time steps (default: 1000); the propagator method "
            "ignores it, a constant generator taking one exponential",
        ),
        "--method": dict(choices=("propagator", "rk4"), default="propagator"),
    }),
    "scenario": ("run the measurement scenario and emit the report", _cmd_scenario, "", {
        "--cplus": dict(type=_pair("Re c+", "Im c+"), required=True, metavar="RE,IM"),
        "--cminus": dict(type=_pair("Re c-", "Im c-"), required=True, metavar="RE,IM"),
        "--nhat": dict(
            type=_pair("direction angle theta", "direction angle phi"),
            default=(0.0, 0.0),
            metavar="THETA,PHI",
            help="measurement direction in radians (default: the z axis)",
        ),
    }),
    "check-props": ("run the randomized structural audit", _cmd_check_props, "", {
        "--nmax": dict(type=_checked(int, check_int, "n_max", least=2), default=6),
        "--trials": dict(type=_checked(int, check_int, "trials", least=0), default=100),
    }),
}


class _Parser(argparse.ArgumentParser):
    """Reads a token such as ``-0.3,0.2`` as a value, not as an option.

    argparse's stock matcher takes only plain negative numbers, so
    ``--cminus -0.3,0.2`` would exit 2.  Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built from _COMMANDS on the first call and shared by later ones.

    Parsing reads it and never changes it: every ``parse_args`` call
    fills a fresh namespace.
    """
    parser = _Parser(
        prog="qmix",
        description="Quaternionic density matrices: projection, lifting, "
        "purification, dynamics and the measurement scenario.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = [parser]
    for name, (help_text, handler, positionals, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for positional in positionals.split():
            p.add_argument(positional)
        for flag, spec in options.items():
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
        parsers.append(p)
    # last, so each command's help lists its own options first
    for p in parsers:
        for flag, spec in _COMMON.items():
            p.add_argument(flag, **spec)
    return parser


def _read_plain(argv: list) -> argparse.Namespace | None:
    """The namespace argparse reads from a plain ``argv``, or None; never prints or exits.

    Plain is: a command, then positionals that do not start with "-", and
    ``--name VALUE`` or ``--name=VALUE`` for exact long options of that command
    or of _COMMON, each at most once, a separate VALUE not starting with "-";
    every value passes its option's type and choices, and every required option
    is given.  All else is argparse's to read: help, abbreviations, options
    before the command, repeats, "--", a negative value as its own token and
    every usage error, with its message and exit 2.
    """
    if not argv or not all(isinstance(token, str) for token in argv) or argv[0] not in _COMMANDS:
        return None
    _, handler, positionals, options = _COMMANDS[argv[0]]
    words, given = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            words.append(token)
            continue
        flag, joined, text = token.partition("=")
        spec = options.get(flag, _COMMON.get(flag))
        if spec is None or flag in given:
            return None
        if not joined:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
        try:
            value = spec["type"](text) if "type" in spec else text
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        given[flag] = value
    names = positionals.split()
    if len(words) != len(names) or any(
        spec.get("required") and flag not in given for flag, spec in options.items()
    ):
        return None
    # in argparse's order: top-level defaults, command, positionals, option defaults, handler
    namespace = {**_DEFAULTS, "command": argv[0], **dict(zip(names, words))}
    namespace.update((flag[2:], spec.get("default")) for flag, spec in options.items())
    namespace["handler"] = handler
    namespace.update((flag[2:], value) for flag, value in given.items())
    return argparse.Namespace(**namespace)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv, argparse.Namespace(**_DEFAULTS))
        except SystemExit as exc:
            return int(exc.code or 0)
    if args.seed is None and args.command == "check-props":
        try:
            args.seed = _seed(os.environ.get("QMIX_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            print(f"error: QMIX_SEED: {exc}", file=sys.stderr)
            return 2
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = args.handler(args)
        _emit(report, args.output)
    except (QmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, QmixError) else 2
    finally:
        if collecting:
            gc.enable()
    return 0 if report.get("passed", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
