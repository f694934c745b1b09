"""CLI: matrix file schema, subcommands, exit codes, determinism."""

import argparse
import ast
import contextlib
import dataclasses
import enum
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmix
from qmix import cli, qmatrix, scenario
from qmix.cli import _emit, build_parser, main, parse_matrix, serialize_matrix
from qmix.density import random_density, validate
from qmix.dynamics import Generator, integrate, random_generator, time_ordered
from qmix.errors import QmixError, SchemaError
from qmix.qmatrix import QMatrix, check_real
from qmix.scenario import check_propositions, run_scenario

from support import random_qmatrix


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def half_mixed():
    return {
        "rows": 2,
        "cols": 2,
        "alpha": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
    }


def purified_file():
    return {
        "rows": 2,
        "cols": 2,
        "alpha": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
        "beta": [[[0.0, 0.0], [-0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
    }


class _Level(enum.IntEnum):
    """An int subclass, as numbers in a caller's own payload might be."""

    ONE = 1


class _Pair(list):
    """A list subclass, as a caller's own decoder might build an entry."""


# -- serialization ---------------------------------------------------------

def test_round_trip_is_canonical():
    obj = purified_file()
    assert serialize_matrix(parse_matrix(obj)) == obj
    text = json.dumps(obj)
    assert json.dumps(serialize_matrix(parse_matrix(json.loads(text)))) == text


def test_round_trip_full_precision():
    rng = np.random.default_rng(80)
    mat = random_qmatrix(rng, 3, 4)
    back = parse_matrix(json.loads(json.dumps(serialize_matrix(mat))))
    assert np.array_equal(back.alpha, mat.alpha)
    assert np.array_equal(back.beta, mat.beta)


def test_missing_beta_means_zero():
    mat = parse_matrix(half_mixed())
    assert not mat.beta.any()
    # and zero beta is omitted when writing
    assert "beta" not in serialize_matrix(mat)


def test_malformed_shape_reports_pointer():
    obj = half_mixed()
    obj["rows"] = 3
    with pytest.raises(SchemaError) as excinfo:
        parse_matrix(obj)
    assert excinfo.value.pointer == "/alpha"


def test_malformed_entry_reports_pointer():
    obj = half_mixed()
    obj["alpha"][1][1] = [0.5]
    with pytest.raises(SchemaError) as excinfo:
        parse_matrix(obj)
    assert excinfo.value.pointer == "/alpha/1/1"


def test_non_finite_entry_rejected():
    obj = half_mixed()
    obj["alpha"][0][0] = [float("inf"), 0.0]
    with pytest.raises(SchemaError):
        parse_matrix(obj)


def test_bad_dimension_fields():
    with pytest.raises(SchemaError) as excinfo:
        parse_matrix({"rows": 0, "cols": 2, "alpha": []})
    assert excinfo.value.pointer == "/rows"


# -- report writer -------------------------------------------------------------

NUMBERS = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308, 1e-308, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.integers(),
    st.booleans(),
)


@st.composite
def blocks(draw):
    """A rows x cols list of [re, im] pairs, the shape of a matrix block."""
    size = st.one_of(st.integers(1, 3), st.integers(1, 64))
    rows, cols = draw(size), draw(size)
    leaves = st.one_of(st.floats(), NUMBERS, st.sampled_from([None, "", "1, 2", "ü"]))
    values = itertools.cycle(draw(st.lists(leaves, min_size=1, max_size=8)))
    return [[[next(values), next(values)] for _ in range(cols)] for _ in range(rows)]


PAYLOADS = st.recursive(
    st.one_of(NUMBERS, st.none(), st.text(max_size=8), blocks()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=6,
)


@given(PAYLOADS)
@example([[[-0.0, 5e-324], [1e308, -1e-308]], [[math.nan, math.inf], [-math.inf, 1.5]]])
@example({"ü": [[[1, 2], [3, -4]]], "b": [[[True, False]]], "s": [[["1, 2", 0.5]]], "e": [{}, []]})
@example([[[np.float64(0.1), np.float64(-0.0)], [np.float64(math.nan), 2]]])
@example({"level": [[[_Level.ONE, 0.5]], [[-3, _Level.ONE]]]})
@settings(max_examples=150, deadline=None)
def test_report_writer_is_json_dumps_indent_two(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload, None)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


#: Entries whose text json spells its own way, or at the float range's ends.
EDGE_ENTRIES = [-0.0, 5e-324, 1e308, -1e-308, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
@pytest.mark.parametrize("beta", [False, True], ids=["zero-beta", "nonzero-beta"])
@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (4, 1), (32, 32)], ids=str)
def test_report_writer_formats_complex_arrays_as_their_lists(monkeypatch, shape, beta, transposed):
    # reports hold matrix blocks as arrays; each is written as the bytes json
    # writes for serialize_matrix's [re, im] lists, with no block test
    rng = np.random.default_rng(shape[0] * shape[1])
    floats = rng.standard_normal(4 * shape[0] * shape[1])
    floats[: len(EDGE_ENTRIES)] = EDGE_ENTRIES[: len(floats)]
    alpha, beta_block = floats.view(np.complex128).reshape(2, *shape[::-1] if transposed else shape)
    if transposed:
        alpha, beta_block = alpha.T, beta_block.T
        assert alpha.flags.c_contiguous == (1 in shape)  # numpy skips an axis of length 1
    m = QMatrix(alpha, beta_block if beta else np.zeros(shape))
    monkeypatch.setattr(cli, "_parse_block", None)
    for wrap in (lambda block: block,
                 lambda block: {"rho_improper": {"matrix": block, "beta_norm": 0.5},
                                "quaternionic_discriminator": {"observable": block}}):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            _emit(wrap(cli._matrix_object(m)), None)
        assert out.getvalue() == json.dumps(wrap(serialize_matrix(m)), indent=2) + "\n"
    assert ("beta" in serialize_matrix(m)) == beta


# -- subcommands -------------------------------------------------------------

def test_project_on_complex_state_returns_alpha_block(tmp_path, capsys):
    path = write_json(tmp_path / "state.json", half_mixed())
    assert main(["project", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == half_mixed()["alpha"]
    assert "beta" not in out


def test_project_strips_beta_of_purified_state(tmp_path, capsys):
    path = write_json(tmp_path / "state.json", purified_file())
    assert main(["project", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == purified_file()["alpha"]
    assert "beta" not in out


def test_validate_and_classify(tmp_path, capsys):
    path = write_json(tmp_path / "state.json", purified_file())
    assert main(["validate", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["valid"] is True
    assert report["classification"] == "Improper"
    assert main(["classify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "Improper"
    assert report["beta_norm"] == pytest.approx(np.sqrt(0.5))


def test_validate_failure_exits_one(tmp_path, capsys):
    bad = {
        "rows": 2,
        "cols": 2,
        "alpha": [[[0.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.0]]],
        "beta": [[[0.0, 0.0], [0.6, 0.0]], [[-0.6, 0.0], [0.0, 0.0]]],
    }
    path = write_json(tmp_path / "bad.json", bad)
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "eigenvalue" in err


def test_lift_and_purify_round_trip(tmp_path, capsys):
    path = write_json(tmp_path / "state.json", half_mixed())
    assert main(["lift", path, "--rank", "1"]) == 0
    lifted = json.loads(capsys.readouterr().out)
    assert lifted["beta"][0][1] == pytest.approx([-0.5, 0.0], abs=1e-14)
    assert main(["purify", path]) == 0
    purified = json.loads(capsys.readouterr().out)
    assert purified["alpha"] == lifted["alpha"]


def test_lift_out_of_range_exits_one_with_bounds(tmp_path, capsys):
    path = write_json(tmp_path / "state.json", half_mixed())
    assert main(["lift", path, "--rank", "3"]) == 1
    err = capsys.readouterr().err
    assert "[1, 2]" in err


def test_expect_subcommand(tmp_path, capsys):
    state = write_json(tmp_path / "state.json", purified_file())
    sigma_z = {
        "rows": 2,
        "cols": 2,
        "alpha": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
    }
    obs = write_json(tmp_path / "obs.json", sigma_z)
    assert main(["expect", obs, state]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["value"] == pytest.approx(0.0, abs=1e-14)
    assert report["observable_is_complex"] is True


def test_evolve_subcommand_both_methods(tmp_path, capsys):
    state = write_json(tmp_path / "state.json", purified_file())
    gen = {
        "rows": 2,
        "cols": 2,
        "alpha": [[[0.0, 0.3], [0.1, 0.2]], [[-0.1, 0.2], [0.0, -0.4]]],
        "beta": [[[0.2, 0.1], [0.05, -0.3]], [[0.05, -0.3], [0.4, 0.0]]],
    }
    gen_path = write_json(tmp_path / "gen.json", gen)
    assert main(["evolve", state, "--gen", gen_path, "--t", "1.0", "--steps", "400"]) == 0
    via_prop = json.loads(capsys.readouterr().out)
    assert (
        main(
            ["evolve", state, "--gen", gen_path, "--t", "1.0", "--steps", "400", "--method", "rk4"]
        )
        == 0
    )
    via_rk4 = json.loads(capsys.readouterr().out)
    a = np.array(via_prop["alpha"])
    b = np.array(via_rk4["alpha"])
    assert np.abs(a - b).max() <= 1e-8


def test_evolve_methods_agree_on_generator_within_tolerance(tmp_path, capsys):
    # a real part of 4e-11 on an alpha diagonal entry: anti-hermitian to
    # 8e-11, within the generator gate, and 1.6e-10 once scaled by t = 2
    state = write_json(tmp_path / "state.json", purified_file())
    gen = write_json(tmp_path / "gen.json", {
        "rows": 2,
        "cols": 2,
        "alpha": [[[4e-11, 0.3], [0.1, 0.2]], [[-0.1, 0.2], [0.0, -0.4]]],
    })
    outputs = []
    for method in ("propagator", "rk4"):
        assert main(["evolve", state, "--gen", gen, "--t", "2", "--method", method]) == 0
        outputs.append(json.loads(capsys.readouterr().out))
    for block in ("alpha", "beta"):
        diff = np.array(outputs[0][block]) - np.array(outputs[1][block])
        assert np.abs(diff).max() <= 1e-8


def test_scenario_subcommand_discriminator(tmp_path, capsys):
    root = "0.7071067811865476,0"
    assert main(["scenario", "--cplus", root, "--cminus", root]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    disc = report["quaternionic_discriminator"]
    assert disc["on_improper"] == pytest.approx(0.5, abs=1e-10)
    assert disc["on_proper"] == pytest.approx(0.0, abs=1e-12)
    assert report["passed"] is True


def test_scenario_deterministic_bytes(tmp_path):
    argv = ["scenario", "--cplus", "0.6,0", "--cminus", "0,0.8"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_check_props_subcommand(capsys):
    assert main(["check-props", "--nmax", "3", "--trials", "12", "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == {
        "projection_is_density",
        "projection_rank_bounds",
        "lift_round_trip",
        "purify_rank_two",
    }


def test_check_props_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QMIX_SEED", "31")
    assert main(["check-props", "--nmax", "3", "--trials", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 31


def test_usage_errors_exit_two(capsys):
    assert main([]) == 2
    assert main(["lift"]) == 2
    assert main(["scenario", "--cplus", "nope", "--cminus", "0,0"]) == 2
    capsys.readouterr()


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_malformed_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"rows\": 2}")
    assert main(["validate", str(path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "content,detail",
    [
        (b'\xff\xfe{"rows": 1}', "invalid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON: maximum recursion depth"),
        (b'{"rows": 1, "cols": 1, "alpha": [[[0, -1' + b"0" * 400 + b"]]]}",
         "/alpha/0/0: entries must be finite"),
        (b'{"rows": 1' + b"0" * 5000 + b"}", "invalid JSON: Exceeds the limit"),
        (b"[1, 2]", "matrix file must be a JSON object"),
        (b'{"rows": 1, "cols": 1}', "/alpha: missing"),
        (b'{"rows": 2, "cols": 2, "alpha": [[[0.5, 0], [0, 0]], [[0.5, 0]]]}',
         "/alpha/1: expected 2 entries"),
    ],
    ids=["not-utf8", "nested-too-deep", "integer-past-float-range", "integer-past-digit-limit",
         "array-root", "no-alpha", "short-row"],
)
def test_malformed_file_is_one_error_line(tmp_path, capsys, content, detail):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {detail}")
    assert len(captured.err.splitlines()) == 1


def test_tolerance_override(tmp_path, capsys):
    # trace off unity by 5e-9: rejected at the default, admitted at 1e-6
    slack = {
        "rows": 1,
        "cols": 1,
        "alpha": [[[1.000000005, 0.0]]],
    }
    path = write_json(tmp_path / "state.json", slack)
    assert main(["validate", path]) == 1
    capsys.readouterr()
    assert main(["--tol", "validate=1e-6", "validate", path]) == 0
    capsys.readouterr()


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    audit = ["check-props", "--nmax", "3", "--trials", "6"]
    assert main(audit + ["--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 3
    monkeypatch.setenv("QMIX_SEED", "7")
    assert main(audit) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    # A usage error leaves nothing behind for the next call.
    assert main(["check-props", "--nmax", "1"]) == 2
    assert main(audit) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 7
    # Neither a tolerance nor an output path carries over.  The trace is
    # off unity by 5e-9: admitted at 1e-8, rejected at the default.
    slack = {"rows": 1, "cols": 1, "alpha": [[[1.000000005, 0.0]]]}
    path = write_json(tmp_path / "state.json", slack)
    target = tmp_path / "out.json"
    loose = ["--tol", "validate=1e-8"]
    for argv in (loose + ["validate", path], ["validate", path] + loose):
        assert main(argv + ["--output", str(target)]) == 0
        assert json.loads(target.read_text())["valid"] is True
        assert main(["validate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: real trace") == 2


def test_bad_tolerance_is_usage_error(capsys):
    assert main(["--tol", "validate=-1", "classify", "x.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "value,shown",
    [pytest.param(value, shown, id=value)
     for value, shown in [("inf", "inf"), ("1e300", "1e+300"), ("1", "1.0"), ("nan", "nan"),
                          ("0", "0.0")]],
)
def test_tolerance_must_be_finite_and_below_one(tmp_path, capsys, value, shown):
    # an unbounded tolerance would admit [[5]], a matrix of trace 5
    path = write_json(tmp_path / "five.json", {"rows": 1, "cols": 1, "alpha": [[[5.0, 0.0]]]})
    assert main(["--tol", f"validate={value}", "validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"qmix: error: argument --tol: tol must be a real number with 0 < tol < 1, got {shown}"
    ]


def test_unknown_tolerance_name_is_usage_error(capsys):
    assert main(["--tol", "bogus=1e-3", "classify", "x.json"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "validate" in err


def test_tolerance_that_is_not_a_number_is_usage_error(capsys):
    assert main(["--tol", "validate=abc", "classify", "x.json"]) == 2
    err = capsys.readouterr().err
    assert "could not convert string to float: 'abc'" in err


@pytest.mark.parametrize("text", ["validate=", "=1e-9"], ids=["no-value", "no-name"])
def test_tolerance_without_name_or_value_is_usage_error(capsys, text):
    assert main(["--tol", text, "classify", "x.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"qmix: error: argument --tol: expected validate=VALUE, got '{text}'"]


def test_evolution_time_that_is_not_a_number_is_usage_error(tmp_path, capsys):
    state = write_json(tmp_path / "state.json", half_mixed())
    gen = write_json(tmp_path / "gen.json", {"rows": 2, "cols": 2, "alpha": [[[0, 0]] * 2] * 2})
    assert main(["evolve", state, "--gen", gen, "--t", "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == ["qmix evolve: error: argument --t: could not convert string to float: 'abc'"]


def test_output_file(tmp_path):
    state = write_json(tmp_path / "state.json", half_mixed())
    target = tmp_path / "out.json"
    assert main(["classify", state, "--output", str(target)]) == 0
    assert json.loads(target.read_text())["classification"] == "Proper"


REPORT_ARGV = {
    "validate": ["validate", "{state}"],
    "classify": ["classify", "{state}"],
    "project": ["project", "{state}"],
    "lift": ["lift", "{state}", "--rank", "1"],
    "purify": ["purify", "{state}"],
    "expect": ["expect", "{state}", "{state}"],
    "evolve-propagator": ["evolve", "{state}", "--gen", "{gen}", "--method", "propagator"],
    "evolve-rk4": ["evolve", "{state}", "--gen", "{gen}", "--method", "rk4", "--steps", "50"],
    "scenario": ["scenario", "--cplus=0.6,0", "--cminus=0,0.8", "--nhat=0.4,1.1"],
    "check-props": ["check-props", "--nmax", "3", "--trials", "4", "--seed", "0"],
}


def report_argv(tmp_path, command):
    """REPORT_ARGV[command] on a purified state and a 2 x 2 generator in tmp_path."""
    files = {
        "state": write_json(tmp_path / "state.json", purified_file()),
        "gen": write_json(tmp_path / "gen.json", {
            "rows": 2,
            "cols": 2,
            "alpha": [[[0.0, 0.3], [0.1, 0.2]], [[-0.1, 0.2], [0.0, -0.4]]],
            "beta": [[[0.2, 0.1], [0.05, -0.3]], [[0.05, -0.3], [0.4, 0.0]]],
        }),
    }
    return [arg.format(**files) for arg in REPORT_ARGV[command]]


@pytest.mark.parametrize(
    "to_file", [False, "after", "before"], ids=["stdout", "output", "output-first"]
)
@pytest.mark.parametrize("command", sorted(REPORT_ARGV))
def test_reports_are_json_dumps_indent_two(tmp_path, capsys, command, to_file):
    argv = report_argv(tmp_path, command)
    target = tmp_path / "out.json"
    if to_file == "after":
        argv += ["--output", str(target)]
    elif to_file == "before":
        argv = ["--output", str(target), *argv]
    assert main(argv) == 0
    text = target.read_text() if to_file else capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def _keys(prefix, *names):
    return [f"{prefix}/{name}" for name in names]


_MATRIX = ("rows", "cols", "alpha", "beta")
_SCENARIO_CHECKS = (
    "partial_trace_matches_lueders", "projection_matches_proper", "improper_state_is_pure",
    "complex_observables_agree", "discriminator_on_improper", "discriminator_on_proper",
)
#: Every key path of each REPORT_ARGV report, in document order; "*" stands
#: for the items of a list.  The checks, expectation rows and audit rows are
#: written from dataclass fields, so a renamed field would show here.
REPORT_KEYS = {
    "validate": _keys("", "schema_version", "valid", "classification", "beta_norm"),
    "classify": _keys("", "schema_version", "classification", "beta_norm"),
    "project": _keys("", *_MATRIX[:3]),
    "lift": _keys("", *_MATRIX),
    "purify": _keys("", *_MATRIX),
    "expect": _keys("", "schema_version", "value", "observable_is_complex"),
    "evolve-propagator": _keys("", *_MATRIX),
    "evolve-rk4": _keys("", *_MATRIX),
    "scenario": [
        *_keys("", "schema_version", "inputs"),
        *_keys("/inputs", "c_plus", "c_minus", "n_hat"),
        *_keys("/inputs/n_hat", "theta", "phi"),
        *_keys("", "improper_representation", "rho_improper"),
        "/rho_improper/matrix", *_keys("/rho_improper/matrix", *_MATRIX),
        *_keys("/rho_improper", "classification", "beta_norm"),
        "/rho_proper", "/rho_proper/matrix", *_keys("/rho_proper/matrix", *_MATRIX[:3]),
        *_keys("/rho_proper", "classification", "beta_norm"),
        "/complex_expectations",
        *_keys("/complex_expectations/*", "observable", "on_proper", "on_improper", "difference"),
        "/quaternionic_discriminator", "/quaternionic_discriminator/observable",
        *_keys("/quaternionic_discriminator/observable", *_MATRIX),
        *_keys("/quaternionic_discriminator", "on_proper", "on_improper"),
        "/checks",
        *[path for name in _SCENARIO_CHECKS for path in (
            f"/checks/{name}", *_keys(f"/checks/{name}", "passed", "residual", "tolerance"))],
        "/passed",
    ],
    "check-props": [
        *_keys("", "schema_version", "trials", "n_max", "seed", "checks"),
        *_keys("/checks/*", "name", "attempts", "failures", "worst_residual"),
        "/passed",
    ],
}


def key_paths(node, prefix=""):
    """Key paths of a parsed report in document order, each once."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield f"{prefix}/{key}"
            yield from key_paths(value, f"{prefix}/{key}")
    elif isinstance(node, list):
        for value in node:
            yield from key_paths(value, f"{prefix}/*")


@pytest.mark.parametrize("command", sorted(REPORT_ARGV))
def test_report_keys_are_pinned(tmp_path, capsys, command):
    assert main(report_argv(tmp_path, command)) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(dict.fromkeys(key_paths(report))) == REPORT_KEYS[command]


def fail_one_scenario_check(monkeypatch):
    """Make run_scenario report its first check as failed."""
    real = scenario.run_scenario

    def one_check_fails(*args, **kwargs):
        report = real(*args, **kwargs)
        name, check = next(iter(report.checks.items()))
        failed = dataclasses.replace(check, passed=False)
        return dataclasses.replace(report, checks={**report.checks, name: failed})

    monkeypatch.setattr(scenario, "run_scenario", one_check_fails)


def test_failing_scenario_check_exits_one_with_full_report(monkeypatch, capsys):
    fail_one_scenario_check(monkeypatch)
    assert main(REPORT_ARGV["scenario"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert [check["passed"] for check in report["checks"].values()].count(False) == 1
    assert report["quaternionic_discriminator"]["on_improper"] > 0


def test_output_into_missing_directory_exits_two(tmp_path, capsys):
    state = write_json(tmp_path / "state.json", half_mixed())
    assert main(["classify", state, "--output", str(tmp_path / "nope" / "out.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_empty_output_path_is_a_usage_error(tmp_path, capsys):
    # an empty path names no file: before and after the subcommand, both
    # spellings exit 2 with one error line and write nothing to stdout
    state = write_json(tmp_path / "state.json", half_mixed())
    for argv in (["classify", state, "--output", ""], ["classify", state, "--output="],
                 ["--output", "", "classify", state]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].endswith("error: argument --output: expected a file path, got ''")


@pytest.mark.parametrize("old_size", [0, 10, 200_000], ids=["empty", "shorter", "longer"])
def test_output_replaces_a_file_with_the_report(tmp_path, capsys, old_size):
    # the old file, whatever its length, is truncated before the report
    # is written: the bytes are those of stdout
    argv = report_argv(tmp_path, "scenario")
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    target = tmp_path / "out.json"
    target.write_bytes(b"x" * old_size)
    assert main(argv + ["--output", str(target)]) == 0
    assert target.read_bytes() == expected


def test_output_to_a_device_and_a_fifo(tmp_path, capsys):
    # a character device and a FIFO take the report as a regular file does
    argv = report_argv(tmp_path, "classify")
    assert main(argv + ["--output", os.devnull]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(argv + ["--output", str(fifo)]) == 0
    reader.join(timeout=60)
    assert not reader.is_alive()
    assert main(argv) == 0
    assert received == [capsys.readouterr().out.encode()]


# -- argument reading: the plain reader against argparse -----------------------

def argparse_reads(argv) -> dict | None:
    """vars() of the namespace argparse reads from argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv, argparse.Namespace(**cli._DEFAULTS)))
        except SystemExit:
            return None


def assert_read_alike(argv) -> bool:
    """Whether the plain reader reads argv; what it reads is argparse's namespace, key order too.

    Either way it prints nothing.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        plain = cli._read_plain(argv)
    assert out.getvalue() == err.getvalue() == ""
    if plain is not None:
        assert list(vars(plain).items()) == list(argparse_reads(argv).items())
    return plain is not None


FLAGS = sorted({*cli._COMMON, *(flag for *_, flags in cli._COMMANDS.values() for flag in flags)})
ARGV_VALUES = [
    "s.json", "0.5", "1", "0", "3", "64", "rk4", "propagator", "0.6,0", "0,0.8", "-0.3,0.2",
    "-1", "nan", "1e400", "10**20", "validate=1e-8", "validate=2", "x", "check-props", "",
    "-", "-h", "--",
]
ARGV_TOKENS = [*cli._COMMANDS, *FLAGS, "--out", "--meth", "--help", *ARGV_VALUES]


#: One value that each option reads; the fuzz mixes them with ARGV_VALUES.
GOOD_VALUES = {
    "--rank": "1", "--gen": "g.json", "--t": "0.5", "--steps": "3", "--method": "rk4",
    "--cplus": "0.6,0", "--cminus": "-0.3,0.2", "--nhat": "0.4,1.1", "--nmax": "3",
    "--trials": "2", "--seed": "0", "--tol": "validate=1e-8", "--output": "out.json",
}


@st.composite
def argvs(draw) -> list:
    """A command's words and options over ARGV_TOKENS, then up to three edits."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, _, positionals, options = cli._COMMANDS[command]
    flags = st.sampled_from([*options, *cli._COMMON])

    def option(flag, joined):
        value = draw(st.sampled_from([GOOD_VALUES.get(flag, "x")] * 4 + [None]))
        value = draw(st.sampled_from(ARGV_VALUES)) if value is None else value
        return [f"{flag}={value}"] if joined else [flag, value]

    argv = [command, *["s.json"] * len(positionals.split())]
    required = [flag for flag, spec in options.items() if spec.get("required")]
    for flag in required + draw(st.lists(flags, max_size=3, unique=True)):
        argv += option(flag, draw(st.booleans()))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        i, edit = draw(st.integers(0, len(argv))), draw(st.integers(0, 2))
        if edit == 0:
            argv.insert(i, draw(st.sampled_from(ARGV_TOKENS)))
        elif edit == 1 and argv:
            del argv[i - 1]
        else:  # at i = 0, an option before the command
            argv[i:i] = option(draw(flags), False)
    return argv


@given(argvs())
@example(["evolve", "s.json", "--gen", "g.json", "--t", "0.5", "--steps", "3", "--method", "rk4"])
@example(["scenario", "--cplus=0.6,0", "--cminus=-0.3,0.2", "--nhat", "0.4,1.1"])
@example(["check-props", "--nmax", "3", "--trials", "1", "--seed", "0", "--tol=validate=1e-8"])
@example(["evolve", "s.json", "--gen", "g.json", "--out", "x"])
@example(["evolve", "s.json", "--gen=", "--method="])
@example(["lift", "s.json", "--rank", "10**20"])
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_plain_reader_reads_as_argparse_or_declines(argv):
    assert_read_alike(argv)


#: The argv of each benchmark workload, one request each.
BENCHMARK_ARGV = {
    "evolve-propagator": ["evolve", "{state}", "--gen", "{gen}", "--t", "1.0", "--steps", "200",
                          "--method", "propagator", "--output", "{out}"],
    "evolve-rk4": ["evolve", "{state}", "--gen", "{gen}", "--t", "1.0", "--steps", "200",
                   "--method", "rk4", "--output", "{out}"],
    "audit": ["check-props", "--nmax", "6", "--trials", "30", "--seed", "1804289383",
              "--output", "{out}"],
    "scenario": ["scenario", "--cplus=0.5403023058681398,-0.8414709848078965",
                 "--cminus=-0.0,1e-300", "--nhat=3.141592653589793,0.0", "--output", "{out}"],
}


@pytest.mark.parametrize(
    "argv",
    [pytest.param(argv, id=name) for name, argv in [*REPORT_ARGV.items(), *BENCHMARK_ARGV.items()]],
)
def test_plain_reader_reads_every_report_and_benchmark_argv(tmp_path, capsys, monkeypatch, argv):
    report_argv(tmp_path, "evolve-rk4")  # writes state.json and gen.json
    files = {name: str(tmp_path / f"{name}.json") for name in ("state", "gen", "out")}
    argv = [arg.format(**files) for arg in argv]
    assert assert_read_alike(argv)
    expected = main(argv), capsys.readouterr()
    # argv=None reads sys.argv[1:], a tuple reads as its list, and none of
    # these builds the argparse parser
    monkeypatch.setattr(cli, "build_parser", None)
    monkeypatch.setattr(sys, "argv", ["qmix", *argv])
    assert (main(), capsys.readouterr()) == expected
    assert (main(tuple(argv)), capsys.readouterr()) == expected


# -- the work of a request ---------------------------------------------------

#: Calls per request of each benchmark shape (200 steps of t = 1.0 for
#: evolve): LAPACK factorizations, chi images through every qmix module
#: that imports ``chi``, and the finiteness scans of QMatrix arithmetic
#: (``qmatrix._finite_result``).  The counts are exact, so redundant work
#: fails here at once, where timings would hide it in the machine's noise.
#: A change that lowers a count updates its row; one that raises a count
#: says why.
WORK_COUNTS = {
    "evolve-propagator-32": (
        ("propagator", 32), dict(chi=4, eigh=1, eigvalsh=2, qr=0, svd=0, scans=6)),
    "evolve-rk4-4": (("rk4", 4), dict(chi=5, eigh=1, eigvalsh=2, qr=0, svd=0, scans=0)),
    "scenario": ("scenario", dict(chi=2, eigh=0, eigvalsh=1, qr=0, svd=0, scans=2)),
    # one stacked qr per frame rank of a dimension, and the lift sources'
    # ranks are drawn, so the qr count depends on the seed
    "audit-seed-0": (0, dict(chi=5, eigh=5, eigvalsh=10, qr=13, svd=0, scans=20)),
    "audit-seed-1": (1, dict(chi=5, eigh=5, eigvalsh=10, qr=14, svd=0, scans=20)),
}


def _counted(counts, key, fn):
    def counting(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return counting


@pytest.mark.parametrize("name", list(WORK_COUNTS))
def test_each_benchmark_request_does_pinned_work(tmp_path, monkeypatch, name):
    shape, want = WORK_COUNTS[name]
    out = str(tmp_path / "out.json")
    if isinstance(shape, tuple):
        argv = [*_evolve_argv(tmp_path, *shape), "--t", "1.0", "--steps", "200", "--output", out]
    elif shape == "scenario":
        argv = [arg.format(out=out) for arg in BENCHMARK_ARGV["scenario"]]
    else:
        argv = ["check-props", "--nmax", "6", "--trials", "30", "--seed", str(shape), "--output", out]
    counts = dict.fromkeys(want, 0)
    for key in ("eigh", "eigvalsh", "qr", "svd"):
        monkeypatch.setattr(np.linalg, key, _counted(counts, key, getattr(np.linalg, key)))
    chi = qmatrix.chi
    for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "qmix"]:
        if getattr(module, "chi", None) is chi:
            monkeypatch.setattr(module, "chi", _counted(counts, "chi", chi))
    scan = _counted(counts, "scans", qmatrix._finite_result)
    monkeypatch.setattr(qmatrix, "_finite_result", scan)
    assert main(argv) == 0
    assert counts == want


# -- the collector pause ---------------------------------------------------

def _evolve_argv(tmp_path, method, n=8):
    state = serialize_matrix(random_density(n, "improper", n).mat)
    gen = serialize_matrix(random_generator(n, np.random.default_rng(n)).h)
    state, gen = write_json(tmp_path / "s.json", state), write_json(tmp_path / "g.json", gen)
    return ["evolve", state, "--gen", gen, "--method", method]


@pytest.mark.parametrize(
    "command",
    [*sorted(REPORT_ARGV), "check-props-blocks", "evolve-8-propagator", "evolve-8-rk4"],
)
def test_request_paths_make_no_reference_cycles(tmp_path, capsys, command):
    # main runs a request with the collector paused, which is safe only
    # while reference counting frees all it allocates: no cycle is left.
    if command == "check-props-blocks":  # several audit blocks per dimension
        argv = ["check-props", "--nmax", "3", "--trials", "200"]
    elif command.startswith("evolve-8-"):
        argv = _evolve_argv(tmp_path, command.rsplit("-", 1)[1])
    else:
        argv = report_argv(tmp_path, command)
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture(params=[True, False], ids=["caller-collecting", "caller-paused"])
def caller_collecting(request):
    """The collector state a caller of main has set; restored afterwards."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def _raise_inside_the_pause(*args, **kwargs):
    assert gc.isenabled() is False
    raise RuntimeError("handler failed")


@pytest.mark.parametrize(
    "row", ["exit-0", "qmix-error", "failed-check", "os-error", "usage-error", "raises"]
)
def test_main_leaves_the_collector_as_it_found_it(
    tmp_path, monkeypatch, capsys, caller_collecting, row
):
    state = write_json(tmp_path / "state.json", half_mixed())
    argv, code = {
        "exit-0": (["classify", state], 0),
        "qmix-error": (["classify", write_json(tmp_path / "bad.json", {"rows": 2})], 1),
        "failed-check": (REPORT_ARGV["scenario"], 1),
        "os-error": (["classify", state, "--output", str(tmp_path / "nope" / "out.json")], 2),
        "usage-error": (["check-props", "--nmax", "1"], 2),
        "raises": (REPORT_ARGV["scenario"], None),
    }[row]
    if row == "failed-check":
        fail_one_scenario_check(monkeypatch)
    if row == "raises":
        monkeypatch.setattr(scenario, "run_scenario", _raise_inside_the_pause)
        with pytest.raises(RuntimeError, match="handler failed"):
            main(argv)
    else:
        assert main(argv) == code
    assert gc.isenabled() is caller_collecting


def test_collector_is_paused_in_one_place():
    # the pause, and nothing else the gc module offers, belongs to cli.main:
    # a gc call in a library module would change every caller's collector
    calls = []
    for path in sorted(Path(qmix.__file__).parent.glob("*.py")):
        for scope in ast.parse(path.read_text()).body:
            in_main = path.name == "cli.py" and getattr(scope, "name", "") == "main"
            for node in ast.walk(scope):
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    calls.append(f"{path.name}:{node.lineno}: from gc import")
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "gc"
                ):
                    where = "main" if in_main else f"{path.name}:{node.lineno}"
                    calls.append(f"{where}: gc.{node.func.attr}")
    assert sorted(calls) == ["main: gc.disable", "main: gc.enable", "main: gc.isenabled"]


@pytest.mark.parametrize(
    "entry",
    [[True, 0.0], ["1", 0.0], [0.5, False], [0.5, 0.0, 0.0], [[0.5], 0.0], 0.5],
)
def test_malformed_entries_report_first_pointer(entry):
    obj = purified_file()
    obj["beta"][1][0] = entry
    obj["beta"][1][1] = [None, None]
    with pytest.raises(SchemaError) as excinfo:
        parse_matrix(obj)
    assert excinfo.value.pointer == "/beta/1/0"
    assert "expected [re, im]" in str(excinfo.value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_entries_report_first_pointer(value):
    obj = half_mixed()
    obj["alpha"][0][1] = [0.0, value]
    obj["alpha"][1][0] = [value, 0.0]
    with pytest.raises(SchemaError) as excinfo:
        parse_matrix(json.loads(json.dumps(obj)))
    assert excinfo.value.pointer == "/alpha/0/1"
    assert "finite" in str(excinfo.value)


def test_parse_admits_float_subclass_leaves_bitwise():
    # np.float64 leaves pass the block test as a float subclass, and
    # parse to the same bits as plain floats
    obj = serialize_matrix(random_qmatrix(np.random.default_rng(81), 3, 4))
    subclassed = {
        **obj,
        **{name: [[[np.float64(x) for x in entry] for entry in row] for row in obj[name]]
           for name in ("alpha", "beta")},
    }
    plain, got = parse_matrix(obj), parse_matrix(subclassed)
    assert np.array_equal(got.alpha.view(np.uint64), plain.alpha.view(np.uint64))
    assert np.array_equal(got.beta.view(np.uint64), plain.beta.view(np.uint64))


#: Entry at /alpha/1/0 -> its parsed value, or None where parsing refuses it
#: with "expected [re, im]".  Numbers are ints and floats, their subclasses
#: included, and not bools; an entry is a list of two, a list subclass too.
ENTRY_OUTCOMES = {
    "bool": ([True, 0.0], None),
    "numpy-bool": ([np.bool_(True), 0.0], None),
    "numpy-int64": ([np.int64(1), 0.0], None),
    "numpy-float64": ([np.float64(0.1), -0.0], complex(0.1, -0.0)),
    "int-enum": ([_Level.ONE, 2], complex(1.0, 2.0)),
    "string": (["0.5", 0.0], None),
    "none": ([None, 0.0], None),
    "tuple": ((0.5, 0.0), None),
    "list-subclass": (_Pair([0.5, -0.25]), complex(0.5, -0.25)),
    "one-element": ([0.5], None),
    "three-elements": ([0.5, 0.0, 0.0], None),
    "nested": ([[0.5], 0.0], None),
    "dict": ({"re": 0.5, "im": 0.0}, None),
}


@pytest.mark.parametrize("row", list(ENTRY_OUTCOMES))
def test_entry_rule(row):
    entry, value = ENTRY_OUTCOMES[row]
    obj = half_mixed()
    obj["alpha"][1][0] = entry
    if value is None:
        with pytest.raises(SchemaError) as excinfo:
            parse_matrix(obj)
        assert excinfo.value.pointer == "/alpha/1/0"
        assert str(excinfo.value) == "/alpha/1/0: expected [re, im]"
    else:
        got = parse_matrix(obj).alpha
        want = parse_matrix(half_mixed()).alpha
        want[1, 0] = value
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_parse_keeps_negative_zero():
    obj = half_mixed()
    obj["alpha"][0][1] = [-0.0, -0.0]
    mat = parse_matrix(obj)
    assert np.signbit(mat.alpha[0, 1].real) and np.signbit(mat.alpha[0, 1].imag)
    assert json.dumps(serialize_matrix(mat)) == json.dumps(obj)


def test_scenario_accepts_negative_values_space_separated(tmp_path):
    spaced = tmp_path / "spaced.json"
    joined = tmp_path / "joined.json"
    values = {"--cplus": "-0.8,0", "--cminus": "-0.36,-0.48", "--nhat": "-0.5,-1e-1"}
    argv = ["scenario"]
    for flag, value in values.items():
        argv += [flag, value]
    assert main(argv + ["--output", str(spaced)]) == 0
    argv = ["scenario"] + [f"{flag}={value}" for flag, value in values.items()]
    assert main(argv + ["--output", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    report = json.loads(spaced.read_text())
    assert report["inputs"]["c_minus"] == [-0.36, -0.48]
    assert report["inputs"]["n_hat"] == {"theta": -0.5, "phi": -0.1}


def test_option_still_not_taken_as_value(capsys):
    assert main(["scenario", "--cplus", "0.6,0", "--cminus", "--nhat"]) == 2
    capsys.readouterr()


def test_bad_seed_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QMIX_SEED", "abc")
    assert main(["check-props", "--nmax", "3", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: QMIX_SEED: invalid literal for int() with base 10: 'abc'\n"
    assert captured.out == ""


def test_bad_seed_environment_is_ignored_without_a_seed(tmp_path, capsys, monkeypatch):
    # only check-props reads a seed, so QMIX_SEED cannot break validate
    monkeypatch.setenv("QMIX_SEED", "abc")
    assert main(["validate", write_json(tmp_path / "state.json", half_mixed())]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["valid"] is True


@pytest.mark.parametrize("method", ["propagator", "rk4"])
@pytest.mark.parametrize(
    "steps,message",
    [pytest.param("0", "steps must be >= 1, got 0", id="0"),
     pytest.param("-3", "steps must be >= 1, got -3", id="-3"),
     pytest.param("2.5", "invalid literal for int() with base 10: '2.5'", id="2.5")],
)
def test_non_positive_steps_is_usage_error(tmp_path, capsys, method, steps, message):
    # the propagator ignores --steps, but a bad one is still refused
    state = write_json(tmp_path / "state.json", half_mixed())
    gen = write_json(tmp_path / "gen.json", {"rows": 2, "cols": 2, "alpha": [[[0, 0]] * 2] * 2})
    argv = ["evolve", state, "--gen", gen, "--steps", steps, "--method", method]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"qmix evolve: error: argument --steps: {message}"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,option,template,name",
    [
        ("evolve-propagator", "--t", "{}", "evolution time t"),
        ("evolve-rk4", "--t", "{}", "evolution time t"),
        ("scenario", "--cplus", "{},0", "Re c+"),
        ("scenario", "--cminus", "0,{}", "Im c-"),
        ("scenario", "--nhat", "{},0", "direction angle theta"),
    ],
    ids=["propagator-t", "rk4-t", "cplus", "cminus", "nhat"],
)
def test_non_finite_numbers_are_usage_errors(
    tmp_path, capsys, command, option, template, name, value
):
    if command == "scenario":
        argv = ["scenario", "--cplus=0.6,0", "--cminus=0.8,0"]
    else:
        state = write_json(tmp_path / "state.json", half_mixed())
        gen = write_json(tmp_path / "gen.json", {"rows": 2, "cols": 2, "alpha": [[[0, 0]] * 2] * 2})
        argv = ["evolve", state, "--gen", gen, "--method", command.removeprefix("evolve-")]
    assert main([*argv, f"{option}={template.format(value)}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    error_lines = [line for line in captured.err.splitlines() if "error:" in line]
    prog = command.partition("-")[0]
    assert error_lines == [f"qmix {prog}: error: argument {option}: {name} = {value} is not finite"]


@pytest.mark.parametrize(
    "argv,option,message",
    [
        pytest.param(["--nmax", "1"], "--nmax", "n_max must be >= 2, got 1", id="argv0---nmax"),
        pytest.param(["--nmax", "2.5"], "--nmax", "invalid literal for int() with base 10: '2.5'",
                     id="argv1---nmax"),
        pytest.param(["--trials", "-2"], "--trials", "trials must be >= 0, got -2",
                     id="argv2---trials"),
        pytest.param(["--seed", "-1"], "--seed", "seed must be >= 0, got -1", id="argv3---seed"),
    ],
)
def test_bad_audit_arguments_are_usage_errors(capsys, argv, option, message):
    assert main(["check-props", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("usage: qmix check-props ")
    assert captured.err.endswith(f"\nqmix check-props: error: argument {option}: {message}\n")


def test_negative_seed_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QMIX_SEED", "-5")
    assert main(["check-props", "--nmax", "3", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: QMIX_SEED: seed must be >= 0, got -5\n"


_NAN, _INF = float("nan"), float("inf")
_STATE = QMatrix.identity(2) / 2.0
_ZERO_GENERATOR = Generator(QMatrix.identity(2) * 0.0)
_EVOLVE = ["evolve", "s.json", "--gen", "g.json"]
_SCENARIO = ["scenario", "--cplus=0.6,0", "--cminus=0.8,0"]


@pytest.mark.parametrize(
    "option,argv,library",
    [
        ("--t", [*_EVOLVE, "--t", "nan"], lambda: time_ordered(_ZERO_GENERATOR, _NAN)),
        ("--t", [*_EVOLVE, "--t=-1e400"], lambda: time_ordered(_ZERO_GENERATOR, -_INF)),
        ("--steps", [*_EVOLVE, "--steps", "0", "--method", "propagator"],
         lambda: integrate(validate(_STATE), _ZERO_GENERATOR, 1.0, 0)),
        ("--nmax", ["check-props", "--nmax", "1"], lambda: check_propositions(1, 0, 0)),
        ("--trials", ["check-props", "--trials", "-2"], lambda: check_propositions(2, -2, 0)),
        ("--seed", ["check-props", "--seed", "-1"], lambda: check_propositions(2, 0, -1)),
        ("QMIX_SEED=-5", ["check-props"], lambda: check_propositions(2, 0, -5)),
        ("--nhat", [*_SCENARIO, "--nhat=nan,0"], lambda: run_scenario(0.6, 0.8, (_NAN, 0.0))),
        ("--nhat", [*_SCENARIO, "--nhat=0,inf"], lambda: run_scenario(0.6, 0.8, (0.0, _INF))),
        ("--cplus", ["scenario", "--cplus=nan,0", "--cminus=0.8,0"],
         lambda: check_real("Re c+", _NAN)),
        ("--cminus", ["scenario", "--cplus=0.6,0", "--cminus=0,-inf"],
         lambda: check_real("Im c-", -_INF)),
        ("--rank", ["lift", "s.json", "--rank", "abc"], lambda: int("abc")),
        ("--rank", ["lift", "s.json", "--rank=1.5"], lambda: int("1.5")),
        ("--tol", ["--tol", "validate=2", "validate", "s.json"], lambda: validate(_STATE, tol=2.0)),
        ("--tol", ["--tol", "validate=nan", "validate", "s.json"],
         lambda: validate(_STATE, tol=_NAN)),
    ],
    ids=["t-nan", "t-negative-overflow", "steps-zero", "nmax-one", "trials-negative",
         "seed-negative", "QMIX_SEED-negative", "theta-nan", "phi-inf", "cplus-real-nan",
         "cminus-imaginary-inf", "rank-not-a-number", "rank-fraction", "tol-two", "tol-nan"],
)
def test_usage_errors_are_worded_by_the_library(capsys, monkeypatch, option, argv, library):
    # one wording per rule: after its prefix, the CLI's error line is str() of
    # the library rule's exception for the same value
    monkeypatch.delenv("QMIX_SEED", raising=False)
    if option.startswith("QMIX_SEED="):
        monkeypatch.setenv(*option.split("="))
        prefix = "error: QMIX_SEED: "
    else:
        prefix = f"error: argument {option}: "
    with pytest.raises((ValueError, QmixError)) as excinfo:
        library()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line = captured.err.splitlines()[-1]
    assert prefix in line
    assert line.partition(prefix)[2] == str(excinfo.value)


@pytest.mark.parametrize(
    "rank,message",
    [("0", "target rank must be >= 1, got 0"),
     ("3", "target rank 3 outside admissible range [1, 2] for projection rank 2"),
     ("99999999999999999999999",
      "target rank 99999999999999999999999 outside admissible range [1, 2] for projection rank 2")],
    ids=["zero", "above", "past-int64"],
)
def test_lift_rank_out_of_range_is_a_library_error(tmp_path, capsys, rank, message):
    # --rank's range depends on the file, so it is the library's to refuse: exit 1
    path = write_json(tmp_path / "state.json", half_mixed())
    assert main(["lift", path, "--rank", rank]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("method", ["propagator", "rk4"])
def test_overflowing_propagator_exits_one_with_one_error_line(tmp_path, capsys, method):
    # a finite generator scaled by 1e200: expm returns NaN and the rk4
    # iterate overflows; either must fail a gate as a QmixError, with no
    # traceback and no numpy warning on the way
    state = write_json(tmp_path / "state.json", purified_file())
    scaled = [[[1e200 * x for x in entry] for entry in row] for row in [
        [[0.0, 0.3], [0.1, 0.2]], [[-0.1, 0.2], [0.0, -0.4]]
    ]]
    gen = write_json(tmp_path / "gen.json", {"rows": 2, "cols": 2, "alpha": scaled})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", state, "--gen", gen, "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("t,steps", [("1e200", "3"), ("1e308", "1000")])
def test_overflowing_rk4_time_exits_one_naming_the_time(tmp_path, capsys, t, steps):
    # a unit-scale generator and a finite time whose RK4 step polynomial
    # overflows: one error line that names the time, not a drift of nan
    state = write_json(tmp_path / "state.json", purified_file())
    gen = write_json(tmp_path / "gen.json", {
        "rows": 2,
        "cols": 2,
        "alpha": [[[0.0, 0.3], [0.1, 0.2]], [[-0.1, 0.2], [0.0, -0.4]]],
        "beta": [[[0.2, 0.1], [0.05, -0.3]], [[0.05, -0.3], [0.4, 0.0]]],
    })
    argv = ["evolve", state, "--gen", gen, "--method", "rk4", f"--t={t}", "--steps", steps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: step polynomial of (t / steps) * H overflows at evolution time "
        f"t = {float(t)!r} with {steps} steps\n"
    )


def real_matrix_file(path, rows):
    """A matrix file with beta = 0 and the given real alpha rows."""
    alpha = [[[float(x), 0.0] for x in row] for row in rows]
    return write_json(path, {"rows": len(rows), "cols": len(rows[0]), "alpha": alpha})


@pytest.mark.parametrize(
    "argv,line",
    [(["validate", "{wide}"], "density matrix must be square, got (2, 3)"),
     (["evolve", "{state}", "--gen", "{wide}"], "generator must be square, got (2, 3)"),
     (["evolve", "{state}", "--gen", "{zero3}", "--method", "propagator"],
      "propagator dimension 3 != state dimension 2"),
     (["evolve", "{state}", "--gen", "{zero3}", "--method", "rk4"],
      "generator dimension 3 != state dimension 2"),
     (["expect", "{wide}", "{state}"], "observable must be square, got (2, 3)"),
     (["expect", "{eye3}", "{state}"], "observable dimension 3 != state dimension 2")],
    ids=["validate-non-square", "generator-non-square", "propagator-dimension",
         "rk4-dimension", "observable-non-square", "observable-dimension"],
)
def test_shape_errors_exit_one_with_one_pinned_line(tmp_path, capsys, argv, line):
    files = {
        "state": write_json(tmp_path / "state.json", purified_file()),
        "wide": real_matrix_file(tmp_path / "wide.json", [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]),
        "zero3": real_matrix_file(tmp_path / "zero3.json", np.zeros((3, 3))),
        "eye3": real_matrix_file(tmp_path / "eye3.json", np.eye(3)),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {line}\n"


HUGE_DENSITIES = {
    "diagonal": {"alpha": [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e308, 0.0]]]},
    "off-diagonal": {"alpha": [[[0.5, 0.0], [1e308, 0.0]], [[1e308, 0.0], [0.5, 0.0]]]},
    "beta": {
        "alpha": half_mixed()["alpha"],
        "beta": [[[0.0, 0.0], [1.7e308, 1.7e308]], [[-1.7e308, -1.7e308], [0.0, 0.0]]],
    },
}


@pytest.mark.parametrize("command", ["validate", "classify", "project"])
@pytest.mark.parametrize("name", sorted(HUGE_DENSITIES))
def test_huge_density_exits_one_with_one_error_line(tmp_path, capsys, name, command):
    # finite entries near the float limit fail the density gate before
    # any arithmetic on them can overflow
    path = write_json(tmp_path / "huge.json", {"rows": 2, "cols": 2, **HUGE_DENSITIES[name]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


PURE_STATE = {"rows": 2, "cols": 2, "alpha": [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]}


def test_overflowing_expectation_exits_one_with_one_error_line(tmp_path, capsys):
    # Re Tr(A rho) = 2e308 overflows: an error line, never "value": Infinity
    state = write_json(tmp_path / "state.json", PURE_STATE)
    huge = [[[1e308, 0.0], [1e308, 0.0]], [[1e308, 0.0], [1e308, 0.0]]]
    obs = write_json(tmp_path / "obs.json", {"rows": 2, "cols": 2, "alpha": huge})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["expect", obs, state]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "not finite" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_huge_skew_beta_observable_has_a_finite_expectation(tmp_path, capsys):
    # ||beta||_F overflows, which reads as not complex; the value is finite
    state = write_json(tmp_path / "state.json", purified_file())
    obs = write_json(tmp_path / "obs.json", {
        "rows": 2,
        "cols": 2,
        "alpha": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "beta": [[[0.0, 0.0], [1e300, 0.0]], [[-1e300, 0.0], [0.0, 0.0]]],
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["expect", obs, state]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["observable_is_complex"] is False
    assert math.isfinite(report["value"])
    assert report["value"] == pytest.approx(-1e300, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["expect", "{operand}", "{state}"],
        ["evolve", "{state}", "--gen", "{operand}", "--method", "propagator"],
        ["evolve", "{state}", "--gen", "{operand}", "--method", "rk4"],
    ],
    ids=["expect", "evolve-propagator", "evolve-rk4"],
)
def test_huge_operand_of_wrong_symmetry_exits_one_without_warning(tmp_path, capsys, argv):
    # A - A^dag and H + H^dag overflow here: inf fails the symmetry test
    # with one error line and no numpy warning
    files = {
        "state": write_json(tmp_path / "state.json", PURE_STATE),
        "operand": write_json(tmp_path / "operand.json", {
            "rows": 2,
            "cols": 2,
            "alpha": [[[1.7e308, 0.0], [1.7e308, 0.0]], [[-1.7e308, 0.0], [1.7e308, 0.0]]],
            "beta": [[[0.0, 0.0], [-1.7e308, 0.0]], [[-1.7e308, 0.0], [0.0, 0.0]]],
        }),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([arg.format(**files) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "inf" in captured.err
    assert len(captured.err.splitlines()) == 1


# -- fuzzing main ----------------------------------------------------------------

#: Magnitudes from 1e-320 to 1.7e308.
MAGNITUDES = st.one_of(
    st.sampled_from([1e-320, 1.7e308]),
    st.floats(-320.0, math.log10(1.7e308)).map(lambda exponent: 10.0**exponent),
)
EXTREME = st.builds(
    lambda sign, magnitude: sign * magnitude, st.sampled_from([1.0, -1.0]), MAGNITUDES
)
UNIT = st.floats(-1.0, 1.0)
ENTRIES = st.one_of(st.just(0.0), UNIT, EXTREME)


@st.composite
def matrix_files(draw, n: int, sign: int) -> dict:
    """An n x n matrix file; nine in ten are hermitian (sign 1) or anti-hermitian (-1).

    Half of the hermitian ones become a unit-trace mix of a pure state
    and a diagonal, with beta zero or small, so many are densities.  One
    file in four is then scaled by a magnitude from MAGNITUDES.
    """
    entries = draw(st.sampled_from([UNIT, ENTRIES]))
    alpha, beta = [
        [[complex(draw(entries), draw(entries)) for _ in range(n)] for _ in range(n)]
        for _ in range(2)
    ]
    if draw(st.integers(0, 9)):
        # alpha^dag = sign alpha; beta^T = -sign beta (chi(M)^dag = sign chi(M))
        for i in range(n):
            z = alpha[i][i]
            alpha[i][i] = complex(z.real, 0.0) if sign > 0 else complex(0.0, z.imag)
            if sign > 0:
                beta[i][i] = 0j
            for j in range(i):
                alpha[j][i] = sign * alpha[i][j].conjugate()
                beta[j][i] = -sign * beta[i][j]
        if sign > 0 and draw(st.booleans()):
            v = [complex(draw(st.floats(0.1, 1.0)), draw(UNIT)) for _ in range(n)]
            weights = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
            mix, small = draw(st.floats(0.0, 1.0)), draw(st.sampled_from([0.0, 1e-3]))
            norm, total = sum(abs(x) ** 2 for x in v), sum(weights)
            for i in range(n):
                for j in range(n):
                    alpha[i][j] = mix * (v[i] * v[j].conjugate()) / norm
                    beta[i][j] *= small
                alpha[i][i] += (1 - mix) * weights[i] / total
    scale = draw(MAGNITUDES) if draw(st.integers(0, 3)) == 0 else 1.0
    obj = {"rows": n, "cols": n}
    for name, block in (("alpha", alpha), ("beta", beta)):
        obj[name] = [[[z.real * scale, z.imag * scale] for z in row] for row in block]
    if draw(st.booleans()):
        del obj["beta"]
    return obj


@st.composite
def invocations(draw) -> tuple[dict, list]:
    """Matrix files by name and an argv that parses, over every file-reading command."""
    n = draw(st.integers(1, 4))
    command = draw(st.sampled_from(
        ["validate", "classify", "project", "lift", "purify", "expect", "propagator", "rk4"]
    ))
    files = {"state": draw(matrix_files(n, 1))}
    if command == "lift":
        argv = ["lift", "{state}", "--rank", str(draw(st.integers(-1, n + 1)))]
    elif command == "expect":
        files["observable"] = draw(matrix_files(n, 1))
        argv = ["expect", "{observable}", "{state}"]
    elif command in ("propagator", "rk4"):
        files["gen"] = draw(matrix_files(n, -1))
        t = draw(st.one_of(st.floats(-10.0, 10.0), EXTREME))
        argv = ["evolve", "{state}", "--gen", "{gen}", "--method", command, f"--t={t!r}"]
        argv += ["--steps", str(draw(st.integers(1, 8)))]
    else:
        argv = [command, "{state}"]
    if draw(st.booleans()):
        argv += ["--tol", "validate=" + draw(st.sampled_from(["1e-10", "1e-6", "0.5"]))]
    return files, argv


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


@given(invocations())
@settings(max_examples=250, deadline=None)
def test_main_on_generated_files_exits_cleanly(tmp_path_factory, case):
    # 0, 1 or 2; a failure is one stderr line and no report; a success is a
    # report of finite numbers.  A numpy RuntimeWarning is an error here.
    files, argv = case
    folder = tmp_path_factory.mktemp("fuzz")
    paths = {name: write_json(folder / f"{name}.json", obj) for name, obj in files.items()}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.format(**paths) for arg in argv])
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_reject_constant)


#: Signed numbers from 5e-324 to 1.7e308, and zero.
SCENARIO_NUMBERS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1.7e308]),
    st.builds(
        lambda sign, exponent: sign * 10.0**exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(math.log10(5e-324), math.log10(1.7e308)),
    ),
)


@st.composite
def scenario_argvs(draw) -> list:
    """A scenario argv; half of the amplitude sets are scaled to unit norm."""
    amplitudes = [draw(SCENARIO_NUMBERS) for _ in range(4)]
    largest = max(abs(x) for x in amplitudes)
    if largest and draw(st.booleans()):
        amplitudes = [x / largest for x in amplitudes]
        norm = math.hypot(*amplitudes)
        amplitudes = [x / norm for x in amplitudes]
    re_plus, im_plus, re_minus, im_minus = amplitudes
    theta, phi = draw(SCENARIO_NUMBERS), draw(SCENARIO_NUMBERS)
    return [
        "scenario",
        f"--cplus={re_plus!r},{im_plus!r}",
        f"--cminus={re_minus!r},{im_minus!r}",
        f"--nhat={theta!r},{phi!r}",
    ]


@given(scenario_argvs())
@settings(max_examples=300, deadline=None)
def test_scenario_on_generated_numbers_exits_cleanly(argv):
    # 0 with a report of finite numbers, or 1 with one stderr line and no
    # report; a numpy RuntimeWarning is an error here
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code in (0, 1)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_reject_constant)


NO_SCIPY_PROBE = """
import json
import sys

import qmix.cli

first = "import qmix.cli" if "scipy" in sys.modules else None
for argv in json.loads(sys.argv[1]):
    assert qmix.cli.main(argv) == 0, argv
    if first is None and "scipy" in sys.modules:
        first = " ".join(argv[:3])
print(first)
"""


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: neither the import of the CLI nor
    # any subcommand may pull it in
    state = write_json(tmp_path / "state.json", purified_file())
    gen = write_json(tmp_path / "gen.json", {
        "rows": 2,
        "cols": 2,
        "alpha": [[[0.0, 0.3], [0.1, 0.2]], [[-0.1, 0.2], [0.0, -0.4]]],
        "beta": [[[0.2, 0.1], [0.05, -0.3]], [[0.05, -0.3], [0.4, 0.0]]],
    })
    out = str(tmp_path / "out.json")
    commands = [
        ["evolve", state, "--gen", gen, "--method", "propagator", "--output", out],
        ["evolve", state, "--gen", gen, "--method", "rk4", "--output", out],
        ["scenario", "--cplus=0.6,0", "--cminus=0,0.8", "--nhat=0.4,1.1", "--output", out],
        ["check-props", "--nmax", "3", "--trials", "4", "--seed", "0", "--output", out],
        *([command, state, "--output", out] for command in ("validate", "classify", "project", "purify")),
        ["lift", state, "--rank", "1", "--output", out],
        ["expect", state, state, "--output", out],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None", f"scipy first loaded by {proc.stdout.strip()}"
