"""CLI: matrix file schema, subcommands, exit codes, determinism."""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmix import scenario
from qmix.cli import _emit, build_parser, main, parse_matrix, serialize_matrix
from qmix.errors import SchemaError

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
@settings(max_examples=150, deadline=None)
def test_report_writer_is_json_dumps_indent_two(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload, None)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


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


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    assert build_parser() is build_parser()
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


@pytest.mark.parametrize("value", ["inf", "1e300", "1", "nan", "0"])
def test_tolerance_must_be_finite_and_below_one(tmp_path, capsys, value):
    # an unbounded tolerance would admit [[5]], a matrix of trace 5
    path = write_json(tmp_path / "five.json", {"rows": 1, "cols": 1, "alpha": [[[5.0, 0.0]]]})
    assert main(["--tol", f"validate={value}", "validate", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"qmix: error: argument --tol: must be finite with 0 < VALUE < 1, got '{value}'"
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


@pytest.mark.parametrize(
    "to_file", [False, "after", "before"], ids=["stdout", "output", "output-first"]
)
@pytest.mark.parametrize("command", sorted(REPORT_ARGV))
def test_reports_are_json_dumps_indent_two(tmp_path, capsys, command, to_file):
    files = {
        "state": write_json(tmp_path / "state.json", purified_file()),
        "gen": write_json(tmp_path / "gen.json", {
            "rows": 2,
            "cols": 2,
            "alpha": [[[0.0, 0.3], [0.1, 0.2]], [[-0.1, 0.2], [0.0, -0.4]]],
            "beta": [[[0.2, 0.1], [0.05, -0.3]], [[0.05, -0.3], [0.4, 0.0]]],
        }),
    }
    argv = [arg.format(**files) for arg in REPORT_ARGV[command]]
    target = tmp_path / "out.json"
    if to_file == "after":
        argv += ["--output", str(target)]
    elif to_file == "before":
        argv = ["--output", str(target), *argv]
    assert main(argv) == 0
    text = target.read_text() if to_file else capsys.readouterr().out
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_failing_scenario_check_exits_one_with_full_report(monkeypatch, capsys):
    real = scenario.run_scenario

    def one_check_fails(*args, **kwargs):
        report = real(*args, **kwargs)
        name, check = next(iter(report.checks.items()))
        failed = dataclasses.replace(check, passed=False)
        return dataclasses.replace(report, checks={**report.checks, name: failed})

    monkeypatch.setattr(scenario, "run_scenario", one_check_fails)
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
    # np.float64 leaves miss the exact-type block scanner and take the
    # per-entry check, which admits float subclasses, to the same bits
    obj = serialize_matrix(random_qmatrix(np.random.default_rng(81), 3, 4))
    subclassed = {
        **obj,
        **{name: [[[np.float64(x) for x in entry] for entry in row] for row in obj[name]]
           for name in ("alpha", "beta")},
    }
    plain, got = parse_matrix(obj), parse_matrix(subclassed)
    assert np.array_equal(got.alpha.view(np.uint64), plain.alpha.view(np.uint64))
    assert np.array_equal(got.beta.view(np.uint64), plain.beta.view(np.uint64))


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
    assert "QMIX_SEED" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_bad_seed_environment_is_ignored_without_a_seed(tmp_path, capsys, monkeypatch):
    # only check-props reads a seed, so QMIX_SEED cannot break validate
    monkeypatch.setenv("QMIX_SEED", "abc")
    assert main(["validate", write_json(tmp_path / "state.json", half_mixed())]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["valid"] is True


@pytest.mark.parametrize("method", ["propagator", "rk4"])
@pytest.mark.parametrize("steps", ["0", "-3", "2.5"])
def test_non_positive_steps_is_usage_error(tmp_path, capsys, method, steps):
    state = write_json(tmp_path / "state.json", half_mixed())
    gen = write_json(tmp_path / "gen.json", {"rows": 2, "cols": 2, "alpha": [[[0, 0]] * 2] * 2})
    argv = ["evolve", state, "--gen", gen, "--steps", steps, "--method", method]
    assert main(argv) == 2
    assert "--steps" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,option,template",
    [
        ("evolve-propagator", "--t", "{}"),
        ("evolve-rk4", "--t", "{}"),
        ("scenario", "--cplus", "{},0"),
        ("scenario", "--cminus", "0,{}"),
        ("scenario", "--nhat", "{},0"),
    ],
    ids=["propagator-t", "rk4-t", "cplus", "cminus", "nhat"],
)
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, command, option, template, value):
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
    assert len(error_lines) == 1 and f"argument {option}:" in error_lines[0], captured.err


@pytest.mark.parametrize(
    "argv,option",
    [
        (["--nmax", "1"], "--nmax"),
        (["--nmax", "2.5"], "--nmax"),
        (["--trials", "-2"], "--trials"),
        (["--seed", "-1"], "--seed"),
    ],
)
def test_bad_audit_arguments_are_usage_errors(capsys, argv, option):
    assert main(["check-props", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}:" in captured.err
    assert "Traceback" not in captured.err


def test_negative_seed_environment_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QMIX_SEED", "-5")
    assert main(["check-props", "--nmax", "3", "--trials", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: QMIX_SEED")
    assert len(captured.err.splitlines()) == 1


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
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "None", f"scipy first loaded by {proc.stdout.strip()}"
