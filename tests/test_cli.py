"""CLI: matrix file schema, subcommands, exit codes, determinism."""

import json
import warnings

import numpy as np
import pytest

from qmix.cli import build_parser, main, parse_matrix, serialize_matrix
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


def test_unknown_tolerance_name_is_usage_error(capsys):
    assert main(["--tol", "bogus=1e-3", "classify", "x.json"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "validate" in err


def test_output_file(tmp_path):
    state = write_json(tmp_path / "state.json", half_mixed())
    target = tmp_path / "out.json"
    assert main(["classify", state, "--output", str(target)]) == 0
    assert json.loads(target.read_text())["classification"] == "Proper"


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


@pytest.mark.parametrize("method", ["propagator", "rk4"])
@pytest.mark.parametrize("steps", ["0", "-3", "2.5"])
def test_non_positive_steps_is_usage_error(tmp_path, capsys, method, steps):
    state = write_json(tmp_path / "state.json", half_mixed())
    gen = write_json(tmp_path / "gen.json", {"rows": 2, "cols": 2, "alpha": [[[0, 0]] * 2] * 2})
    argv = ["evolve", state, "--gen", gen, "--steps", steps, "--method", method]
    assert main(argv) == 2
    assert "--steps" in capsys.readouterr().err


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
