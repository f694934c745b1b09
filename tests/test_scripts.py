"""Smoke runs of the experiment scripts with small arguments."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qmix
from qmix.errors import QmixError

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        pytest.param("partition_leak.py", ["--points", "3"], id="partition_leak.py-args1"),
        pytest.param("scenario_sweep.py", ["--points", "3"], id="scenario_sweep.py-args2"),
    ],
)
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "script,option,value",
    [
        ("scenario_sweep.py", "--points", "-1"),
        ("scenario_sweep.py", "--points", "0"),
        ("partition_leak.py", "--points", "-1"),
        ("partition_leak.py", "--seed", "-1"),
        ("partition_leak.py", "--tmax", "nan"),
        ("scenario_sweep.py", "--theta", "nan"),
        ("scenario_sweep.py", "--phi", "inf"),
    ],
)
def test_audit_script_rejects_what_check_props_rejects(script, option, value):
    # every script bounds its numbers as the CLI does: one usage line, exit 2
    proc = run_script(script, [option, value])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    error_lines = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and option in error_lines[0], proc.stderr


def test_leak_script_reports_an_unusable_time_in_one_line():
    # t = 1e300 puts the exponent's phases beyond resolution: exit 1, one line
    proc = run_script("partition_leak.py", ["--tmax", "1e300", "--points", "2"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: exponent spectral radius")
    assert len(proc.stderr.splitlines()) == 1


def test_sweep_script_reports_a_failed_scenario_in_one_line(monkeypatch, capsys):
    def failing(c_plus, c_minus, n_hat):
        raise QmixError("injected")

    monkeypatch.setattr(qmix, "run_scenario", failing)
    monkeypatch.setattr(sys, "argv", ["scenario_sweep.py", "--points", "2"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(ROOT / "scripts" / "scenario_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == "error: injected\n"


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
