"""Smoke runs of the experiment scripts with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,args",
    [
        ("audit_propositions.py", ["--trials", "20"]),
        ("partition_leak.py", ["--points", "3"]),
        ("scenario_sweep.py", ["--points", "3"]),
    ],
)
def test_script_runs(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize(
    "script,option,value",
    [
        pytest.param("audit_propositions.py", "--nmax", "1", id="--nmax-1"),
        pytest.param("audit_propositions.py", "--nmax", "2.5", id="--nmax-2.5"),
        pytest.param("audit_propositions.py", "--trials", "-2", id="--trials--2"),
        pytest.param("audit_propositions.py", "--seed", "-1", id="--seed--1"),
        ("scenario_sweep.py", "--points", "-1"),
        ("scenario_sweep.py", "--points", "0"),
        ("partition_leak.py", "--points", "-1"),
        ("partition_leak.py", "--seed", "-1"),
    ],
)
def test_audit_script_rejects_what_check_props_rejects(script, option, value):
    # every script bounds its integers as the CLI does: one usage line, exit 2
    proc = run_script(script, [option, value])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    error_lines = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(error_lines) == 1 and option in error_lines[0], proc.stderr


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
