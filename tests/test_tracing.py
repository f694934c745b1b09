"""The benchmark's span tracer still finds every callable it wraps.

``perfbench/tracing.py`` looks each traced name up with ``getattr``, so a
renamed or deleted function breaks the traced benchmark run; this test
makes that a test failure.
"""

import sys
from pathlib import Path

import qmix.cli

ROOT = Path(__file__).resolve().parent.parent


def qmix_bindings() -> dict:
    """Every attribute of every qmix module and of every class they hold."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "qmix" or key.startswith("qmix."):
            for attr, value in vars(mod).items():
                out[(key, attr)] = value
                if isinstance(value, type):
                    out.update({(value, name): v for name, v in vars(value).items()})
    return out


def test_tracer_wraps_every_traced_name_and_restores_it(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracing import Tracer

    before = qmix_bindings()
    tracer = Tracer()
    try:
        tracer.install()
        assert qmix.cli.main(["check-props", "--trials", "3"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()

    recorded = {tracer.names[i] for i in tracer.span_name}
    assert {"cli.main", "scenario.check_propositions"} <= recorded
    after = qmix_bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
