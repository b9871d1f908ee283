"""The ``check`` command on injections and subsystems that fail."""

import json

from simcompose.cli import main
from simcompose.demo import demo_project


def run_check(tmp_path, capsys, doc):
    path = tmp_path / "project.json"
    path.write_text(json.dumps(doc))
    code = main(["check", str(path)])
    return code, capsys.readouterr().out


def test_check_reports_unstabilizable_subsystem_once(tmp_path, capsys):
    doc = {
        "subsystems": [
            {"name": "solo", "A": [[1.0]], "B": [[0.0]], "C": [[1.0]]}
        ]
    }
    code, out = run_check(tmp_path, capsys, doc)
    assert code == 1
    assert "solo: stabilizable NO (eigenvalue 1+0j uncontrollable)" in out
    assert out.count("stabilizable") == 1
    assert "check: FAIL" in out


def test_check_reports_rank_deficient_injection(tmp_path, capsys):
    doc = demo_project()
    doc["subsystems"][1]["abstraction"]["P"] = [[1.0, 1.0], [1.0, 1.0]]
    code, out = run_check(tmp_path, capsys, doc)
    assert code == 1
    assert "s2: injection rejected: P must have full column rank" in out
    assert "s1: stabilizable yes" in out
    assert "check: FAIL" in out
