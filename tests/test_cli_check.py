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


def test_check_rejects_the_injected_certificate_bounds_rejects(tmp_path, capsys):
    # lambda 5 violates the decay inequality; 1e308 overflows 2 lam M
    for lam, reason in ((5.0, "output slack -8.561e-03, "), (1e308, "not finite")):
        doc = demo_project()
        doc["subsystems"][0]["abstraction"]["certificate"]["lambda"] = lam
        code, out = run_check(tmp_path, capsys, doc)
        assert code == 1
        lines = [line for line in out.splitlines() if "certificate rejected" in line]
        assert len(lines) == 1
        assert lines[0].startswith("s1: certificate rejected: ") and reason in lines[0]
        assert out.endswith("check: FAIL\n")
        assert main(["bounds", str(tmp_path / "project.json")]) == 3
        assert capsys.readouterr().err.startswith("error: certificate rejected for s1: ")
