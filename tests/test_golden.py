"""Golden outputs of the command-line interface on the demo project.

Each case runs one subcommand in a fresh directory holding the demo
project and compares its standard output, exit code and exported files
with the copies under ``tests/golden/<case>``. Text must match byte for
byte; a trajectory CSV must match in its header and, numerically, within
1e-12 times the largest magnitude in the table (at least 1).

Running this file as a script, ``PYTHONPATH=src python
tests/test_golden.py``, rewrites the golden files from the current code.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import numpy as np
import pytest

from simcompose.cli import main
from simcompose.demo import demo_project

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "check": ["check", "project.json"],
    "compose": ["compose", "project.json"],
    "compose_published": ["compose", "project.json", "--eta", "0.4,0.6,0.5,0.6", "--eps", "4"],
    "bounds": ["bounds", "project.json"],
    "simulate": ["simulate", "project.json", "--out", "out/trajectory.csv", "--tfinal", "0.1"],
    "abstract": ["abstract", "project.json", "--out", "out"],
    "reproduce_example": ["reproduce-example"],
}

CSV_RTOL = 1e-12


def run_case(argv, workdir) -> tuple[str, int, dict[str, bytes]]:
    """Run one subcommand inside ``workdir``; returns stdout, exit code and
    the files written under ``workdir/out``."""
    with open(os.path.join(workdir, "project.json"), "w", encoding="utf-8") as fh:
        json.dump(demo_project(), fh)
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    out_dir = os.path.join(workdir, "out")
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return stdout.getvalue(), code, files


def _read_golden(case):
    base = os.path.join(GOLDEN, case)
    with open(os.path.join(base, "stdout.txt"), encoding="utf-8") as fh:
        stdout = fh.read()
    with open(os.path.join(base, "exit_code.txt"), encoding="ascii") as fh:
        code = int(fh.read())
    files = {}
    out_dir = os.path.join(base, "out")
    if os.path.isdir(out_dir):
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return stdout, code, files


def _csv_table(data: bytes):
    header, _, body = data.decode("ascii").partition("\n")
    return header, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    stdout, code, files = run_case(CASES[case], str(tmp_path))
    golden_stdout, golden_code, golden_files = _read_golden(case)
    assert code == golden_code
    assert stdout == golden_stdout
    assert sorted(files) == sorted(golden_files)
    for name, expected in golden_files.items():
        if case == "simulate" and name.endswith(".csv"):
            header, table = _csv_table(files[name])
            golden_header, golden_table = _csv_table(expected)
            assert header == golden_header
            assert table.shape == golden_table.shape
            scale = max(1.0, float(np.max(np.abs(golden_table))))
            assert np.max(np.abs(table - golden_table)) <= CSV_RTOL * scale
        else:
            assert files[name] == expected, name


def _rewrite_golden() -> None:
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            stdout, code, files = run_case(argv, workdir)
        base = os.path.join(GOLDEN, case)
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(base)
        with open(os.path.join(base, "stdout.txt"), "w", encoding="utf-8") as fh:
            fh.write(stdout)
        with open(os.path.join(base, "exit_code.txt"), "w", encoding="ascii") as fh:
            fh.write(f"{code}\n")
        if files:
            os.makedirs(os.path.join(base, "out"))
            for name, data in files.items():
                with open(os.path.join(base, "out", name), "wb") as fh:
                    fh.write(data)


if __name__ == "__main__":
    _rewrite_golden()
