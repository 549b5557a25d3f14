"""CLI output byte for byte against digests recorded before a refactor.

tests/data/cli_golden.json holds, for every command of a fixed corpus
(fit, compare, figure, simulate, recover and refused model specs over
thirteen frequency tables), the exit code and the sha256 of stdout, stderr
and the ``--out`` file, as `tests/data/record_cli_golden.py` recorded them
at commit 36d0de3. A pure refactor of the library must leave every digest
unchanged; a change meant to alter output re-records the file at its
parent commit, never at the change itself.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from countfit.cli import main

DATA = Path(__file__).resolve().parent / "data"
CASES = json.loads((DATA / "cli_golden.json").read_text())["cases"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _case_id(case: dict) -> str:
    return " ".join(a.removeprefix("cli_golden/") for a in case["argv"])


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_cli_output_matches_recorded_digests(case, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    out = tmp_path / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([str(out) if a == "{out}" else a for a in case["argv"]])
        except SystemExit as exc:
            code = exc.code
    got = {
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
        "out": _sha256(out.read_bytes()) if out.exists() else None,
    }
    assert got == {k: case[k] for k in got}, stdout.getvalue() + stderr.getvalue()
