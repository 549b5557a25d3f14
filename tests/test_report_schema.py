"""Every JSON report the CLI writes validates against docs/report_schema.json."""

import json
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

from countfit.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text()
)
VALIDATOR = Draft202012Validator(SCHEMA)
FAMILIES = ["nb", "zig", "hg", "geom", "poisson"]

CSVS = {
    "zig": "count,frequency\n0,50\n1,25\n2,12\n3,7\n4,3\n5,2\n6,1\n",
    "even": "count,frequency\n0,50\n1,50\n",  # under-dispersed: NB fails
    "zeros": "count,frequency\n0,10\n",  # NB, ZIG and HG fail
    "huge": "count,frequency\n0,5\n1000000000000,1\n",  # GOF skipped
}


def test_schema_is_valid():
    Draft202012Validator.check_schema(SCHEMA)


def _report(tmp_path, argv, code) -> dict:
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out), "--quiet"]) == code
    return json.loads(out.read_text())


@pytest.mark.parametrize(
    "csv, argv, code",
    [
        ("zig", ["fit", "--model", "zig"], 0),
        ("zig", ["fit", "--model", "nb"], 0),
        ("even", ["fit", "--model", "nb"], 4),
        ("huge", ["fit", "--model", "geom"], 0),
        ("zig", ["compare", "--models", *FAMILIES], 0),
        ("even", ["compare", "--models", *FAMILIES], 0),
        ("huge", ["compare", "--models", *FAMILIES], 0),
        ("zeros", ["compare", "--models", "nb", "zig", "hg"], 4),
    ],
)
def test_fit_and_compare_reports_validate(csv, argv, code, tmp_path):
    path = tmp_path / f"{csv}.csv"
    path.write_text(CSVS[csv])
    doc = _report(tmp_path, [argv[0], str(path), *argv[1:]], code)
    VALIDATOR.validate(doc)
    del doc["input_sha256"]
    assert not VALIDATOR.is_valid(doc)


@pytest.mark.parametrize(
    "spec", ["nb:m=2.8235,k=0.424", "nb:m=3.39,k=50", "zig:pi=-0.0256,p=0.3109", "poisson:m=2"]
)
def test_recover_reports_validate(spec, tmp_path):
    doc = _report(tmp_path, ["recover", "--model", spec, "--n", "40", "--reps", "4"], 0)
    VALIDATOR.validate(doc)
    del doc["solver_failures"]
    assert not VALIDATOR.is_valid(doc)
