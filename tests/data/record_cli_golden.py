"""Record cli_golden.json: the exit code and output bytes of every CLI command
on a fixed corpus, from the countfit found on PYTHONPATH.

    mkdir -p /tmp/cf-old && git archive <parent> src | tar -x -C /tmp/cf-old
    PYTHONPATH=/tmp/cf-old/src python tests/data/record_cli_golden.py

Re-run it only at the parent commit of a change, never at the change
itself: `tests/test_cli_golden.py` holds the change to the bytes the code
before it wrote, and data recorded from the code under test would pass
whatever that code prints. The checked-in file was recorded this way from
commit 36d0de3; rerunning it there reproduces the file byte for byte.

The script writes the corpus tables into tests/data/cli_golden/ and runs
each command in-process with tests/data as the working directory, so
messages name the tables by relative paths. For each command it keeps the
exit code and the sha256 of stdout, of stderr and of the ``--out`` file
(null where the command has no ``--out`` or wrote none); "{out}" in an
argv stands for a fresh temporary path.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from countfit.cli import main

DATA = Path(__file__).resolve().parent
TABLES = DATA / "cli_golden"
FAMILIES = ["nb", "zig", "hg", "geom", "poisson"]

EXTRA_TABLES = {
    "zero_free": "count,frequency\n1,9\n2,6\n3,4\n4,3\n6,2\n9,1\n",
    "sparse_huge": "count,frequency\n0,5\n1000000000000,1\n",
    "int64_edge": "count,frequency\n0,3\n9223372036854775807,9223372036854775807\n",
    "all_zero": "count,frequency\n0,5\n",
}

SPECS = [
    "poisson:m=2.5",
    "geom:p=0.3",
    "nb:m=2.8235,k=0.424",
    "nb:p=0.4,k=1.5",
    "zig:pi=0.3,p=0.4",
    "zig:pi=-0.0256,p=0.3109",
    "hg:pi=0.4,p=0.5",
]
# past the table size rule, recovery fits replicate by replicate
FALLBACK_SPECS = ["nb:m=1e9,k=0.5", "zig:pi=0.2,p=1e-7"]
REFUSED_SPECS = ["negbin:p=0.5,k=1", "zig:pi=0.3,p=0.4,pi=0.5", "hg:pi=0.3"]


def write_tables() -> list[str]:
    """The corpus tables as paths relative to tests/data."""
    TABLES.mkdir(exist_ok=True)
    corpus = json.loads((DATA / "reference_corpus.json").read_text())
    texts = {
        ref["name"]: "count,frequency\n" + "".join(f"{y},{f}\n" for y, f in ref["freq"])
        for ref in corpus["samples"]
    }
    texts.update(EXTRA_TABLES)
    paths = []
    for name, text in texts.items():
        (TABLES / f"{name}.csv").write_text(text)
        paths.append(f"cli_golden/{name}.csv")
    return paths + ["figure_gapped.csv"]


def commands(tables: list[str]) -> list[list[str]]:
    runs = []
    for csv in tables:
        for family in FAMILIES:
            runs.append(["fit", csv, "--model", family])
            runs.append(["fit", csv, "--model", family, "--pool-threshold", "5", "--out", "{out}"])
        runs.append(["compare", csv, "--models", *FAMILIES])
        runs.append(["compare", csv, "--models", *FAMILIES[::-1], "--out", "{out}", "--quiet"])
        runs.append(["figure", csv, "--models", *FAMILIES])
    for spec in SPECS + FALLBACK_SPECS:
        runs.append(["simulate", "--model", spec, "--n", "200", "--seed", "3"])
    for spec in SPECS:
        runs.append(["recover", "--model", spec, "--n", "150", "--reps", "12", "--seed", "5"])
    for spec in FALLBACK_SPECS:
        runs.append(["recover", "--model", spec, "--n", "20", "--reps", "4", "--out", "{out}"])
    for spec in REFUSED_SPECS:
        runs.append(["simulate", "--model", spec, "--n", "10"])
        runs.append(["recover", "--model", spec, "--n", "10", "--out", "{out}"])
    return runs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list[str], workdir: str) -> dict:
    """Exit code and output digests of one command, run in tests/data."""
    out = os.path.join(workdir, "out")
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([out if a == "{out}" else a for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    written = Path(out).read_bytes() if os.path.exists(out) else None
    return {
        "argv": argv,
        "exit": code,
        "stdout": _sha256(stdout.getvalue().encode()),
        "stderr": _sha256(stderr.getvalue().encode()),
        "out": None if written is None else _sha256(written),
    }


def record() -> None:
    os.chdir(DATA)
    runs = commands(write_tables())
    with tempfile.TemporaryDirectory() as workdir:
        cases = [run(argv, workdir) for argv in runs]
    text = json.dumps({"cases": cases}, separators=(",", ":"))
    (DATA / "cli_golden.json").write_text(text.replace('{"argv"', '\n{"argv"') + "\n")


if __name__ == "__main__":
    record()
