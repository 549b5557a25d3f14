"""The library runs without scipy: neither importing it nor any CLI command loads it.

Nor does importing it, `compare`, `fit` or `figure` load numpy.random; only
`simulate` and `recover`, which draw, do.

Tests and the benchmark oracles still use scipy.stats, and are independent
of the code under test only because the library never calls it.
"""

import os
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import sys

import countfit
from countfit.cli import main

assert "scipy" not in sys.modules, "import countfit"
# numpy.random (about 17 ms to load) is imported only where a command draws
assert "numpy.random" not in sys.modules, "import countfit"
gapped, huge, out = sys.argv[1:]
families = ["nb", "zig", "hg", "geom", "poisson"]
runs = [
    ["compare", gapped, "--models", *families],
    ["fit", gapped, "--model", "nb"],
    ["fit", huge, "--model", "nb"],
    ["figure", gapped, "--models", *families],
    ["simulate", "--model", "nb:m=4.6,k=0.6", "--n", "500"],
    ["recover", "--model", "nb:m=3.4,k=50", "--n", "300", "--reps", "3"],
    ["recover", "--model", "hg:pi=0.4,p=0.2", "--n", "300", "--reps", "3"],
]
for argv in runs:
    code = main([*argv, "--out", out, "--quiet"])
    assert code == 0, (argv, code)
    assert "scipy" not in sys.modules, argv
    if argv[0] in ("compare", "fit", "figure"):
        assert "numpy.random" not in sys.modules, argv
print("ok")
"""


def test_import_and_every_command_leave_scipy_unloaded(tmp_path):
    # the second CSV sends the NB fit down the sparse (digamma) score path
    huge = tmp_path / "huge.csv"
    huge.write_text("count,frequency\n0,5\n1000000000000,1\n1000000000007,2\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(DATA / "figure_gapped.csv"), str(huge),
         str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"
