"""The benchmark's recovery-sweep oracles, run on a few replicates per scenario.

These call perfbench's own input builder, job functions and numpy/scipy
checks unchanged, so a recovery report the benchmark would count as a wrong
output fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

REPS = 8


@pytest.mark.parametrize("seed", [0, 41])
def test_recovery_sweep_passes_the_benchmark_oracles(seed, tmp_path):
    item = [(sc, inputs.RECOVERY_N, REPS, seed) for sc in inputs.RECOVERY_SCENARIOS]
    jobs = worker.Jobs("recovery-sweep", [item], None)
    text = worker.canonical("recovery-sweep", jobs.run(0))
    run.check_item("recovery-sweep", item, text, tmp_path)
    # the traced job rebuilds each report from per-replicate scalar calls
    traced = worker.canonical("recovery-sweep", jobs.traced(0, worker.Tracer()))
    assert worker.close(json.loads(traced), json.loads(text))
