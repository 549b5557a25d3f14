"""Seeded workload inputs, drawn with numpy alone.

Nothing here imports countfit: the program under test receives these
inputs but cannot change how they are made, so two commits given the same
seed receive byte-identical inputs (compare ``inputs_sha256``).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

FAMILIES = ("nb", "zig", "hg", "geom", "poisson")
WORKLOADS = ("cli-cold", "bulk-ingest", "wide-tail", "recovery-sweep")

# Published (n, mean, pi, p) of the Seo and Crofton ZIG samples, as listed
# in scripts/table_consistency.py.
PAPER_SAMPLES = (
    (540, 1.0167, 0.3653, 0.3843),
    (136, 2.8235, 0.2687, 0.2057),
    (32, 2.3125, 0.2011, 0.2568),
    (47, 2.5106, 0.1819, 0.2458),
    (39, 6.6410, 0.0971, 0.1197),
    (59, 4.6102, 0.1581, 0.1544),
    (549, 2.2732, -0.0256, 0.3109),
    (509, 1.4165, -0.1304, 0.4438),
    (633, 0.6003, 0.4875, 0.4605),
    (486, 1.3189, -0.3313, 0.5023),
    (276, 0.8913, -0.1020, 0.5528),
    (191, 0.2670, 0.2195, 0.7451),
)

# cli-cold `simulate` jobs: the CSV-writing path beside the compare path.
SIMULATE_SPECS = (
    "zig:pi=0.3653,p=0.3843",
    "nb:m=4.6102,k=0.6193",
    "zig:pi=-0.0256,p=0.3109",
)
SIMULATE_N = 100_000
# One simulate job after every COMPARES_PER_SIMULATE compare jobs.
COMPARES_PER_SIMULATE = 3

BULK_N = 1_000_000
# The paper's narrow-tail samples (26-86 distinct counts at 1e6 draws).
BULK_MODELS = (("nb", 4.6102, 0.6193), ("zig", 0.3653, 0.3843), ("zig", -0.0256, 0.3109))

WIDE_N = 100_000
# 185-1,500 distinct counts: per-cell loops dominate, ingest does not.
WIDE_MODELS = (("nb", 50.0, 0.4), ("nb", 200.0, 0.8), ("geom", 20.0), ("zig", 0.3, 0.02))
# Independent draws per model in one job. The longest tails (and so the
# GOF cell counts) differ by seed; two draws halve that run-to-run spread.
WIDE_DRAWS = 2

RECOVERY_N = 1000
RECOVERY_REPS = 50
# (family, first parameter, second parameter): NB as (m, k), ZIG as (pi, p).
# The first four are the scripts/run_recovery.py scenarios; the last is a
# near-Poisson NB whose replicates are sometimes under-dispersed, driving
# the bracket expansion and failure paths of the NB solver.
RECOVERY_SCENARIOS = (
    ("nb", 2.8235, 0.4240),
    ("nb", 4.6102, 0.6193),
    ("zig", 0.3653, 0.3843),
    ("zig", -0.0256, 0.3109),
    ("nb", 3.39, 50.0),
)

_TAIL_MASS = 1e-12


def zig_draws(rng: np.random.Generator, n: int, pi: float, p: float) -> np.ndarray:
    """ZIG counts by inverse CDF, valid for inflation (pi > 0) and deflation."""
    ys = np.arange(1, 1 + max(64, int(60.0 / -math.log1p(-p))))
    pmf = np.concatenate(([pi + (1.0 - pi) * p], (1.0 - pi) * p * (1.0 - p) ** ys))
    cum = np.cumsum(pmf)
    if cum[-1] < 1.0 - _TAIL_MASS:
        raise ValueError("ZIG inverse-CDF table too short")
    return np.minimum(np.searchsorted(cum, rng.random(n)), len(cum) - 1).astype(np.int64)


def nb_draws(rng: np.random.Generator, n: int, m: float, k: float) -> np.ndarray:
    return rng.negative_binomial(k, k / (m + k), n).astype(np.int64)


def geom_draws(rng: np.random.Generator, n: int, m: float) -> np.ndarray:
    """Number-of-failures geometric with mean m."""
    return (rng.geometric(1.0 / (1.0 + m), n) - 1).astype(np.int64)


def draws(rng: np.random.Generator, n: int, spec: tuple) -> np.ndarray:
    family, *params = spec
    if family == "nb":
        return nb_draws(rng, n, *params)
    if family == "zig":
        return zig_draws(rng, n, *params)
    return geom_draws(rng, n, *params)


def frequency_map(values: np.ndarray) -> dict[int, int]:
    bc = np.bincount(values)
    nz = np.flatnonzero(bc)
    return dict(zip(nz.tolist(), bc[nz].tolist()))


def frequency_csv(values: np.ndarray) -> str:
    fm = frequency_map(values)
    return "count,frequency\n" + "".join(f"{y},{f}\n" for y, f in fm.items())


def build(workload: str, seed: int, tmpdir: Path | None = None) -> list:
    """The workload's input pool; jobs cycle through it in order.

    cli-cold items are ("compare", csv_path, csv_text) or
    ("simulate", spec, n, sim_seed); CSVs are written under ``tmpdir``.
    bulk-ingest items are int64 arrays. The one wide-tail item is a list of
    count->frequency mappings, the one recovery-sweep item a list of
    (scenario, n, reps, seed) with a scenario from RECOVERY_SCENARIOS.
    """
    rng = np.random.default_rng(seed)
    if workload == "cli-cold":
        pool = []
        for i, (n, _mean, pi, p) in enumerate(PAPER_SAMPLES):
            text = frequency_csv(zig_draws(rng, n, pi, p))
            path = tmpdir / f"sample{i:02d}.csv"
            path.write_text(text, encoding="utf-8")
            pool.append(("compare", str(path), text))
            if (i + 1) % COMPARES_PER_SIMULATE == 0:
                j = (i + 1) // COMPARES_PER_SIMULATE - 1
                spec = SIMULATE_SPECS[j % len(SIMULATE_SPECS)]
                pool.append(("simulate", spec, SIMULATE_N, int(rng.integers(2**31))))
        return pool
    if workload == "bulk-ingest":
        return [draws(rng, BULK_N, spec) for spec in BULK_MODELS]
    if workload == "wide-tail":
        # one job covers every mapping, so the median job is not split
        # between two mappings of different cost
        return [[frequency_map(draws(rng, WIDE_N, spec))
                 for _ in range(WIDE_DRAWS) for spec in WIDE_MODELS]]
    if workload == "recovery-sweep":
        # one job runs every scenario, for the same reason as wide-tail
        return [[(sc, RECOVERY_N, RECOVERY_REPS, seed) for sc in RECOVERY_SCENARIOS]]
    raise ValueError(f"unknown workload {workload!r}")


@contextmanager
def scratch_dir(root: Path):
    """A fresh directory under ``root/.perfbench_tmp``, removed on exit."""
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:  # another run still uses it
            pass


def sha256(workload: str, pool: list) -> str:
    """Digest of the input pool, independent of temporary file paths."""
    h = hashlib.sha256()
    for item in pool:
        if workload == "cli-cold":
            h.update(json.dumps(item[2] if item[0] == "compare" else item[1:]).encode())
        elif workload == "bulk-ingest":
            h.update(np.ascontiguousarray(item, dtype="<i8").tobytes())
        elif workload == "wide-tail":
            h.update(json.dumps([sorted(m.items()) for m in item]).encode())
        else:
            h.update(json.dumps(item).encode())
    return h.hexdigest()
