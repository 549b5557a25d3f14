"""Print every end-to-end metric, by name and with its unit, for every workload.

    python3 perfbench/report.py [--seconds S] [--seed N] [--trace]

Runs run.py once per workload. error_rate (failed jobs / attempted jobs)
and the unscaled wall times are printed beside the metrics; ``--trace``
prints the per-layer metrics of a traced run instead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from inputs import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        *_, meta_line, result_line = proc.stdout.splitlines()
        meta, result = json.loads(meta_line)["meta"], json.loads(result_line)
        print(f"{workload}  (seed {args.seed}, {meta['samples']})")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        print(f"  {'error_rate':32s} {result['failed'] / result['attempted']:14.6g} "
              f"failed/attempted ({result['failed']}/{result['attempted']})")
        if "wall" in meta:
            print(f"  (unscaled wall times: {meta['wall']})")
        for error in meta["errors"]:
            print(f"    error: {error}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
