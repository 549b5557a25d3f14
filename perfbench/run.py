"""countfit benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; countfit is imported from its
``src/``. With ``--trace 0`` the last stdout line reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics (see README.md). The line
before it is run metadata. Exits 2 without a result if countfit's source
is missing or a run cannot be completed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # plus the workload process itself: five set-up samples
IMPORT_PROBES = 3
TAIL_BEYOND = 10

# Per-layer metrics: span name -> metric. Times are self time per traced
# job, except the two composed wrappers, which report their whole span.
SELF_TIME = {
    "cli.process": "cli.process_s",
    "cli.read_frequency_file": "cli.read_frequency_file_s",
    "cli.main": "cli.main_s",
    "estimate.summarize": "estimate.summarize_s",
    "estimate.mle_nb": "estimate.mle_nb_s",
    "estimate.closed_form": "estimate.closed_form_s",
    "estimate.loglik": "estimate.loglik_s",
    "gof.gof_test": "gof.gof_test_s",
    "gof.expected_counts": "gof.expected_counts_s",
    "sim.sample": "sim.sample_s",
}
INCLUSIVE_TIME = {
    "gof.compare_models": "gof.compare_models_s",
    "sim.recovery_experiment": "sim.recovery_experiment_s",
}
COUNTS = (
    "estimate.summarize_values",
    "estimate.mle_nb_calls",
    "estimate.nb_iterations",
    "estimate.loglik_cells",
    "gof.cells",
    "gof.pooled_bins",
    "gof.skipped",
    "sim.sample_values",
    "sim.estimator_failures",
)


class RunError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def timed(argv: list[str]) -> tuple[float, str]:
    """Wall time of a child process run to completion, and its stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RunError(f"{argv[1:]} exited {proc.returncode}: {proc.stderr[-500:]}")
    return dt, proc.stderr


def start_worker(args, probe: bool) -> tuple[float, dict | None, int]:
    """Runs worker.py; returns (set-up seconds, result, peak RSS in KiB)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)] + (["--probe"] if probe else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        payload = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if ready != b"ready\n" or proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}")
    return setup_s, (None if probe else pickle.loads(payload)), usage.ru_maxrss


# ---------------------------------------------------------------- imports


def import_tree(stderr: str) -> list[dict]:
    """`-X importtime` lines as a tree (children are printed before parents)."""
    stack: list[dict] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = {"name": name.strip(), "self": int(self_us) / 1e6,
                "cum": int(cum_us) / 1e6, "depth": depth, "children": []}
        while stack and stack[-1]["depth"] > depth:
            node["children"].insert(0, stack.pop())
        stack.append(node)
    return stack


def import_split(stderr: str) -> dict[str, float]:
    """Import seconds: countfit in total, numpy, scipy less numpy, countfit's own modules."""
    totals = {"import": 0.0, "numpy": 0.0, "scipy": 0.0, "self": 0.0}

    def walk(node: dict, in_scipy: bool) -> None:
        name = node["name"]
        top = name.split(".")[0]
        if name == "countfit":
            totals["import"] += node["cum"]
        if top == "countfit":
            totals["self"] += node["self"]
        if name == "numpy":
            totals["numpy"] += node["cum"]
            if in_scipy:
                totals["scipy"] -= node["cum"]
            return
        if top == "scipy" and not in_scipy:
            totals["scipy"] += node["cum"]
        for child in node["children"]:
            walk(child, in_scipy or top == "scipy")

    for root in import_tree(stderr):
        walk(root, False)
    return totals


def import_metrics() -> dict[str, float]:
    floor = [timed([sys.executable, "-c", "pass"])[0] for _ in range(IMPORT_PROBES)]
    splits = [
        import_split(timed([sys.executable, "-X", "importtime", "-c", "import countfit"])[1])
        for _ in range(IMPORT_PROBES)
    ]
    med = {k: statistics.median(s[k] for s in splits) for k in splits[0]}
    return {
        "cli.interpreter_s": statistics.median(floor),
        "cli.import_s": med["import"],
        "cli.import_numpy_s": med["numpy"],
        "cli.import_scipy_s": med["scipy"],
        "cli.import_countfit_self_s": med["self"],
    }


# ---------------------------------------------------------------- checks


def recovery_replicates(worker, item) -> tuple[dict, list]:
    """Per-replicate fits of a recovery input, from countfit's public calls."""
    import numpy as np

    import countfit

    scenario, n, reps, seed = item
    model = worker.model_from_scenario(scenario)
    out = []
    for child in np.random.SeedSequence(seed).spawn(reps):
        values = countfit.sample(model, n, child)
        s = countfit.summarize(values.tolist())
        fits = {}
        for meth, fit_fn in worker.recovery_methods(scenario[0]).items():
            try:
                fit = fit_fn(s)
            except countfit.CountFitError:
                fits[meth] = None
                continue
            fits[meth] = {"family": scenario[0], "params": worker.model_params(fit.model),
                          "loglik": fit.loglik, "aic": fit.aic, "n_params": fit.n_params,
                          "gof": None}
        out.append((values, {"n": s.n, "n0": s.n0, "mean": s.mean, "var": s.var}, fits))
    return worker.model_params(model), out


def check_item(workload: str, item, text: str, tmpdir: Path) -> None:
    """Checks the output of one input; raises OracleError (or any error) if wrong."""
    import oracles
    import worker

    if workload == "bulk-ingest":
        oracles.check_compare(json.loads(text), *oracles.histogram(item))
    elif workload == "wide-tail":
        for doc, freq in zip(json.loads(text), item, strict=True):
            oracles.check_compare(doc, *oracles.histogram_from_map(freq))
    elif workload == "recovery-sweep":
        for doc, experiment in zip(json.loads(text), item, strict=True):
            truth, reps = recovery_replicates(worker, experiment)
            for values, sample, fits in reps:
                oracles.check_replicate(experiment[0][0], sample, fits, values)
            oracles.check_recovery(doc, truth, [fits for _, _, fits in reps])
    else:
        from countfit import cli

        if item[0] == "compare":
            doc = json.loads(text)
            oracles.check_compare(doc, *oracles.parse_csv(item[2]))
            if doc["input_sha256"] != hashlib.sha256(item[2].encode()).hexdigest():
                raise oracles.OracleError("report input_sha256 is not the CSV's digest")
        else:
            oracles.check_simulate_csv(text, item[2])
        out = tmpdir / "inproc.out"
        if cli.main(worker.cli_argv(item, out)) != 0:
            raise oracles.OracleError("in-process main failed")
        if out.read_text(encoding="utf-8") != text:
            raise oracles.OracleError("child process report differs from in-process main")


def verify(args, result: dict) -> dict[int, str]:
    """Rebuilds the inputs, checks each distinct output; returns bad items."""
    import inputs

    with inputs.scratch_dir(ROOT) as tmpdir:
        pool = inputs.build(args.workload, args.seed, tmpdir)
        if inputs.sha256(args.workload, pool) != result["inputs_sha256"]:
            raise RunError("workload process received different inputs")
        bad = {}
        for idx, text in sorted(result["first"].items()):
            try:
                check_item(args.workload, pool[idx], text, tmpdir)
            except Exception as exc:  # any failed check marks the input's jobs failed
                bad[idx] = f"{type(exc).__name__}: {exc}"
        return bad


# ---------------------------------------------------------------- metrics


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples above it: (value, percentile, samples above)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def layer_metrics(result: dict, untraced: list[float], traced: list[float]) -> dict:
    spans = result["spans"]
    children = [0.0] * len(spans)
    for name, parent, _job, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    total: dict[str, float] = {}
    for i, (name, _parent, _job, start, end) in enumerate(spans):
        if name in SELF_TIME:
            key, dt = SELF_TIME[name], end - start - children[i]
        elif name in INCLUSIVE_TIME:
            key, dt = INCLUSIVE_TIME[name], end - start
        else:
            continue
        total[key] = total.get(key, 0.0) + dt
    jobs = len(traced)
    counts = result["counts"]
    metrics = {key: total.get(key, 0.0) / jobs for key in (*SELF_TIME.values(), *INCLUSIVE_TIME.values())}
    metrics.update({key: counts.get(key, 0) / jobs for key in COUNTS})
    nb_fits = counts.get("estimate.nb_fits", 0)
    metrics["estimate.nb_single_root_ratio"] = (
        counts.get("estimate.nb_single_root_fits", 0) / nb_fits if nb_fits else 0.0
    )
    metrics["trace.job_s_p50"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def metadata(args, result: dict, extra: dict) -> dict:
    def version(mod: str) -> str:
        return __import__(mod).__version__

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "countfit").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "nproc": os.cpu_count(),
        "cpu": cpu, "git_commit": commit, "source_sha256": source.hexdigest(),
        "inputs_sha256": result["inputs_sha256"],
        "wait_s": 0.0,
        "wait_note": "closed loop, one client, no queue in any layer: time waited is zero",
        **extra,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inputs
    import speed

    if args.workload not in inputs.WORKLOADS:
        raise RunError(f"unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}")
    if not (SRC / "countfit" / "__init__.py").is_file():
        raise RunError(f"countfit source not found under {SRC}")
    # compile countfit's bytecode once, so no timed start-up pays for it
    timed([sys.executable, "-c", "import countfit"])

    extra: dict = {}
    imports = import_metrics() if args.trace else {}
    setup = []
    for probe in [True] * (0 if args.trace else SETUP_PROBES) + [False]:
        setup_s, result, maxrss_kb = start_worker(args, probe)
        setup.append(setup_s)

    bad = verify(args, result)
    records = result["records"]
    errors = [(idx, err or bad[idx]) for idx, _dt, err, _tr, _ref in records if err or idx in bad]
    attempted, failed = len(records), len(errors)
    extra["error_rate"] = failed / attempted
    extra["errors"] = sorted({e for _, e in errors})[:10]

    if args.trace:
        untraced = [dt for _idx, dt, _err, tr, _ref in records if not tr]
        traced = [dt for _idx, dt, _err, tr, _ref in records if tr]
        metrics = {**imports, **layer_metrics(result, untraced, traced)}
        extra["reference_s_p50"] = statistics.median(ref for *_, ref in records)
        extra["samples"] = {"untraced_jobs": len(untraced), "traced_jobs": len(traced),
                            "import_probes": IMPORT_PROBES, "spans": len(result["spans"])}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "fields": ["name", "parent", "job", "start_s", "end_s"],
            "spans": result["spans"], "counts": result["counts"]}))
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        raw = [dt for _idx, dt, _err, _tr, _ref in records]
        refs = [ref for *_, ref in records]
        # each job at the speed measured right after it (see speed.py)
        times = [speed.scaled(dt, ref) for dt, ref in zip(raw, refs)]
        tail_s, pct, beyond = tail(times)
        rss_kb = result["child_maxrss_kb"] if args.workload == "cli-cold" else maxrss_kb
        metrics = {
            "setup_s": statistics.median(setup),
            "job_s_p50": statistics.median(times),
            "job_s_tail": tail_s,
            "jobs_per_s": len(times) / sum(times),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        extra["wall"] = {
            "job_s_p50": statistics.median(raw),
            "job_s_tail": tail(raw)[0],
            "jobs_per_s": len(raw) / sum(raw),
            "reference_s_p50": statistics.median(refs),
        }
        extra["samples"] = {"jobs": len(raw), "setup": len(setup),
                            "tail_percentile": pct, "tail_samples_beyond": beyond,
                            "peak_rss_of": "job child processes" if args.workload == "cli-cold"
                            else "workload process"}

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if units.keys() != metrics.keys():
        raise RunError(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    print(json.dumps({"meta": metadata(args, result, extra)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
