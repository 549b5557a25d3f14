"""The workload process: one client, one job at a time (a closed loop).

    python perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

run.py starts this with ``src/`` on PYTHONPATH and times it from start
until it writes ``ready`` (set-up: countfit imported, inputs built). With
``--probe`` it exits there; otherwise it runs jobs for ``--seconds`` and
writes a pickled result dict after the ``ready`` line. With ``--trace 1``
the first 40% of the time runs untraced jobs (the base for the tracing
overhead) and the rest runs traced jobs. These call the public functions
that ``compare_models`` and ``recovery_experiment`` compose one by one,
inside spans recorded here, never inside countfit.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import countfit
import inputs
import speed
from countfit import Geometric, NegBinomial, Poisson, ZeroInflated
from countfit.gof import ModelEntry

ROOT = Path(__file__).resolve().parent.parent
UNTRACED_SHARE = 0.4
THRESHOLD = 1.0
FITTERS = {
    "nb": countfit.mle_nb,
    "zig": countfit.mle_zig,
    "hg": countfit.mle_hg,
    "geom": countfit.mle_geometric,
    "poisson": countfit.mle_poisson,
}


class Tracer:
    """In-memory spans [name, parent index, job index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.job = -1
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, parent, self.job, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def model_params(model) -> dict:
    if isinstance(model, Poisson):
        return {"m": model.mean}
    if isinstance(model, Geometric):
        return {"p": model.p}
    if isinstance(model, NegBinomial):
        return {"p": model.p, "k": model.k}
    return {"pi": model.pi, "p": model.base.p}


def compare_doc(s, report) -> dict:
    """A sample and its ComparisonReport in the shape of the CLI's JSON report."""
    models = []
    for e in report.entries:
        if e.fit is None:
            models.append({"family": e.family, "error": e.error})
            continue
        fit, gof = e.fit, e.gof
        models.append({
            "family": e.family,
            "params": model_params(fit.model),
            "loglik": fit.loglik,
            "aic": fit.aic,
            "n_params": fit.n_params,
            "solver": {"iterations": fit.solver.iterations, "notes": list(fit.solver.notes)},
            "gof": None if gof is None else {
                "chi2": gof.chi2,
                "df": gof.df,
                "p_value": gof.p_value,
                "bins": [
                    {"label": b.label, "observed": b.observed, "expected": b.expected}
                    for b in gof.bins
                ],
            },
        })
    return {
        "sample": {"n": s.n, "n0": s.n0, "mean": s.mean, "var": s.var},
        "models": models,
        "best_aic_model": report.best_aic_model,
    }


def recovery_doc(r) -> dict:
    return {
        "true_params": r.true_params,
        "estimates": r.estimates,
        "abs_error": r.abs_error,
        "solver_failures": r.solver_failures,
    }


def model_from_scenario(scenario):
    family, a, b = scenario
    if family == "nb":
        return NegBinomial(p=b / (a + b), k=b)
    return ZeroInflated(pi=a, base=Geometric(p=b))


def recovery_methods(family: str) -> dict:
    """The estimators recovery_experiment fits for a scenario family."""
    if family == "nb":
        return {"mle": countfit.mle_nb, "moments": countfit.mom_nb}
    return {"mle": countfit.mle_zig}


def close(a, b, rel: float = 1e-9) -> bool:
    """Structural equality with a relative tolerance on floats."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            close(a[k], b[k], rel) for k in a
        )
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            close(x, y, rel) for x, y in zip(a, b)
        )
    if isinstance(a, float) and isinstance(b, (int, float)):
        if a == b or (a != a and b != b):
            return True
        return abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def cli_argv(item, out: Path) -> list[str]:
    """countfit CLI arguments for a cli-cold input, writing to ``out``."""
    if item[0] == "compare":
        return ["compare", item[1], "--models", *FITTERS, "--out", str(out), "--quiet"]
    _, spec, n, seed = item
    return ["simulate", "--model", spec, "--n", str(n), "--seed", str(seed),
            "--out", str(out), "--quiet"]


# ---------------------------------------------------------------- jobs


class Jobs:
    """Untraced and traced job functions for one workload."""

    def __init__(self, workload: str, pool: list, tmpdir: Path | None) -> None:
        self.workload = workload
        self.pool = pool
        self.tmpdir = tmpdir
        self.child_maxrss_kb = 0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.first: dict[int, str] = {}  # input index -> first untraced output

    # -- in-process workloads

    def compare(self, data) -> tuple:
        s = countfit.summarize(data)
        return s, countfit.compare_models(s, list(FITTERS), THRESHOLD)

    def run(self, idx: int):
        """One untraced job; returns countfit's results, converted by canonical()."""
        item = self.pool[idx]
        if self.workload == "bulk-ingest":
            return self.compare(item)
        if self.workload == "wide-tail":
            return [self.compare(m) for m in item]
        if self.workload == "recovery-sweep":
            return [
                countfit.recovery_experiment(model_from_scenario(sc), n, reps, seed)
                for sc, n, reps, seed in item
            ]
        return self.cli(item)

    def traced(self, idx: int, tr: Tracer):
        item = self.pool[idx]
        with tr.span("job"):
            if self.workload == "bulk-ingest":
                return self.compare_traced(item, tr)
            if self.workload == "wide-tail":
                return [self.compare_traced(m, tr) for m in item]
            if self.workload == "recovery-sweep":
                return [self.recovery_traced(x, tr) for x in item]
            return self.cli_traced(item, tr)

    def fit_traced(self, fit_fn, s, tr: Tracer):
        nb = fit_fn is countfit.mle_nb
        if nb:
            tr.add("estimate.mle_nb_calls", 1)
        with tr.span("estimate.mle_nb" if nb else "estimate.closed_form"):
            fit = fit_fn(s)
        if nb:
            tr.add("estimate.nb_fits", 1)
            tr.add("estimate.nb_iterations", fit.solver.iterations)
            if not any("roots found" in note for note in fit.solver.notes):
                tr.add("estimate.nb_single_root_fits", 1)
        return fit

    def compare_traced(self, data, tr: Tracer) -> tuple:
        """summarize, then compare_models composed from its public calls."""
        with tr.span("estimate.summarize"):
            s = countfit.summarize(data)
        tr.add("estimate.summarize_values", len(data))
        entries = []
        max_count = max(s.freq)
        with tr.span("gof.compare_models"):
            for family, fit_fn in FITTERS.items():
                try:
                    fit = self.fit_traced(fit_fn, s, tr)
                except countfit.CountFitError as exc:
                    entries.append(ModelEntry(family, None, None, str(exc)))
                    continue
                tr.add("gof.cells", max_count + 2)
                try:
                    with tr.span("gof.gof_test"):
                        gof = countfit.gof_test(fit.model, s, fit.n_params, THRESHOLD)
                    tr.add("gof.pooled_bins", max_count + 2 - len(gof.bins))
                except countfit.CountFitError:
                    gof = None
                    tr.add("gof.skipped", 1)
                with tr.span("estimate.loglik"):
                    ll = countfit.loglik(fit.model, s)
                tr.add("estimate.loglik_cells", len(s.freq))
                if ll != fit.loglik:
                    raise AssertionError(f"{family}: loglik {ll!r} != fit {fit.loglik!r}")
                with tr.span("gof.expected_counts"):
                    countfit.expected_counts(fit.model, s.n, max_count)
                entries.append(ModelEntry(family, fit, gof))
            fitted = [e for e in entries if e.fit is not None]
            best = min(fitted, key=lambda e: e.fit.aic).family if fitted else None
        return s, countfit.ComparisonReport(entries=tuple(entries), best_aic_model=best)

    def recovery_traced(self, item, tr: Tracer):
        """recovery_experiment composed: sample, summarize, fitters per replicate."""
        scenario, n, reps, seed = item
        model = model_from_scenario(scenario)
        truth = model_params(model)
        methods = recovery_methods(scenario[0])
        sums = {m: {k: 0.0 for k in truth} for m in methods}
        errs = {m: {k: 0.0 for k in truth} for m in methods}
        ok = {m: 0 for m in methods}
        failures = 0
        with tr.span("sim.recovery_experiment"):
            for child in np.random.SeedSequence(seed).spawn(reps):
                with tr.span("sim.sample"):
                    counts = countfit.sample(model, n, child)
                tr.add("sim.sample_values", n)
                with tr.span("estimate.summarize"):
                    s = countfit.summarize(counts.tolist())
                tr.add("estimate.summarize_values", n)
                for meth, fit_fn in methods.items():
                    try:
                        fit = self.fit_traced(fit_fn, s, tr)
                    except countfit.CountFitError:
                        failures += 1
                        continue
                    est = model_params(fit.model)
                    ok[meth] += 1
                    for k in truth:
                        sums[meth][k] += est[k]
                        errs[meth][k] += abs(est[k] - truth[k])
        tr.add("sim.estimator_failures", failures)
        return countfit.RecoveryReport(
            true_model=model,
            n=n,
            replicates=reps,
            seed=seed,
            true_params=truth,
            estimates={m: {k: v / ok[m] for k, v in sums[m].items()} for m in methods if ok[m]},
            abs_error={m: {k: v / ok[m] for k, v in errs[m].items()} for m in methods if ok[m]},
            solver_failures=failures,
        )

    # -- cli-cold

    def cli(self, item) -> str:
        """One fresh `python -m countfit` process; returns its report text."""
        out = self.tmpdir / ("out.json" if item[0] == "compare" else "out.csv")
        out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "countfit", *cli_argv(item, out)]
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=self.env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            raise RuntimeError(f"countfit {argv[3]} exited {proc.returncode}")
        return out.read_text(encoding="utf-8")

    def cli_traced(self, item, tr: Tracer) -> str:
        from countfit import cli

        with tr.span("cli.process"):
            text = self.cli(item)
        if item[0] == "compare":
            with tr.span("cli.read_frequency_file"):
                cli.read_frequency_file(item[1])
        inproc = self.tmpdir / ("inproc" + (".json" if item[0] == "compare" else ".csv"))
        with tr.span("cli.main"):
            code = cli.main(cli_argv(item, inproc))
        if code != 0 or inproc.read_text(encoding="utf-8") != text:
            raise AssertionError("in-process main differs from the child process")
        return text

    def expected(self, idx: int) -> str:
        """The untraced output for an input, computed once if no untraced job ran it."""
        if idx not in self.first:
            self.first[idx] = canonical(self.workload, self.run(idx))
        return self.first[idx]


def canonical(workload: str, out) -> str:
    """A job's result as text: the CLI's report, or countfit's results as JSON."""
    if workload == "cli-cold":
        return out
    if workload == "recovery-sweep":
        doc = [recovery_doc(r) for r in out]
    elif workload == "wide-tail":
        doc = [compare_doc(*o) for o in out]
    else:
        doc = compare_doc(*out)
    return json.dumps(doc, sort_keys=True)


def loop(jobs: Jobs, seconds: float, tracer: Tracer | None, records: list) -> None:
    """Run jobs for ``seconds`` (at least one), cycling through the pool."""
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        idx = i % len(jobs.pool)
        error = None
        out = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = jobs.run(idx)
            else:
                tracer.job = len(records)
                out = jobs.traced(idx, tracer)
        except Exception as exc:  # a failed job is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if out is not None:
            text = canonical(jobs.workload, out)
            if tracer is None or jobs.workload == "cli-cold":
                if jobs.first.setdefault(idx, text) != text:
                    error = "output differs from an earlier job on the same input"
            elif not close(json.loads(text), json.loads(jobs.expected(idx))):
                error = "traced composition differs from the wrapper's result"
        # the machine's speed right after the job, for run.py to scale by
        records.append((idx, dt, error, tracer is not None, speed.reference()))
        i += 1
        if time.perf_counter() >= deadline:
            return


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    channel = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep the result channel clean
    if Path(countfit.__file__).resolve().parent != ROOT / "src" / "countfit":
        print(f"countfit imported from {countfit.__file__}, not src/", file=sys.stderr)
        return 2
    with inputs.scratch_dir(ROOT) as tmpdir:
        pool = inputs.build(args.workload, args.seed, tmpdir)
        channel.write(b"ready\n")
        channel.flush()
        if args.probe:
            return 0
        jobs = Jobs(args.workload, pool, tmpdir)
        records: list = []
        tracer = None
        if args.trace:
            loop(jobs, args.seconds * UNTRACED_SHARE, None, records)
            tracer = Tracer()
            loop(jobs, args.seconds * (1 - UNTRACED_SHARE), tracer, records)
        else:
            loop(jobs, args.seconds, None, records)
        result = {
            "inputs_sha256": inputs.sha256(args.workload, pool),
            "records": records,
            "first": jobs.first,
            "child_maxrss_kb": jobs.child_maxrss_kb,
            "spans": tracer.spans if tracer else [],
            "counts": tracer.counts if tracer else {},
        }
        pickle.dump(result, channel, protocol=pickle.HIGHEST_PROTOCOL)
        channel.flush()
        return 0


if __name__ == "__main__":
    sys.exit(main())
