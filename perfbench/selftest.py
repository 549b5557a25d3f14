"""Self-test of the benchmark: every workload at a tiny size through every
oracle, then planted wrong values that each oracle must reject.

    python3 perfbench/selftest.py

Exits 0 when every valid output passes and every planted error is caught.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SEED = 11


def shrink() -> None:
    """Tiny inputs; the pools keep their shape."""
    inputs.BULK_N = 20_000
    inputs.WIDE_N = 5_000
    inputs.SIMULATE_N = 2_000
    inputs.RECOVERY_REPS = 8
    inputs.PAPER_SAMPLES = inputs.PAPER_SAMPLES[:3]


def outputs(workload: str, tmpdir: Path) -> tuple[list, list[str]]:
    """Untraced output of each pool input, after checking the traced composition."""
    pool = inputs.build(workload, SEED, tmpdir)
    jobs = worker.Jobs(workload, pool, tmpdir)
    texts = []
    for idx in range(len(pool)):
        text = worker.canonical(workload, jobs.run(idx))
        jobs.first[idx] = text
        traced = worker.canonical(workload, jobs.traced(idx, worker.Tracer()))
        if workload == "cli-cold":
            assert traced == text, "cli-cold output is not deterministic"
        else:
            assert worker.close(json.loads(traced), json.loads(text)), (
                f"{workload}[{idx}]: traced composition differs from the wrapper")
        run.check_item(workload, pool[idx], text, tmpdir)
        texts.append(text)
    return pool, texts


class Planted:
    def __init__(self) -> None:
        self.caught = 0

    def expect_reject(self, name: str, check, doc) -> None:
        try:
            check(doc)
        except oracles.OracleError:
            self.caught += 1
            print(f"  rejected as expected: {name}")
            return
        raise SystemExit(f"oracle accepted a planted wrong value: {name}")


def entry(doc: dict, family: str) -> dict:
    return next(e for e in doc["models"] if e["family"] == family)


def compare_cases(t: Planted, doc: dict, ys, fs) -> None:
    check = lambda d: oracles.check_compare(d, ys, fs)  # noqa: E731
    m = doc["sample"]["mean"]

    def planted(name: str, mutate) -> None:
        d = copy.deepcopy(doc)
        mutate(d)
        t.expect_reject(name, check, d)

    planted("summary n0 + 1", lambda d: d["sample"].update(n0=d["sample"]["n0"] + 1))
    planted("summary mean x(1+1e-6)", lambda d: d["sample"].update(mean=m * (1 + 1e-6)))
    planted("summary var x(1+1e-6)", lambda d: d["sample"].update(var=d["sample"]["var"] * (1 + 1e-6)))
    planted("zig loglik x(1+1e-6)", lambda d: entry(d, "zig").update(loglik=entry(d, "zig")["loglik"] * (1 + 1e-6)))
    planted("geom aic + 1e-3", lambda d: entry(d, "geom").update(aic=entry(d, "geom")["aic"] + 1e-3))
    planted("zig pi + 1e-6", lambda d: entry(d, "zig")["params"].update(pi=entry(d, "zig")["params"]["pi"] + 1e-6))
    planted("hg p x(1+1e-6)", lambda d: entry(d, "hg")["params"].update(p=entry(d, "hg")["params"]["p"] * (1 + 1e-6)))
    planted("poisson m x(1+1e-6)", lambda d: entry(d, "poisson")["params"].update(m=m * (1 + 1e-6)))

    def off_profile(d: dict) -> None:
        # a consistent NB fit (p, loglik, aic agree) at a shape off the maximum
        e = entry(d, "nb")
        k = e["params"]["k"] * 1.05
        e["params"] = {"p": k / (m + k), "k": k}
        e["loglik"] = oracles.loglik("nb", e["params"], ys, fs)
        e["aic"] = 4.0 - 2.0 * e["loglik"]
        e["gof"] = None

    planted("nb k off the profile maximum", off_profile)

    def wrong_best(d: dict) -> None:
        d["best_aic_model"] = max((e for e in d["models"] if "aic" in e), key=lambda e: e["aic"])["family"]

    planted("best_aic_model set to the worst family", wrong_best)
    planted("chi2 x(1+1e-6)", lambda d: entry(d, "zig")["gof"].update(chi2=entry(d, "zig")["gof"]["chi2"] * (1 + 1e-6)))
    planted("p-value x(1+1e-6) + 1e-6", lambda d: entry(d, "zig")["gof"].update(
        p_value=entry(d, "zig")["gof"]["p_value"] * (1 + 1e-6) + 1e-6))
    planted("gof df + 1", lambda d: entry(d, "zig")["gof"].update(df=entry(d, "zig")["gof"]["df"] + 1))

    def moved_expected(d: dict) -> None:
        # shift expected mass between two bins; chi2 recomputed to match
        g = entry(d, "geom")["gof"]
        g["bins"][0]["expected"] += 0.5
        g["bins"][1]["expected"] -= 0.5
        g["chi2"] = sum((b["observed"] - b["expected"]) ** 2 / b["expected"] for b in g["bins"])
        g["p_value"] = float(oracles.stats.chi2.sf(g["chi2"], g["df"]))

    planted("gof expected moved between bins", moved_expected)

    def moved_observed(d: dict) -> None:
        g = entry(d, "geom")["gof"]
        g["bins"][0]["observed"] += 1
        g["bins"][1]["observed"] -= 1

    planted("gof observed moved between bins", moved_observed)
    planted("error entry for a family that fits", lambda d: d["models"].__setitem__(
        1, {"family": "zig", "error": "planted"}))


def recovery_cases(t: Planted, pool: list, texts: list[str]) -> None:
    item, doc = pool[0][0], json.loads(texts[0])[0]  # an NB scenario: mle and moments
    truth, reps = run.recovery_replicates(worker, item)
    fits = [f for _, _, f in reps]
    check = lambda d: oracles.check_recovery(d, truth, fits)  # noqa: E731

    def planted(name: str, mutate) -> None:
        d = copy.deepcopy(doc)
        mutate(d)
        t.expect_reject(name, check, d)

    planted("recovery mle mean k x(1+1e-6)", lambda d: d["estimates"]["mle"].update(
        k=d["estimates"]["mle"]["k"] * (1 + 1e-6)))
    planted("recovery moments |p error| x(1+1e-6)", lambda d: d["abs_error"]["moments"].update(
        p=d["abs_error"]["moments"]["p"] * (1 + 1e-6)))
    planted("recovery solver_failures + 1", lambda d: d.update(solver_failures=d["solver_failures"] + 1))

    values, sample, rep = reps[0]
    family = item[0][0]

    def planted_rep(name: str, mutate) -> None:
        s, f = copy.deepcopy(sample), copy.deepcopy(rep)
        mutate(s, f)
        t.expect_reject(name, lambda _: oracles.check_replicate(family, s, f, values), None)

    planted_rep("replicate summary var x(1+1e-6)", lambda s, f: s.update(var=s["var"] * (1 + 1e-6)))
    planted_rep("replicate moments k x(1+1e-6)", lambda s, f: f["moments"]["params"].update(
        k=f["moments"]["params"]["k"] * (1 + 1e-6)))
    planted_rep("replicate mle loglik x(1+1e-6)", lambda s, f: f["mle"].update(loglik=f["mle"]["loglik"] * (1 + 1e-6)))
    planted_rep("replicate fit reported failed on an over-dispersed sample",
                lambda s, f: f.update(mle=None))


def cli_cases(t: Planted, pool: list, texts: list[str], tmpdir: Path) -> None:
    item, text = pool[0], texts[0]
    check = lambda txt: run.check_item("cli-cold", item, txt, tmpdir)  # noqa: E731
    doc = json.loads(text)
    doc["input_sha256"] = "0" * 64
    t.expect_reject("report input_sha256 not the CSV's digest", check, json.dumps(doc, indent=2) + "\n")
    t.expect_reject("child report differs from in-process main", check, text.replace('"notes"', '"notes" '))
    sim = next(i for i, it in enumerate(pool) if it[0] == "simulate")
    lines = texts[sim].splitlines()
    y, f = lines[1].split(",")
    lines[1] = f"{y},{int(f) + 1}"
    t.expect_reject("simulate frequencies not summing to n",
                    lambda txt: run.check_item("cli-cold", pool[sim], txt, tmpdir), "\n".join(lines) + "\n")


def main() -> int:
    shrink()
    t = Planted()
    with inputs.scratch_dir(ROOT) as tmpdir:
        results = {}
        for workload in inputs.WORKLOADS:
            results[workload] = outputs(workload, tmpdir)
            print(f"{workload}: {len(results[workload][0])} inputs pass every oracle")
        pool, texts = results["bulk-ingest"]
        print("planted errors, bulk-ingest compare report:")
        compare_cases(t, json.loads(texts[0]), *oracles.histogram(pool[0]))
        print("planted errors, wide-tail compare report:")
        (maps,), (text,) = results["wide-tail"]
        compare_cases(t, json.loads(text)[0], *oracles.histogram_from_map(maps[0]))
        print("planted errors, recovery-sweep:")
        recovery_cases(t, *results["recovery-sweep"])
        print("planted errors, cli-cold:")
        cli_cases(t, *results["cli-cold"], tmpdir)
    print(f"selftest passed: {t.caught} planted errors rejected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
