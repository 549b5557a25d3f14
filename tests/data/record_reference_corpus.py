"""Record reference_corpus.json from the countfit found on PYTHONPATH.

    mkdir -p /tmp/cf-old && git archive cffd145 src | tar -x -C /tmp/cf-old
    PYTHONPATH=/tmp/cf-old/src python tests/data/record_reference_corpus.py out.json

The checked-in file was recorded this way from commit cffd145; rerunning it
there reproduces the file byte for byte. It uses only the public API, so it
also runs against later commits (their values differ by roundoff).
"""

import json
import sys

import numpy as np

import countfit as cf

FAMILIES = ["nb", "zig", "hg", "geom", "poisson"]


def histogram(values) -> dict:
    table = np.bincount(values)
    return {int(y): int(table[y]) for y in np.flatnonzero(table)}


SAMPLES = {
    "seo_a_readme": {0: 329, 1: 80, 2: 55, 3: 30, 4: 46},
    "zig_inflated_n540": histogram(
        cf.sample(cf.ZeroInflated(pi=0.3653, base=cf.Geometric(p=0.3843)), 540, 1)
    ),
    "zig_deflated_n549": histogram(
        cf.sample(cf.ZeroInflated(pi=-0.0256, base=cf.Geometric(p=0.3109)), 549, 2)
    ),
    "nb_overdispersed_n2000": histogram(
        cf.sample(cf.NegBinomial(p=0.6193 / (4.6102 + 0.6193), k=0.6193), 2000, 3)
    ),
    "nb_wide_tail_n800": histogram(
        cf.sample(cf.NegBinomial(p=0.5 / 20.5, k=0.5), 800, 4)
    ),
    "poisson_underdispersed_n300": histogram(cf.sample(cf.Poisson(mean=2.5), 300, 5)),
    "no_zeros": {1: 12, 2: 7, 3: 5, 5: 2, 8: 1},
    "gapped": {0: 40, 2: 9, 3: 4, 7: 2, 12: 1},
}


def params(model) -> dict:
    if isinstance(model, cf.Poisson):
        return {"m": model.mean}
    if isinstance(model, cf.Geometric):
        return {"p": model.p}
    if isinstance(model, cf.NegBinomial):
        return {"p": model.p, "k": model.k}
    return {"pi": model.pi, "p": model.base.p}


def record(name: str, freq: dict) -> dict:
    s = cf.summarize(freq)
    rec = {"name": name, "freq": [[y, f] for y, f in sorted(freq.items())],
           "n": s.n, "n0": s.n0, "mean": s.mean, "var": s.var, "models": {}}
    report = cf.compare_models(s, FAMILIES)
    for e in report.entries:
        if e.fit is None:
            rec["models"][e.family] = {"error": e.error}
            continue
        gof = None
        if e.gof is not None:
            gof = {"chi2": e.gof.chi2, "df": e.gof.df, "p_value": e.gof.p_value,
                   "bins": [[b.label, b.observed, b.expected] for b in e.gof.bins]}
        rec["models"][e.family] = {"params": params(e.fit.model), "loglik": e.fit.loglik,
                                   "aic": e.fit.aic, "gof": gof}
    try:
        mom = cf.mom_nb(s)
        rec["models"]["nb_moments"] = {"params": params(mom.model), "loglik": mom.loglik}
    except cf.CountFitError as exc:
        rec["models"]["nb_moments"] = {"error": str(exc)}
    rec["best_aic_model"] = report.best_aic_model
    return rec


def main() -> None:
    doc = {"families": FAMILIES,
           "samples": [record(name, freq) for name, freq in SAMPLES.items()]}
    text = json.dumps(doc, separators=(",", ":")).replace('{"name"', '\n{"name"')
    with open(sys.argv[1], "w") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
