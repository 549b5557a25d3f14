"""Record sample_corpus.json from the countfit found on PYTHONPATH.

    mkdir -p /tmp/cf-old && git archive ae77f1a src | tar -x -C /tmp/cf-old
    PYTHONPATH=/tmp/cf-old/src python tests/data/record_sample_corpus.py out.json

The checked-in file was recorded this way from commit ae77f1a, before the
samplers moved onto the model classes; `tests/test_sampler.py` checks that
``sample`` still draws the same counts. It uses only the public API. Each
record is the histogram of ``sample(model, n, seed)`` as [count, frequency]
pairs, for every model of `test_dist._LOG_PMF_CASES` and two more whose
draws no CLI golden case pins: a deflated ZI over a Poisson base, and an NB
drawn as a Poisson of a gamma variate (its inverse-CDF table is past the
size rule at every n here).
"""

import json
import sys

import numpy as np

import countfit as cf

MODELS = [
    # test_dist._LOG_PMF_CASES
    cf.Poisson(mean=3.7),
    cf.Poisson(mean=0.0),
    cf.Geometric(p=0.3),
    cf.Geometric(p=1.0),
    cf.NegBinomial(p=0.4, k=2.5),
    cf.NegBinomial(p=0.15, k=0.3),
    cf.NegBinomial(p=1.0, k=2.5),
    cf.ZeroInflated(pi=0.2, base=cf.Geometric(p=0.3)),
    cf.ZeroInflated(pi=-1.0, base=cf.Geometric(p=0.5)),
    cf.ZeroInflated(pi=1.0, base=cf.Geometric(p=0.3)),
    cf.ZeroInflated(pi=0.1, base=cf.Poisson(mean=2.0)),
    cf.ZeroInflated(pi=-0.05, base=cf.NegBinomial(p=0.5, k=1.5)),
    cf.Hurdle(pi=0.35, base=cf.Geometric(p=0.3)),
    cf.Hurdle(pi=0.0, base=cf.Geometric(p=0.3)),
    cf.Hurdle(pi=1.0, base=cf.Geometric(p=0.3)),
    cf.Hurdle(pi=0.4, base=cf.NegBinomial(p=0.3, k=0.8)),
    cf.Hurdle(pi=0.2, base=cf.Poisson(mean=1.5)),
    # a deflated ZI over a Poisson base, and a gamma-Poisson NB
    cf.ZeroInflated(pi=-0.1, base=cf.Poisson(mean=2.0)),
    cf.NegBinomial(p=0.05 / 1000.05, k=0.05),
]
SIZES = [1, 300, 5000]
SEEDS = [11, 12345678901234567890]


def record(model, n: int, seed: int) -> dict:
    table = np.bincount(cf.sample(model, n, seed))
    hist = [[int(y), int(table[y])] for y in np.flatnonzero(table)]
    return {"model": repr(model), "n": n, "seed": seed, "hist": hist}


def main() -> None:
    records = [record(m, n, seed) for m in MODELS for n in SIZES for seed in SEEDS]
    text = ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
    with open(sys.argv[1], "w") as fh:
        fh.write("[\n" + text + "\n]\n")


if __name__ == "__main__":
    main()
