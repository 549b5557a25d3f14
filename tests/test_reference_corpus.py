"""Numeric results against values recorded from the dict-based implementation.

tests/data/reference_corpus.json holds eight frequency tables and, for each,
the compare_models report (all five families) and the method-of-moments NB
fit, recorded with commit cffd145, before the histogram became numpy arrays
and the log-pmf a vectorised function. Summation order changed since then,
so values match within tolerances set by roundoff, not bit for bit:

- closed-form parameters, loglik and AIC: 1e-12 relative;
- the NB shape and p: 1e-8 relative, the solver's tolerance;
- expected cells, chi2 and p-values: 1e-12 relative or 1e-9 * n absolute,
  because the tail cell n * (1 - sum p) cancels.
"""

import json
from pathlib import Path

import pytest

from countfit.errors import CountFitError
from countfit.estimate import FAMILY_TABLE, mom_nb, summarize
from countfit.gof import compare_models

CORPUS = json.loads(
    (Path(__file__).parent / "data" / "reference_corpus.json").read_text()
)
REL = 1e-12
NB_REL = 1e-8


@pytest.mark.parametrize("ref", CORPUS["samples"], ids=lambda r: r["name"])
def test_matches_reference_corpus(ref):
    s = summarize({y: f for y, f in ref["freq"]})
    n = ref["n"]
    assert (s.n, s.n0) == (n, ref["n0"])
    assert s.mean == ref["mean"]  # exact integer total, as before
    assert s.var == pytest.approx(ref["var"], rel=REL)

    report = compare_models(s, CORPUS["families"])
    assert report.best_aic_model == ref["best_aic_model"]
    for entry in report.entries:
        want = ref["models"][entry.family]
        if "error" in want:
            assert entry.error == want["error"]
            continue
        rel = NB_REL if entry.family == "nb" else REL
        got_params = FAMILY_TABLE[entry.family].params(entry.fit.model)
        assert got_params.keys() == want["params"].keys()
        for key, value in want["params"].items():
            assert got_params[key] == pytest.approx(value, rel=rel, abs=0.0)
        assert entry.fit.loglik == pytest.approx(want["loglik"], rel=REL)
        assert entry.fit.aic == pytest.approx(want["aic"], rel=REL)
        if want["gof"] is None:
            assert entry.gof is None
            continue
        g, wg = entry.gof, want["gof"]
        assert g.df == wg["df"]
        assert g.chi2 == pytest.approx(wg["chi2"], rel=REL, abs=1e-9 * n)
        assert g.p_value == pytest.approx(wg["p_value"], rel=REL, abs=1e-9 * n)
        assert [(b.label, b.observed) for b in g.bins] == [
            (label, observed) for label, observed, _ in wg["bins"]
        ]
        for b, (_, _, expected) in zip(g.bins, wg["bins"]):
            assert b.expected == pytest.approx(expected, rel=REL, abs=1e-9 * n)

    want = ref["models"]["nb_moments"]
    if "error" in want:
        with pytest.raises(CountFitError) as exc:
            mom_nb(s)
        assert str(exc.value) == want["error"]
    else:
        fit = mom_nb(s)
        for key, value in want["params"].items():
            assert FAMILY_TABLE["nb"].params(fit.model)[key] == pytest.approx(value, rel=REL)
        assert fit.loglik == pytest.approx(want["loglik"], rel=REL)
