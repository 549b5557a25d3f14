"""The family table against the code that reads it.

For every family in `FAMILY_TABLE`, with parameters drawn by hypothesis: a
spec built from the table's parameter names parses back to the same
parameters, the table's parameter count is the fitted result's, and each
row fitter agrees with its scalar fitter on one tallied sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countfit.cli import parse_model_spec
from countfit.errors import CountFitError
from countfit.estimate import FAMILY_TABLE, _summarize_rows, family_of, summarize
from countfit.sim import sample


def _zig(t: float, p: float) -> tuple[float, float]:
    """pi from the floor -p/(1-p) (at t = 0) up to 0.9 (at t = 1)."""
    floor = -p / (1.0 - p)
    return floor + t * (0.9 - floor), p


PARAMS = {  # each family's parameters, in the table's order
    "nb": st.tuples(st.floats(0.05, 0.95), st.floats(0.1, 20.0)),
    "zig": st.builds(_zig, st.floats(0.0, 1.0), st.floats(0.05, 0.95)),
    "hg": st.tuples(st.floats(0.0, 0.95), st.floats(0.05, 0.95)),
    "geom": st.tuples(st.floats(0.05, 1.0)),
    "poisson": st.tuples(st.floats(0.0, 20.0)),
}


@pytest.mark.parametrize("name", FAMILY_TABLE)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_spec_from_the_table_round_trips(name, data):
    family = FAMILY_TABLE[name]
    values = data.draw(PARAMS[name])
    spec = f"{name}:" + ",".join(f"{k}={v!r}" for k, v in zip(family.names, values))
    model = parse_model_spec(spec)
    assert model == family.build(*values)
    assert family_of(model) is family
    assert model._values() == values
    assert list(family.params(model)) == list(family.names)


def _fits(name, data):
    """(family, a sample of the drawn model, the same values tallied as one table row)."""
    family = FAMILY_TABLE[name]
    model = family.build(*data.draw(PARAMS[name]))
    values = sample(model, 200, data.draw(st.integers(0, 2**32 - 1)))
    return family, summarize(values), np.bincount(values)[None, :]


@pytest.mark.parametrize("name", FAMILY_TABLE)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_n_params_is_the_fitted_count(name, data):
    family, s, _ = _fits(name, data)
    for fit_fn, _ in family.fits.values():
        try:
            fit = fit_fn(s)
        except CountFitError:
            continue
        assert fit.n_params == family.n_params


@pytest.mark.parametrize("name", FAMILY_TABLE)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_row_fitter_matches_scalar_fitter(name, data):
    family, s, table = _fits(name, data)
    stats = _summarize_rows(table)
    for meth, (fit_fn, rows) in family.fits.items():
        cols, ok = rows(table, *stats)
        try:
            want = fit_fn(s).model._values()
        except CountFitError:
            assert not ok[0], meth
            continue
        assert ok[0], meth
        got = tuple(float(c[0]) for c in cols)
        if (name, meth) == ("nb", "mle"):
            assert got == pytest.approx(want, rel=1e-9)
        elif (name, meth) == ("nb", "moments"):
            assert got == pytest.approx(want, rel=1e-12)
        else:
            assert got == want, meth
