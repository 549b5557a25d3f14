"""The NB shape solver against frozen copies of the two loops it replaced.

`_ref_mle_nb` is the scalar loop `mle_nb` ran in Python floats, and
`_ref_nb_shape_rows` the lockstep row loop `_nb_shape_rows` ran over a
frequency table, both as they stood before `estimate._solve_log_k` took
over their rules. `mle_nb` must give the same k, score evaluations,
bracket, residual, boundary flag and notes, and `_nb_shape_rows` the same
k for every row, bit for bit. A last test checks the driver's lockstep
bookkeeping on a synthetic score: a row's result must not depend on the
rows solved beside it. `_ref_solve_log_k` is the driver as it stood when it
stepped every row in numpy arrays; the driver in Python floats must return
the same values, also where a zero or NaN divisor makes numpy give inf or
nan, and give a scalar caller Python floats, ints and bools.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from countfit.dist import _table_fits
from countfit.estimate import (
    FrequencySample,
    _nb_profile_score,
    _nb_shape_rows,
    _solve_log_k,
    _summarize_rows,
    mle_nb,
    summarize,
)
from countfit.specfn import _x_minus_log1p_series

FLOOR, CAP = 1e-8, 1e8


# ---------------------------------------------------------------- reference


def _ref_mle_nb(s):
    """The scalar solve: (k, evaluations, bracket, residual, notes)."""
    n, m = s.n, s.mean
    score = _nb_profile_score(s.counts, s.freqs, n, m)
    k_mom = m * m / (s.var - m)
    lo = min(max(FLOOR, k_mom / 10.0), CAP)
    hi = max(min(CAP, k_mom * 10.0), FLOOR)
    g_lo, g_hi = score(lo)[0], score(hi)[0]
    evals = 2
    while g_lo <= 0.0 and lo > FLOOR:
        hi, g_hi = lo, g_lo
        lo = max(FLOOR, lo / 10.0)
        g_lo = score(lo)[0]
        evals += 1
    while g_hi > 0.0 and hi < CAP:
        lo, g_lo = hi, g_hi
        hi = min(CAP, hi * 10.0)
        g_hi = score(hi)[0]
        evals += 1
    bracket = (lo, hi)
    notes = ()
    if g_hi > 0.0:
        k, g = hi, g_hi
        notes = (f"Poisson limit: the NB score is still positive at the cap k={hi:.0e}",)
    elif g_lo <= 0.0:
        k, g = lo, g_lo
        notes = (f"the NB score is not positive at the floor k={lo:.0e}",)
    else:
        k = k_mom if lo < k_mom < hi else math.sqrt(lo * hi)
        step = math.inf
        for _ in range(100):
            g, dg = score(k)
            evals += 1
            if abs(step) < 1e-10:
                break
            if g > 0.0:
                lo = k
            else:
                hi = k
            t = math.log(k)
            t_new = t - g / (k * dg) if dg < 0.0 else math.inf
            if abs(t_new - t) >= 1e-10 and not math.log(lo) < t_new < math.log(hi):
                t_new = 0.5 * (math.log(lo) + math.log(hi))
            step = t_new - t
            k = math.exp(t_new)
    return k, evals, bracket, g, notes


def _ref_nb_shape_rows(table, n, m, var):
    """The lockstep row solve, with its hand-off of shapes above 1e4."""
    j = np.arange(table.shape[1] - 1, dtype=np.float64)
    ja = j * (n - np.cumsum(table[:, :-1], axis=1))

    def score(rows, k):
        mr = m[rows]
        inv = 1.0 / (k[:, None] + j)
        r = ja[rows] * inv
        s1, s2 = r.sum(axis=1), (r * inv).sum(axis=1)
        x = mr / k
        phi = np.where(x > 0.01, x - np.log1p(x), _x_minus_log1p_series(x))
        g = n * phi - s1 / k
        return g, (s1 + k * s2 - n * mr * mr / (mr + k)) / (k * k)

    k_mom = m * m / (var - m)
    lo = np.minimum(np.maximum(FLOOR, k_mom / 10.0), CAP)
    hi = np.maximum(np.minimum(CAP, k_mom * 10.0), FLOOR)
    every = np.arange(len(table))
    g_lo, g_hi = score(every, lo)[0], score(every, hi)[0]
    while (grow := np.flatnonzero((g_lo <= 0.0) & (lo > FLOOR))).size:
        hi[grow], g_hi[grow] = lo[grow], g_lo[grow]
        lo[grow] = np.maximum(FLOOR, lo[grow] / 10.0)
        g_lo[grow] = score(grow, lo[grow])[0]
    while (grow := np.flatnonzero((g_hi > 0.0) & (hi < CAP))).size:
        lo[grow], g_lo[grow] = hi[grow], g_hi[grow]
        hi[grow] = np.minimum(CAP, hi[grow] * 10.0)
        g_hi[grow] = score(grow, hi[grow])[0]
    k = np.where(g_hi > 0.0, hi, np.where(g_lo <= 0.0, lo, k_mom))
    active = np.flatnonzero(~(g_hi > 0.0) & ~(g_lo <= 0.0))
    k[active] = np.where((lo < k_mom) & (k_mom < hi), k_mom, np.sqrt(lo * hi))[active]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not active.size:
                break
            ka = k[active]
            g, dg = score(active, ka)
            lo[active] = np.where(g > 0.0, ka, lo[active])
            hi[active] = np.where(g > 0.0, hi[active], ka)
            t = np.log(ka)
            t_new = np.where(dg < 0.0, t - g / (ka * dg), np.inf)
            log_lo, log_hi = np.log(lo[active]), np.log(hi[active])
            outside = ~((log_lo < t_new) & (t_new < log_hi))
            t_new = np.where(
                (np.abs(t_new - t) >= 1e-10) & outside, 0.5 * (log_lo + log_hi), t_new
            )
            k[active] = np.exp(t_new)
            active = active[~(np.abs(t_new - t) < 1e-10)]
    for i in np.flatnonzero(k > 1e4):
        counts = np.flatnonzero(table[i])
        s = FrequencySample(
            counts=counts, freqs=table[i, counts], n=n, n0=int(table[i, 0]),
            mean=float(m[i]), var=float(var[i]),
        )
        k[i] = _ref_mle_nb(s)[0]
    return k


def _ref_solve_log_k(score, k0, exp, log):
    """The driver with every row's state in numpy arrays, stepped in lockstep."""
    lo = np.minimum(np.maximum(FLOOR, k0 / 10.0), CAP)
    hi = np.maximum(np.minimum(CAP, k0 * 10.0), FLOOR)
    g_lo, g_hi = (score(np.arange(k0.size), end)[0] for end in (lo, hi))
    evals = np.full(k0.size, 2)
    while (grow := np.flatnonzero((g_lo <= 0.0) & (lo > FLOOR))).size:
        hi[grow], g_hi[grow] = lo[grow], g_lo[grow]
        lo[grow] = np.maximum(FLOOR, lo[grow] / 10.0)
        g_lo[grow] = score(grow, lo[grow])[0]
        evals[grow] += 1
    while (grow := np.flatnonzero((g_hi > 0.0) & (hi < CAP))).size:
        lo[grow], g_lo[grow] = hi[grow], g_hi[grow]
        hi[grow] = np.minimum(CAP, hi[grow] * 10.0)
        g_hi[grow] = score(grow, hi[grow])[0]
        evals[grow] += 1
    cap = g_hi > 0.0
    floor = ~cap & (g_lo <= 0.0)
    k, g = np.where(cap, hi, lo), np.where(cap, g_hi, g_lo)
    rows = np.flatnonzero(~cap & ~floor)
    kr = np.where((lo < k0) & (k0 < hi), k0, np.sqrt(lo * hi))[rows]
    t_lo, t_hi = log(lo[rows]), log(hi[rows])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not rows.size:
                break
            gr, dg = score(rows, kr)
            g[rows] = gr
            evals[rows] += 1
            t = log(kr)
            t_lo, t_hi = np.where(gr > 0.0, t, t_lo), np.where(gr > 0.0, t_hi, t)
            t_new = np.where(dg < 0.0, t - gr / (kr * dg), np.inf)
            bisect = (np.abs(t_new - t) >= 1e-10) & ~((t_lo < t_new) & (t_new < t_hi))
            t_new = np.where(bisect, 0.5 * (t_lo + t_hi), t_new)
            k[rows] = kr = exp(t_new)
            keep = ~(np.abs(t_new - t) < 1e-10)
            rows, kr, t_lo, t_hi = rows[keep], kr[keep], t_lo[keep], t_hi[keep]
    return k, (lo, hi), g, evals, cap, floor


def _phase(s) -> str:
    """Which of the solver's paths the reference takes on an NB-fittable sample."""
    k, _, (lo, hi), _, notes = _ref_mle_nb(s)
    k_mom = s.mean**2 / (s.var - s.mean)
    if notes:
        return "cap" if k == CAP else "floor"
    if lo < min(max(FLOOR, k_mom / 10.0), CAP):
        return "down"
    if hi > max(min(CAP, k_mom * 10.0), FLOOR):
        return "up"
    return "interior"


# ------------------------------------------------------------- scalar fits

# one sample for each path and score form: (frequency map, path, dense);
# a sparse score sums digamma differences over the distinct counts
PHASES = [
    ({0: 30, 1: 12, 2: 9, 5: 4, 11: 2}, "interior", True),
    ({0: 2, 1000: 7}, "down", True),
    ({0: 29, 1: 38, 2: 28, 3: 13, 4: 7, 6: 1, 208: 1}, "up", True),
    ({0: 65859, 1: 24609, 2: 9553}, "cap", True),
    ({0: 10**9, 2: 1}, "floor", True),
    ({0: 65850, 1: 24611, 2: 9560}, "interior", True),
    ({0: 30, 1: 12, 2: 9, 5: 4, 10**6: 2}, "interior", False),
    ({0: 5, 10**12: 1, 10**12 + 7: 2}, "down", False),
    ({0: 29, 1: 38, 2: 28, 3: 13, 4: 7, 6: 1, 2000: 1}, "up", False),
]


def _assert_matches_reference(s) -> None:
    fit = mle_nb(s)
    k, evals, bracket, residual, notes = _ref_mle_nb(s)
    info = fit.solver
    assert fit.model.k == k
    assert (info.iterations, info.bracket, info.residual) == (evals, bracket, residual)
    assert (info.boundary, info.notes) == (bool(notes), notes)
    assert all(type(v) is float for v in (fit.model.k, *info.bracket, info.residual))
    assert type(info.iterations) is int


@pytest.mark.parametrize("freq, path, dense", PHASES)
def test_each_solver_path_matches_the_scalar_loop(freq, path, dense):
    s = summarize(freq)
    assert (_phase(s), _table_fits(max(freq), s.n)) == (path, dense)
    _assert_matches_reference(s)


@st.composite
def nb_samples(draw):
    """Samples with var > mean on every path, with dense and sparse scores."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(5, 400))
    kind = draw(st.sampled_from(["nb", "poisson", "outlier", "two_point", "zeros"]))
    if kind == "nb":
        k, m = 10 ** rng.uniform(-1.5, 2), rng.uniform(0.2, 20)
        values = rng.negative_binomial(k, k / (m + k), n)
    elif kind == "poisson":  # near the Poisson limit
        values = rng.poisson(rng.uniform(0.5, 5), n * 10)
    elif kind == "outlier":  # a few large counts inflate the variance
        values = rng.poisson(rng.uniform(0.5, 5), n)
        values[: rng.integers(1, 3)] = 10 ** rng.integers(1, 14)
    elif kind == "two_point":  # zeros and one large count
        values = np.where(rng.random(n) < rng.uniform(0.05, 0.5), 0, 10 ** rng.integers(1, 14))
    else:  # almost every value zero
        return summarize({0: int(10 ** rng.uniform(2, 11)), int(rng.integers(1, 4)): n})
    return summarize(values)


@given(s=nb_samples())
@settings(max_examples=300, deadline=None)
def test_mle_nb_matches_the_scalar_loop(s):
    if s.mean > 0.0 and s.var > s.mean:
        _assert_matches_reference(s)


# ---------------------------------------------------------------- row fits


def _rows_of(freqs: list[dict], n: int, width: int) -> np.ndarray:
    """A (rows, width) frequency table, each row scaled from a map to n values."""
    table = np.zeros((len(freqs), width), dtype=np.int64)
    for row, freq in zip(table, freqs):
        total = sum(freq.values())
        for y, f in freq.items():
            row[y] = f * n // total
        row[max(freq, key=freq.get)] += n - row.sum()
    return table


# the dense maps of PHASES as rows of 10**4 times the cap sample's 100021
# values: that sample and the one near k = 1.2e6 scale exactly, and the
# floor sample rounds to {0: n - 1, 2: 1}
PHASE_ROWS = [freq for freq, _, dense in PHASES if dense and max(freq) <= 1000]
ROW_N = 100021 * 10**4


@given(
    picks=st.lists(st.sampled_from(range(len(PHASE_ROWS))), min_size=1, max_size=8),
    extra=st.lists(st.tuples(st.floats(-1.5, 2.0), st.floats(0.2, 20.0)), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_nb_shape_rows_match_the_row_loop(picks, extra, seed):
    rng = np.random.default_rng(seed)
    table = _rows_of([PHASE_ROWS[i] for i in picks], ROW_N, 1001)
    draws = [rng.negative_binomial(10**lk, 10**lk / (m + 10**lk), 300) for lk, m in extra]
    if draws:
        nb = np.zeros((len(draws), 1001), dtype=np.int64)
        for row, values in zip(nb, draws):
            row[:] = np.bincount(np.minimum(values, 1000), minlength=1001)
        table = np.vstack([table, _rows_of([dict(enumerate(r.tolist())) for r in nb], ROW_N, 1001)])
    table = table[rng.permutation(len(table))]
    n, _, m, var = _summarize_rows(table)
    ok = (m > 0.0) & (var > m)
    table, m, var = table[ok], m[ok], var[ok]
    if len(table):
        got = _nb_shape_rows(table, n, m, var)
        want = _ref_nb_shape_rows(table, n, m, var)
        assert got.tolist() == want.tolist()


def test_the_row_batch_covers_every_path():
    table = _rows_of(PHASE_ROWS, ROW_N, 1001)
    n, _, m, var = _summarize_rows(table)
    paths = set()
    for row in table:
        counts = np.flatnonzero(row)
        paths.add(_phase(summarize(dict(zip(counts.tolist(), row[counts].tolist())))))
    assert paths == {"interior", "down", "up", "cap", "floor"}
    assert _nb_shape_rows(table, n, m, var).tolist() == _ref_nb_shape_rows(table, n, m, var).tolist()


# -------------------------------------------------------- lockstep driver

# (root, slope, start): a root inside [1e-8, 1e8], below it, above it, and
# starts that make the bracket widen down or up, or that sit outside it
SYNTHETIC_ROWS = [
    (2.0, 1.0, 1.5),  # interior, Newton from the start
    (3.0, 5.0, 0.4),  # interior, steep: steps leave the bracket and bisect
    (1e-3, 1.0, 10.0),  # widens down
    (1e5, 2.0, 1.0),  # widens up
    (1e10, 1.0, 1e6),  # cap
    (1e-10, 1.0, 1e-5),  # floor
    (3e7, 1.0, 1e9),  # start above the cap: widens down from [1e8, 1e8]
    (1e-7, 1.0, 1e-10),  # start below the floor: widens up from [1e-8, 1e-8]
]


def _tanh(root, slope):
    """g(k) = tanh(slope (log root - log k)) and its g'."""

    def g(k):
        v = math.tanh(slope * (math.log(root) - math.log(k)))
        return v, -slope * (1.0 - v * v) / k

    return g


def _scores(rows_spec):
    """score(rows, ks) over rows of (g, start), one element at a time, in lists."""

    def score(rows, ks):
        gs = [rows_spec[i][0](x) for i, x in zip(rows, ks)]
        return [g for g, _ in gs], [dg for _, dg in gs]

    return score


def _mapped(f):
    """f over a list of floats, as a scalar caller passes libm's exp and log."""
    return lambda x: list(map(f, x))


def _on_arrays(f):
    """A list-to-list exp or log over a float array, for `_ref_solve_log_k`."""
    return lambda x: np.array(f(x.tolist()))


def _score_on_arrays(score):
    """A list score over the arrays `_ref_solve_log_k` passes, giving arrays."""
    return lambda rows, k: tuple(np.array(v) for v in score(rows.tolist(), k.tolist()))


def _tanh_score(rows_spec):
    """The score of SYNTHETIC_ROWS-style (root, slope, start) rows."""
    return _scores([(_tanh(root, a), start) for root, a, start in rows_spec])


def _solve(rows_spec):
    k0 = [start for _, _, start in rows_spec]
    rows = _solve_log_k(_tanh_score(rows_spec), k0, _mapped(math.exp), _mapped(math.log))
    return [(k, lo, hi, *rest) for k, (lo, hi), *rest in rows]


def test_the_synthetic_rows_take_every_path():
    for (root, _, start), (k, lo, hi, g, evals, cap, floor) in zip(
        SYNTHETIC_ROWS, _solve(SYNTHETIC_ROWS)
    ):
        if root > CAP:
            assert (k, cap, floor, g > 0.0) == (CAP, True, False, True)
        elif root < FLOOR:
            assert (k, cap, floor, g <= 0.0) == (FLOOR, False, True, True)
        else:
            assert not (cap or floor)
            assert k == pytest.approx(root, rel=1e-9)
            assert lo <= root <= hi
        assert evals >= 2
    widened = []
    for (_, _, start), (_, lo, hi, *_) in zip(SYNTHETIC_ROWS, _solve(SYNTHETIC_ROWS)):
        if lo < min(max(FLOOR, start / 10.0), CAP):
            widened.append("down")
        elif hi > max(min(CAP, start * 10.0), FLOOR):
            widened.append("up")
        else:
            widened.append(None)
    assert widened == [None, None, "down", "up", "up", "down", "down", "up"]


@given(picks=st.lists(st.sampled_from(range(len(SYNTHETIC_ROWS))), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_each_row_solves_as_it_would_alone(picks):
    rows_spec = [SYNTHETIC_ROWS[i] for i in picks]
    alone = [_solve([spec])[0] for spec in rows_spec]
    assert _solve(rows_spec) == alone


# rows whose g' is not a slope Newton can use, each (g, start): g = tanh(log
# root - log k) with g' fixed at `below` under the root and `above` from it
# on. At k < 0.5 the least subnormal g' makes k*g' underflow to -0.0, where
# numpy's g / (k*g') is -inf or +inf by the sign of g (a bisection follows)
# and nan where g is exactly 0 (the row then steps on nan to the 100th step);
# a NaN g' gives no Newton step at all.
TINY = -5e-324


def _fixed_slope(root, below, above):
    def g(k):
        return math.tanh(math.log(root) - math.log(k)), below if k < root else above

    return g


ODD_ROWS = [
    (_fixed_slope(1e-3, TINY, TINY), 0.2),  # k*g' = -0.0 on both sides of the root
    (_fixed_slope(0.25, TINY, TINY), 0.25),  # g = 0 at the start: 0 / -0.0 is nan
    (_fixed_slope(2e-3, TINY, math.nan), 1e-2),  # NaN g' above the root
]
ROWS = [(_tanh(root, slope), start) for root, slope, start in SYNTHETIC_ROWS] + ODD_ROWS


# libm's exp and log, and numpy's, each mapping a list to a list
EXP_LOG = [
    (_mapped(math.exp), _mapped(math.log)),
    (lambda x: np.exp(x).tolist(), lambda x: np.log(x).tolist()),
]


def _assert_same_as_lockstep(rows_spec, exp, log):
    k0 = [start for _, start in rows_spec]
    got = _solve_log_k(_scores(rows_spec), k0, exp, log)
    want = _ref_solve_log_k(
        _score_on_arrays(_scores(rows_spec)), np.array(k0), _on_arrays(exp), _on_arrays(log)
    )
    for a, b in zip(_columns(got), _flat(want)):
        np.testing.assert_array_equal(a, b, strict=True)


def _columns(rows):
    """The driver's per-row tuples as arrays: k, lo, hi, g, evals, cap, floor."""
    k, bracket, *rest = zip(*rows)
    return [np.array(v) for v in (k, *zip(*bracket), *rest)]


def _flat(result):
    k, (lo, hi), *rest = result
    return [k, lo, hi, *rest]


@pytest.mark.parametrize("exp, log", EXP_LOG)
def test_the_odd_rows_take_the_zero_and_nan_divisor_paths(exp, log):
    k, lo, hi, g, evals, cap, floor = _columns(
        _solve_log_k(_scores(ODD_ROWS), [start for _, start in ODD_ROWS], exp, log)
    )
    assert not (cap.any() or floor.any())
    assert k[0] == pytest.approx(1e-3, rel=1e-9) and k[2] == pytest.approx(2e-3, rel=1e-9)
    assert math.isnan(k[1]) and math.isnan(g[1]) and evals[1] == 102
    _assert_same_as_lockstep(ODD_ROWS, exp, log)


@pytest.mark.parametrize("exp, log", EXP_LOG)
def test_every_synthetic_batch_matches_the_lockstep_driver(exp, log):
    _assert_same_as_lockstep([ROWS[i] for i in range(len(SYNTHETIC_ROWS))], exp, log)
    _assert_same_as_lockstep(ROWS, exp, log)


@given(
    picks=st.lists(st.sampled_from(range(len(ROWS))), min_size=1, max_size=12),
    use_libm=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_any_batch_of_synthetic_rows_matches_the_lockstep_driver(picks, use_libm):
    _assert_same_as_lockstep([ROWS[i] for i in picks], *EXP_LOG[0 if use_libm else 1])


@pytest.mark.parametrize("g_of, start", ROWS)
def test_a_scalar_caller_gets_the_lockstep_row_in_python_types(g_of, start):
    # one row at a time with a Python-float score, as `mle_nb` calls the driver
    [got] = _solve_log_k(lambda rows, ks: list(zip(*map(g_of, ks))), [start], *EXP_LOG[0])
    k, (lo, hi), g, evals, cap, floor = got
    want = [v[0] for v in _flat(_ref_solve_log_k(
        _score_on_arrays(_scores([(g_of, start)])), np.array([start]),
        *map(_on_arrays, EXP_LOG[0]),
    ))]
    for a, b in zip((k, lo, hi, g, evals, cap, floor), want):
        assert a == b or (math.isnan(a) and math.isnan(b))
    assert [type(v) for v in (k, lo, hi, g, evals, cap, floor)] == [float] * 4 + [int, bool, bool]
