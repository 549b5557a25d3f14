"""Sampling and recovery experiments.

Random streams come from numpy's default PCG64 generator seeded through
SeedSequence, so identical (model, n, seed) inputs reproduce the exact
same counts on any platform. An NB sample is drawn by inverse CDF, one
uniform per value looked up in a cumulative table of its pmf (exact up to
the 1e-12 tail the table leaves out). The table is built once per model and
sample size, and only where it passes the size rule of `summarize` against
the values drawn; past it each value is a Poisson draw of a gamma variate.
An NB that is the base of an inflated ZIG is drawn the same way.

Replicate i of a recovery experiment is ``sample(model, n, child_i)``,
child_i being the i-th stream spawned from ``SeedSequence(seed)``:
replicates are independent, and any one can be drawn again alone. The
children's PCG64 seed words, equal to ``spawn``'s, are hashed once for all
replicates as arrays; a generator made from its row of 4 words costs about
a sixth of a spawned child's ``default_rng``. The experiment tallies the
replicates into one (replicates, L) frequency table as they are drawn, L
being 1 + the largest count: row i is
``np.bincount(sample(model, n, child_i))``, made from a table's n uniforms
with one sort and at most T + 2 searches (T table cells) instead of n
lookups. It fits all rows at once with the row fitters of the true model's
family in `estimate.FAMILY_TABLE`, which match its scalar fitters (closed
forms bit for bit, the NB shape to roundoff). Past the size rule of
`summarize` it fits replicate by replicate with the scalar fitters
instead, so memory stays O(n + replicates*L).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dist import (
    CountModel,
    Geometric,
    Hurdle,
    NegBinomial,
    Poisson,
    ZeroInflated,
    _TABLE_CAP,
    _table_fits,
    log_pmf_array,
    moments,
    pmf,
)
from .errors import CountFitError, InvalidModelError
from .estimate import Family, _summarize_rows, family_of, summarize

__all__ = ["sample", "recovery_experiment", "RecoveryReport"]

_TAIL_MASS = 1e-12

# the most values one call may draw, summed over its replicates
MAX_VALUES = 10**9


def _inverse_cdf_table(probs, start: int = 0, n: int | None = None) -> np.ndarray | None:
    """Cumulative probabilities from ``start`` until tail mass < 1e-12.

    ``probs`` maps an array of counts to their probabilities. The range is
    doubled until it covers all but the tail mass, so the table costs a few
    array calls, not one pmf call per count. Given ``n``, the number of
    values the table serves, the table is None unless its length passes the
    size rule of `summarize` against n; the doubling stops as soon as it
    cannot.
    """
    size = 64
    while True:
        cum = np.cumsum(probs(np.arange(start, start + size)))
        covered = np.flatnonzero(cum >= 1.0 - _TAIL_MASS)
        if covered.size:
            cum = cum[: covered[0] + 1]
            return cum if n is None or _table_fits(cum.size, n) else None
        if n is not None and not _table_fits(size + 1, n):
            return None  # the covering table is longer than this one
        if size >= _TABLE_CAP:
            raise CountFitError("inverse-CDF table did not converge")
        size = min(2 * size, _TABLE_CAP)


def _check_table_length(base: CountModel) -> None:
    """Refuse up front a base whose inverse-CDF table would pass the cap.

    Past L counts the geometric tail is (1-p)^L, so the table needs at
    least ln(1e-12)/ln(1-p) counts. A Poisson or NB table must reach past
    the mean, past which the pmf falls: so the counts from the cap to any j
    above it hold at least (j - cap)*pmf(j). Where that passes 1e-8 for
    some j, no table within the cap covers all but 1e-12, even allowing for
    the 1e-9 by which a cumsum over that many cells can round. The doubling
    would otherwise build ever larger tables up to the cap before it gave
    up.
    """
    if isinstance(base, Geometric):
        if math.log(_TAIL_MASS) / math.log1p(-base.p) > _TABLE_CAP:
            raise CountFitError(
                f"cannot sample a geometric p={base.p!r} this small by inverse CDF: "
                f"its table would need more than {_TABLE_CAP} counts"
            )
        return
    steps = 2.0 ** np.arange(25)
    if moments(base).mean > _TABLE_CAP or np.any(
        steps * np.exp(log_pmf_array(base, _TABLE_CAP + steps)) > 1e-8
    ):
        raise CountFitError(
            f"cannot sample the base {base!r} by inverse CDF: its table would "
            f"need more than {_TABLE_CAP} counts"
        )


def _poisson(rng: np.random.Generator, lam, n: int | None = None) -> np.ndarray:
    try:
        return rng.poisson(lam, n)
    except ValueError as exc:  # numpy refuses means near 2**63
        raise CountFitError(f"cannot sample a Poisson mean this large ({exc})") from exc


# ln(1 - u) at the largest float below 1 that rng.random() returns
_LOG_U_FLOOR = math.log1p(-(1.0 - 2.0**-53))


class _Draw(NamedTuple):
    """How n counts are drawn from one model, made once per (model, n).

    ``draw(rng)`` gives the n counts or, with ``edges``, n uniforms: count c
    takes those in (edges[c], edges[c+1]]. A table from ``start`` on has the
    edges [-inf, -1 (``start`` times), cum..., +inf], so -1 is a 0.
    """

    draw: Callable[[np.random.Generator], np.ndarray]
    edges: np.ndarray | None = None

    def values(self, rng: np.random.Generator) -> np.ndarray:
        drawn = self.draw(rng)
        if self.edges is None:
            return drawn
        cells = self.edges.searchsorted(drawn)  # one search per value
        return np.subtract(cells, 1, out=cells)  # in place: n may be large

    def row(self, rng: np.random.Generator) -> np.ndarray | None:
        """``np.bincount`` of what ``values`` gives on the same stream.

        Counts are checked first: None past the size rule of `summarize`.
        Uniforms are sorted in place and the edges, up to the largest
        uniform's, searched into them: one sort and at most L + 2 searches.
        """
        drawn = self.draw(rng)
        if self.edges is None:
            return np.bincount(drawn) if _table_fits(int(drawn.max()) + 1, drawn.size) else None
        drawn.sort()
        top = int(self.edges.searchsorted(drawn[-1])) - 1  # the largest count
        below = drawn.searchsorted(self.edges[: top + 2], side="right")
        return below[1:] - below[:-1]


def _table_sampler(cum: np.ndarray, n: int, start: int = 0) -> _Draw:
    """n counts from ``start`` on by inverse CDF: one uniform per value, looked up in ``cum``."""
    edges = np.concatenate(([-np.inf], np.full(start, -1.0), cum, [np.inf]))
    return _Draw(lambda rng: rng.random(n), edges)


def _zero_mixed(pi: float, base: _Draw, n: int) -> _Draw:
    """n counts, each 0 with probability pi and else what ``base`` gives.

    The n uniforms that pick the zeros are drawn first; ``base`` then runs
    on the rest of the stream. Over a table, a picked zero is a uniform of -1.
    """

    def draw(rng: np.random.Generator) -> np.ndarray:
        at_zero = rng.random(n) < pi
        drawn = base.draw(rng)
        drawn[at_zero] = 0 if base.edges is None else -1.0
        return drawn

    return _Draw(draw, base.edges)


def _sampler(model: CountModel, n: int) -> _Draw:
    """How n counts are drawn from the model.

    Checks and inverse-CDF tables are made here, once per model and sample
    size, so that the replicates of an experiment share them. An NB with
    p < 1 is drawn from a table of its pmf where the table passes the size
    rule of `summarize` against n, else as a Poisson of a gamma variate; the
    choice depends on (model, n) alone, so ``sample(model, n, seed)`` draws
    what a recovery replicate of n values draws from the same stream. An
    inflated ZIG draws its base as that base alone is drawn; deflated ZIGs
    and the positive part of hurdles are drawn from tables too.
    """
    if isinstance(model, Poisson):
        return _Draw(lambda rng: _poisson(rng, model.mean, n))
    if isinstance(model, (Geometric, NegBinomial)) and model.p == 1.0:
        return _Draw(lambda rng: np.zeros(n, dtype=np.int64))
    if isinstance(model, Geometric):
        log_q = math.log1p(-model.p)
        if _LOG_U_FLOOR / log_q >= 2.0**63:
            raise CountFitError(
                f"cannot sample a geometric p={model.p!r} this small: "
                "its draws can exceed the int64 range"
            )
        # inverse CDF: floor(ln(1-U) / ln(q)) has the number-of-failures law
        return _Draw(lambda rng: np.floor(np.log1p(-rng.random(n)) / log_q).astype(np.int64))
    if isinstance(model, NegBinomial):
        cum = _inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)), n=n)
        if cum is not None:
            return _table_sampler(cum, n)
        scale = (1.0 - model.p) / model.p
        return _Draw(lambda rng: _poisson(rng, rng.gamma(model.k, scale, n)))
    if isinstance(model, ZeroInflated) and model.pi >= 0.0:
        return _zero_mixed(model.pi, _sampler(model.base, n), n)
    if isinstance(model, ZeroInflated):
        # negative mixing weight: the mixture story breaks down, sample the
        # compound pmf directly by inverse CDF
        _check_table_length(model.base)
        cum = _inverse_cdf_table(lambda ys: np.exp(log_pmf_array(model, ys)))
        return _table_sampler(cum, n)
    if isinstance(model, Hurdle):
        _check_table_length(model.base)
        p0 = pmf(model.base, 0)
        cum = _inverse_cdf_table(
            lambda ys: np.exp(log_pmf_array(model.base, ys)) / (1.0 - p0), start=1
        )
        return _zero_mixed(model.pi, _table_sampler(cum, n, start=1), n)
    raise InvalidModelError(f"cannot sample model {type(model).__name__}")


def _check_size(n: int, replicates: int = 1) -> None:
    """Refuse a size or replicate count that is not an integer >= 1, or over MAX_VALUES values."""
    for name, v in (("sample size", n), ("replicates", replicates)):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise CountFitError(f"{name} must be an integer >= 1, got {v!r}")
    if int(n) * int(replicates) > MAX_VALUES:
        raise CountFitError(
            f"{n * replicates} values asked for (n={n}, replicates={replicates}); "
            f"the cap is {MAX_VALUES}"
        )


def _seeded(make, seed):
    """``make(seed)``, with a bool or a seed that numpy refuses raised as a CountFitError."""
    try:
        if isinstance(seed, (bool, np.bool_)):
            raise TypeError("a bool is not a seed")
        return make(seed)
    except (TypeError, ValueError) as exc:
        raise CountFitError(f"seed must be a non-negative integer, got {seed!r}") from exc


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715  # its mix of a hash into a pool word


def _hash(values: np.ndarray, init: int, mult: int, first: int, k: int) -> np.ndarray:
    """SeedSequence's hashes ``first`` to ``first + k - 1`` of uint32 values held as uint64."""
    consts = [init * pow(mult, j, 1 << 32) & _MASK32 for j in range(first, first + k + 1)]
    consts = np.array(consts, dtype=np.uint64)
    values = (values ^ consts[:-1]) * consts[1:] & _MASK32
    return values ^ values >> 16


def _child_seed_words(parent: np.random.SeedSequence, b: int) -> np.ndarray:
    """(b, 4) uint64: row i is ``parent.spawn(b)[i].generate_state(4, np.uint64)``.

    ``parent`` is a fresh ``SeedSequence(seed)``. A child's entropy is the
    seed's words padded with zeros to the pool size, then the child's index.
    The common words mix to the parent's own pool (its fill hashes a missing
    word as a 0), and hash constants depend only on a word's place: so only
    the index word and the 8 output words are hashed here, for all b
    children at once.
    """
    # here, not at module level: importing countfit leaves numpy.random unloaded
    from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array
    ISeedSequence.register(_SeedWords)
    size = parent.pool_size
    common = max(len(_coerce_to_uint32_array(parent.entropy)), size)
    index = np.arange(b, dtype=np.uint64)[:, None]
    hashed = _hash(index, _INIT_A, _MULT_A, size * common, size)  # size per common word
    pool = (_MIX_L * parent.pool.astype(np.uint64) - _MIX_R * hashed) & _MASK32
    pool ^= pool >> 16
    state = _hash(pool[:, np.arange(8) % size], _INIT_B, _MULT_B, 0, 8)
    # little-endian pairs, as generate_state gives them; C order for PCG64
    return np.ascontiguousarray(state[:, 0::2] | state[:, 1::2] << 32)


class _SeedWords:
    """``PCG64(_SeedWords(row))`` is seeded by ``row``; an ISeedSequence once registered."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words  # PCG64 asks for its 4 uint64 words


def sample(model: CountModel, n: int, seed) -> np.ndarray:
    """Draw n counts from the model, deterministically in the seed."""
    _check_size(n)
    return _sampler(model, n).values(_seeded(np.random.default_rng, seed))


@dataclass(frozen=True)
class RecoveryReport:  # field order is the order of the `recover` report's keys
    true_model: CountModel
    n: int
    replicates: int
    seed: int
    true_params: dict[str, float]
    estimates: dict[str, dict[str, float]]  # method -> mean parameter values
    abs_error: dict[str, dict[str, float]]  # method -> mean |estimate - true|
    solver_failures: int


def _tally_replicates(rows, b: int, n: int) -> np.ndarray | None:
    """The (b, L) frequency table of b replicates of n values, L = 1 + largest count.

    ``rows`` yields each replicate's frequency row as it is drawn. None at a
    None row or at one too wide for the size rule of `summarize` (b*L cells
    against b*n values), so memory stays O(n + b*L).
    """
    kept = []
    for row in rows:
        if row is None or not _table_fits(b * row.size, b * n):
            return None
        kept.append(row)
    table = np.zeros((b, max(row.size for row in kept)), dtype=np.int64)
    for out, row in zip(table, kept):
        out[: row.size] = row
    return table


def _fit_replicates(draw: _Draw, rngs, b: int, n: int, family: Family) -> dict:
    """method -> (parameter arrays by name, success mask) over b replicates of n values.

    ``rngs()`` yields the replicates' generators afresh on each call. Their
    rows are fitted as one table by the family's row fitters, or their
    values one by one by its scalar fitters where that table is too large.
    """
    table = _tally_replicates(map(draw.row, rngs()), b, n)
    if table is not None:
        stats = _summarize_rows(table)
        fits = {meth: rows(table, *stats) for meth, (_, rows) in family.fits.items()}
    else:
        failed = (np.nan,) * family.n_params
        found: dict[str, list] = {meth: [] for meth in family.fits}
        for values in map(draw.values, rngs()):
            s = summarize(values)
            for meth, (fit_fn, _) in family.fits.items():
                try:
                    found[meth].append(family.values(fit_fn(s).model))
                except CountFitError:
                    found[meth].append(None)
        fits = {
            meth: (
                np.array([failed if f is None else f for f in per]).T,
                np.array([f is not None for f in per]),
            )
            for meth, per in found.items()
        }
    return {meth: (dict(zip(family.names, cols)), ok) for meth, (cols, ok) in fits.items()}


def _mean_in_order(values: np.ndarray) -> float:
    """The mean, summed in replicate order."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total / values.size


def recovery_experiment(
    true_model: CountModel, n: int, replicates: int, seed: int
) -> RecoveryReport:
    """Sample-and-refit experiment measuring estimator error.

    Replicate i draws n counts with ``sample(true_model, n, child_i)``,
    child_i being the i-th stream spawned from ``SeedSequence(seed)``, so
    the results do not depend on how the replicates are fitted (the module
    docstring says how). The report gives, for each estimator of the true
    model's family, the mean estimates and mean absolute errors over the
    replicates it fitted; ``solver_failures`` counts the failed fits of all
    estimators, which are not raised.
    """
    _check_size(n, replicates)
    family = family_of(true_model)
    truth = family.params(true_model)
    words = _child_seed_words(_seeded(np.random.SeedSequence, seed), replicates)
    fits = _fit_replicates(
        _sampler(true_model, n),
        lambda: (np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words),
        replicates,
        n,
        family,
    )
    estimates, abs_error, failures = {}, {}, 0
    for meth, (params, ok) in fits.items():
        failures += int(np.count_nonzero(~ok))
        if ok.any():
            estimates[meth] = {k: _mean_in_order(params[k][ok]) for k in truth}
            abs_error[meth] = {
                k: _mean_in_order(np.abs(params[k][ok] - v)) for k, v in truth.items()
            }
    return RecoveryReport(
        true_model=true_model,
        n=n,
        replicates=replicates,
        seed=seed,
        true_params=truth,
        estimates=estimates,
        abs_error=abs_error,
        solver_failures=failures,
    )
