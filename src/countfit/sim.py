"""Sampling and recovery experiments.

Random streams come from numpy's default PCG64 generator seeded through
SeedSequence, so identical (model, n, seed) inputs reproduce the exact
same counts on any platform. How counts are drawn is the model class's
law in `dist`: ``model._sampler(n)``, made once per model and n, so that
``sample(model, n, seed)`` draws what a recovery replicate does.

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
`summarize` the rows are the replicates' `summarize`d samples instead,
drawn again one at a time for each pass over them, so memory stays
O(n + replicates*L) or O(n + replicates).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist import CountModel, _Draw, _require_model, _table_fits
from .errors import CountFitError
from .estimate import Family, _summarize_rows, family_of, summarize

__all__ = ["sample", "recovery_experiment", "RecoveryReport"]

# the most values one call may draw, summed over its replicates
MAX_VALUES = 10**9


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
    draw = _require_model(model, "cannot sample model")._sampler(n)
    return draw.values(_seeded(np.random.default_rng, seed))


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

    ``rngs()`` yields the replicates' generators afresh on each call. The
    family's row fitters fit the replicates' rows at once: their frequency
    table, or where that table is too large a callable that draws and
    `summarize`s the replicates again one at a time, so that no more than
    one replicate's sample is held at once.
    """
    rows = _tally_replicates(map(draw.row, rngs()), b, n)
    if rows is not None:
        stats = _summarize_rows(rows)
    else:
        def rows():
            return map(summarize, map(draw.values, rngs()))

        stats = n, *map(np.array, zip(*((s.n0, s.mean, s.var) for s in rows())))
    fits = {meth: fit(rows, *stats) for meth, (_, fit) in family.fits.items()}
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
        true_model._sampler(n),
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
