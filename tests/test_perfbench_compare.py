"""compare_models on random histograms, checked by the benchmark's oracles.

The histograms go through perfbench's own wide-tail job, `canonical` and
`run.check_item`, whose numpy/scipy.stats checks rebuild every GOF bin from
its label. So a compare report the benchmark would count as a wrong output
fails here first.
"""

import sys
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

# a zero cell in every gapped histogram: a zero-free one puts ZIG on its
# floor, where the oracle's log(pi + (1 - pi) p) is roundoff
gapped = st.dictionaries(
    st.integers(1, 300), st.integers(1, 400), min_size=1, max_size=40
).flatmap(lambda freq: st.integers(1, 400).map(lambda f0: {0: f0, **freq}))

SPECS = (
    ("nb", 3.39, 500.0),  # near-Poisson: some draws are under-dispersed
    ("nb", 3.39, 50.0),
    ("nb", 50.0, 0.4),  # wide tails, as in the wide-tail workload
    ("nb", 200.0, 0.8),
    ("geom", 20.0),
    ("zig", 0.3, 0.02),
    ("zig", -0.0256, 0.3109),
)
drawn = st.builds(
    lambda seed, n, spec: inputs.frequency_map(inputs.draws(np.random.default_rng(seed), n, spec)),
    st.integers(0, 2**32 - 1),
    st.sampled_from([30, 500, 20_000]),
    st.sampled_from(SPECS),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(gapped, drawn), min_size=1, max_size=3))
# zero-free: ZIG's floor pi = -p/(1-p) would give P(0) = -5.6e-17 here
@example([{1: 4, 2: 4, 3: 9, 4: 5, 5: 5, 6: 2, 8: 1}])
def test_compare_reports_pass_the_benchmark_oracles(maps):
    jobs = worker.Jobs("wide-tail", [maps], None)
    text = worker.canonical("wide-tail", jobs.run(0))
    run.check_item("wide-tail", maps, text, None)
