"""The CLI's exit-code contract under random input: exit 0, 2, 3 or 4, never a traceback.

Random CSV bytes, model spec strings and small --n/--reps/--seed go through
`cli.main` in-process, and the CSV and spec parsers are called directly:
each returns, or refuses with a CountFitError. The searches are
derandomized, so every run tries the same inputs. Spec values come from a
list of edge values and a moderate float range: a random mean near the 1e7
table cap would build tables of that size and cost seconds per command.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from countfit.cli import main, parse_model_spec, read_frequency_file
from countfit.dist import CountModel
from countfit.errors import CountFitError
from countfit.estimate import FAMILY_TABLE, FrequencySample

FAMILIES = list(FAMILY_TABLE)
EXIT_CODES = {0, 2, 3, 4}

_VALUE = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "0.5", "1e-17", "1e-300", "1e300", "nan", "inf", "-inf", "", "x", "1,2"]
    ),
    st.floats(-2.0, 50.0).map(repr),
)
_KEY = st.one_of(st.sampled_from(["p", "k", "m", "pi", "mean", ""]), st.text(max_size=3))


@st.composite
def _specs(draw) -> str:
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(max_size=30))
    family = draw(st.sampled_from(FAMILIES + ["", "NB", "nb2"]))
    if family in FAMILY_TABLE and draw(st.booleans()):
        keys = list(FAMILY_TABLE[family].names)
        if family == "nb" and draw(st.booleans()):
            keys = ["m", "k"]
        keys = draw(st.permutations(keys))
    else:
        keys = draw(st.lists(_KEY, max_size=4))
    return f"{family}:" + ",".join(f"{k}={draw(_VALUE)}" for k in keys)


_COUNT = st.one_of(st.integers(0, 40), st.sampled_from([10**6, 10**12, 2**63 - 1, 2**64]))
_CELL = st.one_of(
    st.integers(0, 200).map(str),
    st.sampled_from(["", "x", "-3", "1.5", "+4", "1_0", " 7", "٣", "99999999999999999999"]),
)


@st.composite
def _csv_bytes(draw) -> bytes:
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=80))
    head = draw(st.sampled_from(["count,frequency\n", "", "# note\n", "﻿count,frequency\n"]))
    rows = [f"{c},{draw(_CELL)}" for c in sorted(draw(st.sets(_COUNT, max_size=8)))]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.text(max_size=12)))
    return (head + "\n".join(rows)).encode("utf-8", "surrogatepass")


@st.composite
def _commands(draw, csv_path: str) -> list[str]:
    command = draw(st.sampled_from(["fit", "compare", "figure", "simulate", "recover"]))
    if command == "fit":
        argv = [command, csv_path, "--model", draw(st.sampled_from(FAMILIES + ["zip"]))]
        if draw(st.booleans()):
            argv += ["--pool-threshold", draw(st.sampled_from(["1", "5", "0", "-1", "nan"]))]
        return argv
    if command in ("compare", "figure"):
        models = draw(st.lists(st.sampled_from(FAMILIES), min_size=1, max_size=5))
        return [command, csv_path, "--models", *models]
    small = st.one_of(st.integers(1, 60).map(str), st.sampled_from(["0", "-1", "x", "2.5"]))
    argv = [command, "--model", draw(_specs()), "--n", draw(small)]
    if command == "recover":
        argv += ["--reps", draw(st.one_of(st.integers(1, 4).map(str), st.just("0")))]
    seed = st.one_of(st.integers(0, 2**32 - 1).map(str), st.sampled_from(["-1", "x"]))
    return argv + ["--seed", draw(seed)]


def _run(argv: list[str]) -> tuple[object, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue()


@given(data=st.data(), raw=_csv_bytes())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_main_exits_0_2_3_or_4_without_a_traceback(data, raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(raw)
    argv = data.draw(_commands(str(path)))
    code, err = _run(argv)
    assert code in EXIT_CODES, (argv, raw, err)
    assert "Traceback" not in err, (argv, raw, err)


@given(raw=_csv_bytes())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_read_frequency_file_reads_a_sample_or_refuses(raw, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_bytes(raw)
    try:
        s, digest = read_frequency_file(str(path))
    except CountFitError:
        return
    assert isinstance(s, FrequencySample) and s.n >= 1 and len(digest) == 64


@given(spec=_specs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_parse_model_spec_builds_a_model_or_refuses(spec):
    try:
        model = parse_model_spec(spec)
    except CountFitError:
        return
    assert isinstance(model, CountModel)
