import collections
import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from countfit import cli
from countfit.cli import main, parse_model_spec, read_frequency_file
from countfit.dist import NegBinomial, ZeroInflated
from countfit.errors import InputFormatError

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def zig_fixture(tmp_path):
    path = tmp_path / "zig.csv"
    path.write_text(
        "# synthetic ZIG-like histogram\n"
        "count,frequency\n0,50\n1,25\n2,12\n3,7\n4,3\n5,2\n6,1\n"
    )
    return str(path)


@pytest.fixture
def even_fixture(tmp_path):
    path = tmp_path / "even.csv"
    path.write_text("count,frequency\n0,50\n1,50\n")
    return str(path)


def test_read_frequency_file(zig_fixture):
    s, digest = read_frequency_file(zig_fixture)
    assert s.n == 100
    assert s.n0 == 50
    assert len(digest) == 64


def test_read_frequency_file_rejects_disorder(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("count,frequency\n2,5\n1,3\n")
    with pytest.raises(InputFormatError):
        read_frequency_file(str(path))
    path.write_text("count,frequency\n1,5\n1,3\n")
    with pytest.raises(InputFormatError):
        read_frequency_file(str(path))
    path.write_text("count,frequency\nx,5\n")
    with pytest.raises(InputFormatError):
        read_frequency_file(str(path))


@pytest.mark.parametrize(
    "row, message",
    [
        ("1_0,5", "non-integer row"),  # int() read 10
        ("\u0663,5", "non-integer row"),  # an Arabic-Indic 3
        ("+4,5", "non-integer row"),
        ("4,+5", "non-integer row"),
        ("4, 5 6", "non-integer row"),
        ("4.0,5", "non-integer row"),
        ("-4,5", "negative value in row"),
        ("4,-5", "negative value in row"),
        # past Python's 4,300-digit limit int() raises ValueError
        pytest.param("1" + "0" * 4999 + ",5", "non-integer row", id="5000-digit-count"),
    ],
)
def test_rows_take_ascii_digits_only(row, message, tmp_path, capsys):
    path = tmp_path / "digits.csv"
    path.write_text(f"count,frequency\n0,3\n{row}\n", encoding="utf-8")
    assert main(["fit", str(path), "--model", "geom"]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_a_header_with_extra_columns_is_a_malformed_row(tmp_path, capsys):
    # only the exact header row is skipped
    path = tmp_path / "weighted.csv"
    path.write_text("count,frequency,weight\n0,3\n1,2\n")
    assert main(["fit", str(path), "--model", "geom"]) == 3
    assert "malformed row 'count,frequency,weight'" in capsys.readouterr().err


def test_csv_with_no_positive_frequency_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    path.write_text("count,frequency\n0,0\n3,0\n")
    assert main(["fit", str(path), "--model", "geom"]) == 3
    assert "no positive frequencies" in capsys.readouterr().err


def test_parse_model_spec():
    m = parse_model_spec("zig:pi=0.3,p=0.4")
    assert isinstance(m, ZeroInflated)
    nb = parse_model_spec("nb:m=2.5,k=0.6")
    assert isinstance(nb, NegBinomial)
    assert nb.p == pytest.approx(0.6 / 3.1)
    with pytest.raises(InputFormatError):
        parse_model_spec("weibull:a=1")
    with pytest.raises(InputFormatError):
        parse_model_spec("zig:pi=0.3")


def test_fit_zig_even_split(tmp_path):
    path = tmp_path / "mean1.csv"
    path.write_text("count,frequency\n0,50\n2,50\n")
    out = tmp_path / "fit.json"
    code = main(["fit", str(path), "--model", "zig", "--out", str(out), "--quiet"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["model"]["params"]["pi"] == pytest.approx(0.0, abs=1e-12)
    assert doc["model"]["params"]["p"] == pytest.approx(0.5)
    assert doc["sample"] == {"n": 100, "n0": 50, "mean": 1.0, "var": 1.0}


def test_fit_underdispersed_nb_error_block(even_fixture, tmp_path):
    out = tmp_path / "fit.json"
    code = main(["fit", even_fixture, "--model", "nb", "--out", str(out), "--quiet"])
    assert code == 4
    doc = json.loads(out.read_text())
    assert doc["error"]["family"] == "nb"
    assert "variance" in doc["error"]["message"]


def test_fit_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("count,frequency\nnope\n")
    assert main(["fit", str(path), "--model", "zig"]) == 3
    assert main(["fit", str(tmp_path / "absent.csv"), "--model", "zig"]) == 3


def test_non_utf8_csv_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"count,frequency\n0,50\n1,25\n# caf\xe9 \xff\xfe\n")
    with pytest.raises(InputFormatError):
        read_frequency_file(str(path))
    assert main(["fit", str(path), "--model", "zig"]) == 3
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["count,frequency\n", ""])
def test_utf8_bom_csv_reads_like_the_plain_file(tmp_path, header):
    # spreadsheet "CSV UTF-8" exports begin with the byte-order mark EF BB BF
    text = header + "0,50\n1,25\n2,12\n3,7\n4,3\n5,2\n6,1\n"
    docs = []
    for name, raw in [("plain.csv", text.encode()), ("bom.csv", b"\xef\xbb\xbf" + text.encode())]:
        path, out = tmp_path / name, tmp_path / f"{name}.json"
        path.write_bytes(raw)
        assert main(["fit", str(path), "--model", "geom", "--out", str(out), "--quiet"]) == 0
        docs.append(json.loads(out.read_text()))
        # the digest stays that of the raw bytes, mark included
        assert read_frequency_file(str(path))[1] == hashlib.sha256(raw).hexdigest()
    plain, bom = docs
    assert bom["sample"] == plain["sample"] and bom["model"] == plain["model"]


def test_usage_error_exit_code(zig_fixture):
    with pytest.raises(SystemExit) as exc:
        main(["compare", zig_fixture, "--models"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "{csv}", "--model", "zig", "--pool-threshold", "-1"],
        ["compare", "{csv}", "--models", "zig", "nb", "--pool-threshold", "-1"],
        ["simulate", "--model", "geom:p=0.5", "--n", "0"],
        ["recover", "--model", "geom:p=0.5", "--n", "0"],
        ["recover", "--model", "geom:p=0.5", "--n", "100", "--reps", "0"],
    ],
    ids=["fit-pool", "compare-pool", "simulate-n", "recover-n", "recover-reps"],
)
def test_out_of_range_options_are_usage_errors(argv, zig_fixture, capsys):
    with pytest.raises(SystemExit) as exc:
        main([zig_fixture if a == "{csv}" else a for a in argv])
    assert exc.value.code == 2
    assert "must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "recover"])
def test_negative_seed_is_a_usage_error(command, capsys):
    # numpy's SeedSequence refused it with a ValueError traceback (exit 1)
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "geom:p=0.5", "--n", "10", "--seed", "-1"])
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", ["zig:pi=0.3,p=0.4,bogus=1", "zig:pi=0.3,p=0.4,pi=0.5", "nb:m=2,p=0.5,k=1"]
)
def test_model_spec_rejects_unknown_and_repeated_keys(spec, capsys):
    with pytest.raises(InputFormatError):
        parse_model_spec(spec)
    assert main(["simulate", "--model", spec, "--n", "10"]) == 3
    assert "exactly once" in capsys.readouterr().err


def test_simulate_huge_poisson_mean_is_an_estimator_error(capsys):
    assert main(["simulate", "--model", "poisson:m=1e300", "--n", "10"]) == 4
    assert "Poisson mean" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["nb:m=0,k=0", "nb:m=-1,k=1"])
def test_nb_mean_spelling_with_no_p_is_an_estimator_error(spec, capsys):
    # p = k/(m + k) has no value at m = -k; it once raised ZeroDivisionError
    assert main(["simulate", "--model", spec, "--n", "10"]) == 4
    assert "p must be in (0, 1]" in capsys.readouterr().err


def test_compare_zig_hg_equal_aic(zig_fixture, tmp_path):
    out = tmp_path / "cmp.json"
    code = main(
        ["compare", zig_fixture, "--models", "zig", "hg", "--out", str(out), "--quiet"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    aics = {b["family"]: b["aic"] for b in doc["models"]}
    assert aics["zig"] == pytest.approx(aics["hg"], abs=1e-9)
    assert doc["notes"]


def test_compare_includes_gof_df(zig_fixture, tmp_path):
    out = tmp_path / "cmp.json"
    main(["compare", zig_fixture, "--models", "nb", "zig", "--out", str(out), "--quiet"])
    doc = json.loads(out.read_text())
    for block in doc["models"]:
        if "gof" in block and block["gof"]:
            assert block["gof"]["df"] == len(block["gof"]["bins"]) - 1 - 2


def test_figure_output(zig_fixture, tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code = main(["figure", zig_fixture, "--models", "zig", "geom", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "count,observed,expected_zig,expected_geom"
    assert lines[-1].startswith("tail+,0,")
    rows = [l.split(",") for l in lines[1:]]
    observed_total = sum(int(r[1]) for r in rows)
    assert observed_total == 100
    for col in (2, 3):
        assert sum(float(r[col]) for r in rows) == pytest.approx(100.0, abs=1e-6)


def test_figure_csv_bytes_for_a_gapped_sample(tmp_path):
    # recorded before the figure table moved onto the shared cell arrays;
    # the gaps (3, 6, 8-10, 13-18) are rows with observed 0
    data = DATA / "figure_gapped.csv"
    out = tmp_path / "fig.csv"
    models = ["nb", "zig", "hg", "geom", "poisson"]
    assert main(["figure", str(data), "--models", *models, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "figure_gapped_expected.csv").read_bytes()


def test_simulate_degenerate(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--model", "geom:p=1.0", "--n", "10", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "count,frequency\n0,10\n"


def test_simulate_bound_error():
    assert main(["simulate", "--model", "zig:pi=-5,p=0.4", "--n", "10"]) == 4


def test_simulate_past_the_value_cap_is_an_estimator_error(capsys):
    assert main(["simulate", "--model", "geom:p=0.5", "--n", "100000000000"]) == 4
    assert "cap is 1000000000" in capsys.readouterr().err


def test_memory_error_is_an_estimator_error(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "cmd_simulate", exhausted)
    assert main(["simulate", "--model", "geom:p=0.5", "--n", "10"]) == 4
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 745. GiB\n"


def test_simulate_fit_round_trip(tmp_path):
    sim_out = tmp_path / "sim.csv"
    main(
        [
            "simulate",
            "--model",
            "zig:pi=0.3,p=0.4",
            "--n",
            "5000",
            "--seed",
            "12",
            "--out",
            str(sim_out),
        ]
    )
    s, _ = read_frequency_file(str(sim_out))
    assert s.n == 5000
    from countfit.sim import sample
    from countfit.dist import Geometric

    draws = sample(ZeroInflated(pi=0.3, base=Geometric(p=0.4)), 5000, 12)
    assert dict(s.freq) == dict(collections.Counter(draws.tolist()))


@pytest.mark.parametrize(
    "spec",
    ["zig:pi=0.3653,p=0.3843", "zig:pi=-0.0256,p=0.3109", "hg:pi=0.4,p=0.2", "nb:m=4.6102,k=0.6193"],
)
def test_simulate_csv_matches_counter_histogram(spec, tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--model", spec, "--n", "20000", "--seed", "7", "--out", str(out)]) == 0
    from countfit.sim import sample

    hist = collections.Counter(int(c) for c in sample(parse_model_spec(spec), 20000, 7))
    lines = ["count,frequency"] + [f"{y},{hist[y]}" for y in sorted(hist)]
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_compare_out_without_quiet_prints_the_best_family(zig_fixture, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    assert main(["compare", zig_fixture, "--models", "geom", "zig", "--out", str(out)]) == 0
    best = json.loads(out.read_text())["best_aic_model"]
    assert capsys.readouterr().out == f"best by AIC: {best}\n"


def test_outputs_byte_identical(zig_fixture, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["compare", zig_fixture, "--models", "zig", "nb", "--out", str(out), "--quiet"])
    assert a.read_bytes() == b.read_bytes()


def test_recover_command(tmp_path):
    out = tmp_path / "rec.json"
    code = main(
        [
            "recover",
            "--model",
            "nb:m=2.5,k=0.6",
            "--n",
            "2000",
            "--reps",
            "3",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["replicates"] == 3
    assert "mle" in doc["estimates"]
    assert "k" in doc["estimates"]["mle"]


def test_fit_stdout_when_no_out(even_fixture, capsys):
    assert main(["fit", even_fixture, "--model", "geom"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["model"]["params"]["p"] == pytest.approx(1.0 / 1.5)


@pytest.mark.parametrize("command", ["simulate", "recover"])
def test_tiny_geometric_p_is_an_estimator_error(command, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's int64 cast warning would raise
        assert main([command, "--model", "geom:p=1e-300", "--n", "5"]) == 4
    assert "p=1e-300" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["hg:pi=5e-324,p=5e-324", "zig:pi=-1e-300,p=1e-300"])
def test_inverse_cdf_table_past_the_cap_is_refused_up_front(spec, capsys):
    # the table would need ln(1e-12)/ln(1-p) counts; building ever larger
    # ones up to the cap took seconds and hundreds of MB before giving up
    start = time.perf_counter()
    assert main(["recover", "--model", spec, "--n", "5", "--reps", "2"]) == 4
    assert time.perf_counter() - start < 0.5
    assert "inverse CDF" in capsys.readouterr().err


@pytest.fixture
def huge_count_csv(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("count,frequency\n0,5\n1000000000000,1\n")
    return str(path)


def test_gof_cells_past_the_size_rule_are_skipped(huge_count_csv, tmp_path, capsys):
    out = tmp_path / "fit.json"
    quiet = ["--out", str(out), "--quiet"]
    assert main(["fit", huge_count_csv, "--model", "nb", *quiet]) == 0
    assert json.loads(out.read_text())["model"]["gof"] is None
    families = ["nb", "zig", "hg", "geom", "poisson"]
    assert main(["compare", huge_count_csv, "--models", *families, *quiet]) == 0
    models = json.loads(out.read_text())["models"]
    assert [m["family"] for m in models] == families
    assert all(m["gof"] is None for m in models)
    assert main(["figure", huge_count_csv, "--models", "nb", "geom"]) == 4
    err = capsys.readouterr().err
    assert "largest count 1000000000000" in err and "n=6" in err


def test_figure_all_zero_sample_is_an_estimator_error(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    path.write_text("count,frequency\n0,5\n")
    assert main(["figure", str(path), "--models", "geom", "poisson"]) == 4
    assert "all observations are zero" in capsys.readouterr().err


_EDGE_SCRIPT = r"""
import sys

from countfit.cli import main

csv, out = sys.argv[1:]
families = ["nb", "zig", "hg", "geom", "poisson"]
runs = [["fit", csv, "--model", f] for f in families] + [
    ["compare", csv, "--models", *families],
    ["figure", csv, "--models", *families],
]
for argv in runs:
    print(main([*argv, "--out", out, "--quiet"]), flush=True)
"""


@pytest.mark.parametrize(
    "row", ["9223372036854775807,9223372036854775807", "4000000000000000000,3000000000000000000"]
)
def test_counts_and_frequencies_near_int64_keep_the_exit_code_contract(row, tmp_path):
    # dense tables over 0..largest count were sized by n alone: the NB score's
    # bincount corrupted the heap (exit 134), the GOF cells raised numpy's
    # ValueError (exit 1)
    csv = tmp_path / "edge.csv"
    csv.write_text(f"count,frequency\n0,3\n{row}\n")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _EDGE_SCRIPT, str(csv), str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    codes = [int(line) for line in proc.stdout.split()]
    assert len(codes) == 7 and set(codes) <= {0, 2, 3, 4}
