"""Command-line front end: fit, compare, figure, simulate, recover.

Exit codes are stable: 0 success, 2 usage error, 3 input parse error,
4 estimator failure. All numeric output uses Python's shortest
round-trip float representation, so identical inputs yield byte-identical
reports. The families, their spec keys, report parameters and fitters all
come from `estimate.FAMILY_TABLE`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .dist import CountModel
from .errors import CountFitError, EstimationError, InputFormatError
from .estimate import FAMILY_TABLE, FrequencySample, summarize
from .gof import (
    FAMILIES, GofResult, ModelEntry, _cells, _tested_fit, compare_models, expected_counts
)
from .sim import recovery_experiment, sample

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ESTIMATOR = 4

SCHEMA_VERSION = 1


def read_frequency_file(path: str) -> tuple[FrequencySample, str]:
    """Parse a frequency CSV; returns the sample and the file's sha256."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    freq: dict[int, int] = {}
    last = -1
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports begin with
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    rows = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    for i, line in enumerate(rows):
        parts = [c.strip() for c in line.split(",")]
        if i == 0 and parts == ["count", "frequency"]:
            continue
        if len(parts) != 2:
            raise InputFormatError(f"{path}: malformed row {line!r}")
        # int() would also take "+4", "1_0" and digits of other scripts
        if not all(c.isascii() and c.removeprefix("-").isdigit() for c in parts):
            raise InputFormatError(f"{path}: non-integer row {line!r}")
        try:
            count, frequency = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InputFormatError(f"{path}: non-integer row {line!r}") from exc
        if count < 0 or frequency < 0:
            raise InputFormatError(f"{path}: negative value in row {line!r}")
        if count <= last:
            raise InputFormatError(
                f"{path}: counts must be strictly increasing (row {line!r})"
            )
        last = count
        if frequency > 0:
            freq[count] = frequency
    if not freq:
        raise InputFormatError(f"{path}: no positive frequencies")
    return summarize(freq), digest


def parse_model_spec(spec: str) -> CountModel:
    """Parse a "family:key=val,..." model spec, e.g. "zig:pi=0.3,p=0.4".

    Each of the family's keys must appear exactly once and no other key may;
    nb takes either p,k or m,k.
    """
    name, _, body = spec.partition(":")
    try:
        pairs = [item.split("=") for item in body.split(",") if item]
        params = {k.strip(): float(v) for k, v in pairs}
    except ValueError as exc:
        raise InputFormatError(f"malformed model spec {spec!r}") from exc
    if name not in FAMILY_TABLE:
        raise InputFormatError(
            f"unknown family {name!r}; choose from {', '.join(FAMILIES)}"
        )
    family = FAMILY_TABLE[name]
    by_mean = name == "nb" and "m" in params  # nb's second spelling: p = k/(m + k)
    keys = ("m", "k") if by_mean else family.names
    if len(pairs) != len(keys) or params.keys() != set(keys):
        raise InputFormatError(
            f"model spec {spec!r} must give each of {', '.join(keys)} exactly once"
        )
    if by_mean:  # m = -k gives no p: nan, which the family refuses like any bad p
        m, k = params.pop("m"), params["k"]
        params["p"] = k / (m + k) if m + k else math.nan
    return family.build(*(params[k] for k in family.names))


def _gof_dict(gof: GofResult | None) -> dict | None:
    if gof is None:
        return None
    return {
        "chi2": gof.chi2,
        "df": gof.df,
        "p_value": gof.p_value,
        "pooling_threshold": gof.pooling_threshold,
        "bins": [b._asdict() for b in gof.bins],
    }


def _emit(text: str, out: str | None) -> None:
    """Write text to the ``--out`` path, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_json(doc: dict, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2) + "\n", out)


def _model_block(entry: ModelEntry) -> dict:
    fit = entry.fit
    if fit is None:
        return {"family": entry.family, "error": entry.error}
    return {
        "family": entry.family,
        "params": FAMILY_TABLE[entry.family].params(fit.model),
        "loglik": fit.loglik,
        "aic": fit.aic,
        "n_params": fit.n_params,
        "solver": dataclasses.asdict(fit.solver),
        "gof": _gof_dict(entry.gof),
    }


def _report(**blocks) -> dict:
    """A JSON report: the schema and tool versions, then the given blocks in order."""
    return {"schema_version": SCHEMA_VERSION, "tool_version": __version__, **blocks}


def _begin_report(path: str) -> tuple[FrequencySample, dict]:
    """The sample of a frequency CSV, and a report begun with its digest and summary."""
    s, digest = read_frequency_file(path)
    summary = {"n": s.n, "n0": s.n0, "mean": s.mean, "var": s.var}
    return s, _report(input_sha256=digest, sample=summary)


def cmd_fit(args) -> int:
    s, doc = _begin_report(args.data)
    entry = _tested_fit(args.model, s, None, args.pool_threshold)
    if entry.fit is None:
        doc["error"] = {"family": args.model, "message": entry.error}
        _write_json(doc, args.out)
        return EXIT_ESTIMATOR
    doc["model"] = _model_block(entry)
    _write_json(doc, args.out)
    if not args.quiet and args.out:
        params = ", ".join(f"{k}={v:.4f}" for k, v in doc["model"]["params"].items())
        print(f"{args.model}: {params}  aic={entry.fit.aic:.4f}")
    return EXIT_OK


def cmd_compare(args) -> int:
    s, doc = _begin_report(args.data)
    try:
        report = compare_models(s, args.models, args.pool_threshold)
    except EstimationError as exc:
        doc["error"] = {"message": str(exc)}
        _write_json(doc, args.out)
        return EXIT_ESTIMATOR
    doc["models"] = [_model_block(e) for e in report.entries]
    doc["best_aic_model"] = report.best_aic_model
    doc["notes"] = list(report.notes)
    _write_json(doc, args.out)
    if not args.quiet and args.out:
        print(f"best by AIC: {report.best_aic_model}")
    return EXIT_OK


def cmd_figure(args) -> int:
    s, _ = read_frequency_file(args.data)
    observed = _cells(s).freqs.tolist()  # counts 0..largest, then a tail cell of 0
    largest = len(observed) - 2
    expected = [
        expected_counts(FAMILY_TABLE[f].mle(s).model, s.n, largest) for f in args.models
    ]
    labels = [*map(str, range(largest + 1)), "tail+"]
    lines = [",".join(["count", "observed"] + [f"expected_{f}" for f in args.models])]
    lines += [
        ",".join([label, str(o), *map(repr, cells)])
        for label, o, *cells in zip(labels, observed, *expected)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = parse_model_spec(args.model)
    s = summarize(sample(model, args.n, args.seed))
    rows = zip(s.counts.tolist(), s.freqs.tolist())
    lines = ["count,frequency"] + [f"{y},{f}" for y, f in rows]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_recover(args) -> int:
    model = parse_model_spec(args.model)
    report = recovery_experiment(model, args.n, args.reps, args.seed)
    body = dataclasses.asdict(report)
    body["true_model"] = {"spec": args.model, "params": body.pop("true_params")}
    _write_json(_report(**body), args.out)
    return EXIT_OK


def _number(kind, allow_zero: bool = False):
    """argparse type: a number of the given kind, finite and > 0 (>= 0 with allow_zero)."""

    def parse(text: str):
        value = kind(text)  # argparse reports a ValueError as an invalid value
        above_zero = value >= 0 if allow_zero else value > 0
        if not (above_zero and value < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be {'>=' if allow_zero else '>'} 0, got {text}"
            )
        return value

    parse.__name__ = kind.__name__  # names the kind in argparse's message
    return parse


def build_parser() -> argparse.ArgumentParser:
    grammar = ", ".join(f"{f.name} ({','.join(f.names)})" for f in FAMILY_TABLE.values())
    parser = argparse.ArgumentParser(
        prog="countfit",
        description=(
            "Fit over-dispersed count distributions to frequency data. "
            "Model specs use the grammar family:key=val,... with families "
            f"{grammar}; nb also takes m,k."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress summary line")

    p = sub.add_parser("fit", help="fit one family to a frequency CSV")
    p.add_argument("data", help="frequency CSV (count,frequency)")
    p.add_argument("--model", required=True, choices=FAMILIES)
    p.add_argument("--pool-threshold", type=_number(float), default=1.0)
    add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", help="fit several families and rank by AIC")
    p.add_argument("data")
    p.add_argument("--models", required=True, nargs="+", choices=FAMILIES)
    p.add_argument("--pool-threshold", type=_number(float), default=1.0)
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("figure", help="emit observed-vs-expected CSV")
    p.add_argument("data")
    p.add_argument("--models", required=True, nargs="+", choices=FAMILIES)
    add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("simulate", help="sample a model into a frequency CSV")
    p.add_argument("--model", required=True, help='spec, e.g. "zig:pi=0.3,p=0.4"')
    p.add_argument("--n", type=_number(int), required=True)
    p.add_argument("--seed", type=_number(int, allow_zero=True), default=0)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("recover", help="parameter-recovery experiment")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_number(int), required=True)
    p.add_argument("--reps", type=_number(int), default=20)
    p.add_argument("--seed", type=_number(int, allow_zero=True), default=0)
    add_common(p)
    p.set_defaults(func=cmd_recover)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CountFitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATOR
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_ESTIMATOR


if __name__ == "__main__":
    sys.exit(main())
