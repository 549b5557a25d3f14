"""Independent checks of countfit's outputs, written with numpy and scipy.stats.

Nothing here calls countfit. Every check raises OracleError on a mismatch.
Reports are dicts in the shape of the CLI's JSON report (``sample``,
``models``, ``best_aic_model``); in-process results are converted to that
shape by worker.compare_doc.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

REL = 1e-9
# Profile-likelihood step for the NB shape, and the slack allowed for
# roundoff in a sum of scipy log-pmfs (relative to |loglik|).
PROFILE_STEP = 1e-3
PROFILE_SLACK = 1e-9
N_PARAMS = {"nb": 2, "zig": 2, "hg": 2, "geom": 1, "poisson": 1}


class OracleError(AssertionError):
    pass


def check_close(what: str, got, want, rel: float = REL, abs_tol: float = 0.0) -> None:
    if got is None or not math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol):
        raise OracleError(f"{what}: got {got!r}, oracle {want!r}")


def histogram(values) -> tuple[np.ndarray, np.ndarray]:
    """Distinct counts and their frequencies, by np.bincount."""
    bc = np.bincount(np.asarray(values, dtype=np.int64))
    ys = np.flatnonzero(bc)
    return ys, bc[ys].astype(np.float64)


def histogram_from_map(freq: dict) -> tuple[np.ndarray, np.ndarray]:
    ys = np.array(sorted(y for y, f in freq.items() if f), dtype=np.int64)
    return ys, np.array([freq[y] for y in ys.tolist()], dtype=np.float64)


def parse_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """count,frequency rows (header first) -> histogram; checks the format."""
    lines = text.splitlines()
    if not lines or lines[0] != "count,frequency":
        raise OracleError("frequency CSV lacks its header")
    rows = np.array([[int(c) for c in line.split(",")] for line in lines[1:]], dtype=np.int64)
    if rows.size == 0:
        raise OracleError("frequency CSV has no rows")
    ys, fs = rows[:, 0], rows[:, 1]
    if np.any(np.diff(ys) <= 0) or ys[0] < 0 or np.any(fs <= 0):
        raise OracleError("frequency CSV rows are not increasing counts with positive frequencies")
    return ys, fs.astype(np.float64)


def moments(ys: np.ndarray, fs: np.ndarray) -> tuple[int, int, float, float]:
    n = int(fs.sum())
    mean = float(np.dot(ys, fs) / n)
    var = float(np.dot(fs, (ys - mean) ** 2) / n)
    n0 = int(fs[ys == 0].sum())
    return n, n0, mean, var


def check_sample(doc: dict, ys: np.ndarray, fs: np.ndarray) -> None:
    n, n0, mean, var = moments(ys, fs)
    if doc["n"] != n or doc["n0"] != n0:
        raise OracleError(f"summary n/n0 {doc['n']}/{doc['n0']}, oracle {n}/{n0}")
    check_close("summary mean", doc["mean"], mean)
    check_close("summary var", doc["var"], var)


def logpmf(family: str, params: dict, ys: np.ndarray) -> np.ndarray:
    """ln P(Y=y) from scipy.stats; geometric counts failures (support 0..)."""
    ys = np.asarray(ys)
    if family == "nb":
        return stats.nbinom.logpmf(ys, params["k"], params["p"])
    if family == "poisson":
        return stats.poisson.logpmf(ys, params["m"])
    p = params["p"]
    geo = stats.geom.logpmf(ys + 1, p)
    if family == "geom":
        return geo
    pi = params["pi"]
    with np.errstate(divide="ignore"):
        if family == "zig":
            return np.where(ys == 0, np.log(pi + (1.0 - pi) * p), np.log1p(-pi) + geo)
        if family == "hg":
            return np.where(ys == 0, np.log(pi), np.log1p(-pi) + geo - np.log1p(-p))
    raise OracleError(f"unknown family {family!r}")


def loglik(family: str, params: dict, ys: np.ndarray, fs: np.ndarray) -> float:
    return float(np.dot(fs, logpmf(family, params, ys)))


def nb_profile(k: float, mean: float, ys: np.ndarray, fs: np.ndarray) -> float:
    return loglik("nb", {"k": k, "p": k / (mean + k)}, ys, fs)


def check_fit(entry: dict, ys: np.ndarray, fs: np.ndarray) -> float:
    """Checks one fitted family; returns the oracle's AIC."""
    family, params = entry["family"], entry["params"]
    n, n0, m, _ = moments(ys, fs)
    if entry["n_params"] != N_PARAMS[family]:
        raise OracleError(f"{family}: n_params {entry['n_params']}")
    if family == "zig":
        check_close("zig pi", params["pi"], (m * n0 - n + n0) / (m * n - n + n0), abs_tol=1e-12)
        check_close("zig p", params["p"], (n - n0) / (m * n))
    elif family == "hg":
        check_close("hg pi", params["pi"], n0 / n)
        check_close("hg p", params["p"], (n - n0) / (n * m))
    elif family == "geom":
        check_close("geom p", params["p"], 1.0 / (1.0 + m))
    elif family == "poisson":
        check_close("poisson m", params["m"], m)
    else:
        k = params["k"]
        check_close("nb p", params["p"], k / (m + k))
        at = nb_profile(k, m, ys, fs)
        for side in (1.0 - PROFILE_STEP, 1.0 + PROFILE_STEP):
            near = nb_profile(k * side, m, ys, fs)
            if near > at + PROFILE_SLACK * abs(at):
                raise OracleError(f"nb k={k!r} is not a profile maximum: ll({side}k) > ll(k)")
    ll = loglik(family, params, ys, fs)
    check_close(f"{family} loglik", entry["loglik"], ll)
    oracle_aic = 2.0 * N_PARAMS[family] - 2.0 * ll
    check_close(f"{family} aic", entry["aic"], oracle_aic)
    if entry["gof"] is not None:
        check_gof(family, params, entry["gof"], ys, fs)
    return oracle_aic


def _cells(label: str) -> tuple[int, int | None]:
    """A bin label as a cell range [lo, hi]; hi None for a pooled tail "y+"."""
    if label.endswith("+"):
        return int(label[:-1].split(",")[0]), None
    parts = [int(c) for c in label.split(",")]
    return parts[0], parts[-1]


def check_gof(family: str, params: dict, gof: dict, ys: np.ndarray, fs: np.ndarray) -> None:
    n = float(fs.sum())
    bins = gof["bins"]
    obs = np.array([b["observed"] for b in bins])
    exp = np.array([b["expected"] for b in bins])
    if np.any(exp <= 0.0):
        raise OracleError(f"{family} gof: expected <= 0 in a bin")
    top = int(ys.max()) + 2
    pmf = np.exp(logpmf(family, params, np.arange(top)))
    hist = np.zeros(top)
    hist[ys] = fs
    for b in bins:
        lo, hi = _cells(b["label"])
        o = hist[lo:].sum() if hi is None else hist[lo:hi + 1].sum()
        e = n * (max(0.0, 1.0 - pmf[:lo].sum()) if hi is None else pmf[lo:hi + 1].sum())
        if b["observed"] != o:
            raise OracleError(f"{family} gof bin {b['label']}: observed {b['observed']}, oracle {o}")
        check_close(f"{family} gof bin {b['label']} expected", b["expected"], e, rel=1e-7, abs_tol=1e-9 * n)
    if obs.sum() != n:
        raise OracleError(f"{family} gof: observed total {obs.sum()} != n {n}")
    chi2 = float(np.sum((obs - exp) ** 2 / exp))
    check_close(f"{family} chi2", gof["chi2"], chi2)
    df = len(bins) - 1 - N_PARAMS[family]
    if gof["df"] != df:
        raise OracleError(f"{family} gof df {gof['df']}, oracle {df}")
    check_close(f"{family} p-value", gof["p_value"], float(stats.chi2.sf(chi2, df)), abs_tol=1e-300)


def check_failure(family: str, ys: np.ndarray, fs: np.ndarray) -> None:
    """A family may fail to fit only where its estimator has no solution."""
    _, _, m, var = moments(ys, fs)
    if m == 0.0 and family in ("nb", "zig", "hg"):
        return
    if family == "nb" and var <= m:
        return
    if family in ("zig", "hg") and np.all(ys[ys > 0] == 1):
        return
    raise OracleError(f"{family} failed to fit a sample it can fit")


def check_compare(doc: dict, ys: np.ndarray, fs: np.ndarray) -> None:
    check_sample(doc["sample"], ys, fs)
    aics = {}
    for entry in doc["models"]:
        if "error" in entry:
            check_failure(entry["family"], ys, fs)
        else:
            aics[entry["family"]] = check_fit(entry, ys, fs)
    best = min(aics.values())
    reported = doc["best_aic_model"]
    # zig and hg tie exactly, so any family within roundoff of the minimum
    if reported not in aics or aics[reported] > best + REL * abs(best):
        raise OracleError(f"best_aic_model {reported!r}, oracle AICs {aics}")


def check_simulate_csv(text: str, n: int) -> None:
    _, fs = parse_csv(text)
    if fs.sum() != n:
        raise OracleError(f"simulate frequencies sum to {fs.sum()}, not {n}")


def check_replicate(family: str, sample: dict, fits: dict, values: np.ndarray) -> None:
    """One recovery replicate: its summary and each method's fit.

    ``fits`` maps method -> fit entry (as in a compare report, without
    gof), or None where the fit raised.
    """
    ys, fs = histogram(values)
    check_sample(sample, ys, fs)
    _, _, m, var = moments(ys, fs)
    for meth, entry in fits.items():
        if entry is None:
            check_failure(family, ys, fs)
        elif meth == "moments":
            k = m * m / (var - m)
            check_close("mom k", entry["params"]["k"], k)
            check_close("mom p", entry["params"]["p"], k / (m + k))
            check_close("mom loglik", entry["loglik"], loglik("nb", entry["params"], ys, fs))
        else:
            check_fit(entry, ys, fs)


def check_recovery(doc: dict, truth: dict, replicate_fits: list[dict]) -> None:
    """The wrapper's report against the mean of individually checked fits."""
    failures = sum(e is None for fits in replicate_fits for e in fits.values())
    if doc["solver_failures"] != failures:
        raise OracleError(f"solver_failures {doc['solver_failures']}, oracle {failures}")
    if doc["true_params"].keys() != truth.keys():
        raise OracleError("true_params keys differ")
    for k, v in truth.items():
        check_close(f"true {k}", doc["true_params"][k], v)
    methods = replicate_fits[0].keys()
    for meth in methods:
        ok = [fits[meth]["params"] for fits in replicate_fits if fits[meth] is not None]
        if not ok:
            if meth in doc["estimates"]:
                raise OracleError(f"{meth}: estimates reported with no successful fit")
            continue
        for k in truth:
            vals = np.array([p[k] for p in ok])
            check_close(f"{meth} mean {k}", doc["estimates"][meth][k], float(vals.mean()))
            check_close(f"{meth} mean |{k} error|", doc["abs_error"][meth][k],
                        float(np.abs(vals - truth[k]).mean()))
