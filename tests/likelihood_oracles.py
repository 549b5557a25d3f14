"""Likelihood oracles for the tests: checks that countfit itself does not ship.

`grid_oracle` searches the (pi, p) log-likelihood surface of the ZIG and
hurdle geometric models on a lattice, `score_residuals` evaluates the
score equations at a model's parameters, and `pgf` is the probability
generating function. `zig_hg_reparam` and `hg_zig_reparam` map the ZIG
mixing weight to the hurdle zero mass with the same pmf, and back.
Import as ``from likelihood_oracles import ...``, the way ``conftest`` is
imported; perfbench has a module of its own named ``oracles``.
"""

import math
import warnings

import numpy as np

from countfit.dist import (
    CountModel,
    Geometric,
    Hurdle,
    NegBinomial,
    Poisson,
    ZeroInflated,
    pmf,
)
from countfit.errors import CountFitError, InvalidModelError
from countfit.estimate import FrequencySample, _nb_profile_score


def grid_oracle(
    s: FrequencySample, family: str, resolution: int = 1000
) -> tuple[dict[str, float], float]:
    """Exhaustive lattice search of the (pi, p) log-likelihood surface.

    Returns the lattice maximizer and its log-likelihood. Independent of
    the closed-form estimators: the likelihood is evaluated directly from
    its structured form at every lattice point. The p-axis endpoints are
    fixed, so doubling the resolution refines the lattice in place.
    """
    if resolution < 100:
        raise CountFitError(f"resolution must be >= 100, got {resolution!r}")
    if family not in ("zig", "hg"):
        raise CountFitError(f"grid oracle supports 'zig' and 'hg', not {family!r}")
    n, n0, m = s.n, s.n0, s.mean
    eps = 1e-6
    p = np.linspace(eps, 1.0 - eps, resolution + 1)
    t = np.linspace(0.0, 1.0, resolution + 1)[:, None]
    s_total = m * n
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "zig":
            pi_lo = -p / (1.0 - p)
            pi = pi_lo[None, :] + t * ((1.0 - eps) - pi_lo[None, :])
            p0 = pi + (1.0 - pi) * p[None, :]
            ll = (
                n0 * np.log(p0)
                + (n - n0) * np.log1p(-pi)
                + (n - n0) * np.log(p[None, :])
                + s_total * np.log1p(-p[None, :])
            )
        else:
            pi = t * np.ones_like(p)[None, :] * (1.0 - eps)
            term_pi = np.where(n0 > 0, n0 * np.log(pi), 0.0)
            ll = (
                term_pi
                + (n - n0) * np.log1p(-pi)
                + (n - n0) * np.log(p[None, :])
                + (s_total - (n - n0)) * np.log1p(-p[None, :])
            )
    ll = np.where(np.isfinite(ll), ll, -np.inf)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    return {"pi": float(pi[i, j]), "p": float(p[j])}, float(ll[i, j])


def score_residuals(model: CountModel, s: FrequencySample) -> np.ndarray:
    """Score-equation values at the model's parameters.

    Components are the partial derivatives of the log-likelihood with
    respect to (pi, p), (p, k), p or the Poisson mean, depending on the
    family. At a closed-form MLE every component vanishes.
    """
    n, n0, m = s.n, s.n0, s.mean
    if isinstance(model, ZeroInflated) and isinstance(model.base, Geometric):
        pi, p = model.pi, model.base.p
        p0 = pi + (1.0 - pi) * p
        if p0 <= 0.0 or pi >= 1.0:
            warnings.warn("score evaluated at a boundary parameter; one-sided")
            return np.array([float("nan"), float("nan")])
        d_pi = n0 * (1.0 - p) / p0 - (n - n0) / (1.0 - pi)
        d_p = n0 * (1.0 - pi) / p0 + (n - n0) / p - m * n / (1.0 - p)
        return np.array([d_pi, d_p])
    if isinstance(model, Hurdle) and isinstance(model.base, Geometric):
        pi, p = model.pi, model.base.p
        if pi in (0.0, 1.0):
            warnings.warn("score evaluated at a boundary parameter; one-sided")
        d_pi = (n0 / pi if pi > 0.0 else float("inf")) - (
            (n - n0) / (1.0 - pi) if pi < 1.0 else float("inf")
        )
        d_p = (n - n0) * (1.0 / (1.0 - p) + 1.0 / p) - m * n / (1.0 - p)
        return np.array([d_pi, d_p])
    if isinstance(model, NegBinomial):
        p, k = model.p, model.k
        d_p = n * k / p - m * n / (1.0 - p)
        # the profile score plus the gap between log p and its profile value
        g = _nb_profile_score(s.counts, s.freqs, n, m)(k)[0]
        d_k = g + n * (math.log(p) + math.log1p(m / k))
        return np.array([d_p, d_k])
    if isinstance(model, Geometric):
        return np.array([n / model.p - m * n / (1.0 - model.p)])
    if isinstance(model, Poisson):
        if model.mean == 0.0:
            warnings.warn("score evaluated at a boundary parameter; one-sided")
            return np.array([float("inf") if m > 0 else 0.0])
        return np.array([m * n / model.mean - n])
    raise InvalidModelError(
        f"score equations not available for {type(model).__name__}"
    )


def pgf(model: CountModel, z: float) -> float:
    """Probability generating function E(z^Y) for |z| <= 1."""
    if abs(z) > 1.0:
        raise InvalidModelError(f"pgf requires |z| <= 1, got {z!r}")
    if isinstance(model, Poisson):
        return math.exp(model.mean * (z - 1.0))
    if isinstance(model, Geometric):
        return model.p / (1.0 - (1.0 - model.p) * z)
    if isinstance(model, NegBinomial):
        return (model.p / (1.0 - (1.0 - model.p) * z)) ** model.k
    if isinstance(model, ZeroInflated):
        return model.pi + (1.0 - model.pi) * pgf(model.base, z)
    if isinstance(model, Hurdle):
        p0 = pmf(model.base, 0)
        return model.pi + (1.0 - model.pi) * (pgf(model.base, z) - p0) / (1.0 - p0)
    raise InvalidModelError(f"unknown model type {type(model).__name__}")


def zig_hg_reparam(pi_zig: float, p: float) -> float:
    """Map ZIG parameters to the hurdle zero mass with identical pmf."""
    return pi_zig + (1.0 - pi_zig) * p


def hg_zig_reparam(pi_hg: float, p: float) -> float:
    """Inverse map: hurdle zero mass back to the ZIG mixing weight."""
    return (pi_hg - p) / (1.0 - p)
