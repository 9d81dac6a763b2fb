"""Finite offspring distributions and finite environment mixtures.

An offspring distribution is a finite pmf over non-negative integer counts.
An environment law is a finite weighted mixture of offspring distributions;
each generation of the population process draws one component i.i.d. and
every individual then reproduces according to it.  Restricting to finite
support keeps every moment finite and makes exact enumeration possible.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DuplicateKeyError,
    InvalidArgumentError,
    MassNotOneError,
    NegativeProbError,
    WeightsNotOneError,
    ZeroMeanComponentError,
)

# Drift beyond REJECT_TOL is an input error; anything smaller is renormalized
# so that stored masses sum to 1 within SUM_TOL.
REJECT_TOL = 1e-9
SUM_TOL = 1e-12

PmfLike = Union[Mapping[int, float], Iterable[Tuple[int, float]]]


class OffspringDistribution:
    """Finite pmf over offspring counts, with cached moments; read-only by
    convention, equal and hashed by identity."""

    __slots__ = ("support", "probs", "mean", "second_moment", "variance", "p0", "p1",
                 "support_arr", "probs_arr")

    def __init__(self, support: Tuple[int, ...], probs: Tuple[float, ...], mean: float,
                 second_moment: float, variance: float, p0: float, p1: float):
        self.support, self.probs, self.mean = support, probs, mean
        self.second_moment, self.variance = second_moment, variance
        self.p0, self.p1 = p0, p1
        # numpy views used by the hot sampling paths
        self.support_arr = np.array(support, dtype=np.int64)
        self.probs_arr = np.array(probs, dtype=np.float64)

    @property
    def max_offspring(self) -> int:
        return self.support[-1]

    @property
    def min_offspring(self) -> int:
        return self.support[0]

    def prob(self, k: int) -> float:
        try:
            return self.probs[self.support.index(k)]
        except ValueError:
            return 0.0

    def pmf_dict(self) -> dict:
        return dict(zip(self.support, self.probs))

    def __repr__(self):
        body = ", ".join(f"{k}: {p:.6g}" for k, p in zip(self.support, self.probs))
        return f"OffspringDistribution({{{body}}})"


def build_offspring(pmf: PmfLike) -> OffspringDistribution:
    """Validate and freeze a pmf given as {count: prob} or (count, prob) pairs.

    Rejects negative masses, duplicate counts, and total mass further than
    1e-9 from 1; smaller drift is renormalized rather than rejected.
    """
    items = list(pmf.items()) if isinstance(pmf, Mapping) else list(pmf)
    if not items:
        raise MassNotOneError("empty pmf")
    seen = set()
    cleaned = []
    for k, p in items:
        k = int(k)
        if k < 0:
            raise NegativeProbError(f"offspring count {k} is negative")
        if p < 0:
            raise NegativeProbError(f"prob of count {k} is negative ({p})")
        if k in seen:
            raise DuplicateKeyError(f"count {k} appears twice")
        seen.add(k)
        cleaned.append((k, float(p)))
    total = math.fsum(p for _, p in cleaned)
    if abs(total - 1.0) > REJECT_TOL:
        raise MassNotOneError(f"pmf mass is {total!r}, not 1")
    cleaned.sort()
    support = tuple(k for k, _ in cleaned)
    probs = tuple(p / total for _, p in cleaned)
    assert abs(math.fsum(probs) - 1.0) <= SUM_TOL
    mean = math.fsum(k * p for k, p in zip(support, probs))
    m2 = math.fsum(k * k * p for k, p in zip(support, probs))
    var = max(0.0, m2 - mean * mean)
    lookup = dict(zip(support, probs))
    return OffspringDistribution(
        support=support,
        probs=probs,
        mean=mean,
        second_moment=m2,
        variance=var,
        p0=lookup.get(0, 0.0),
        p1=lookup.get(1, 0.0),
    )


class EnvironmentLaw:
    """Finite mixture of offspring distributions; read-only by convention,
    equal and hashed by identity.

    ``log_means[i]`` is the log of component i's mean offspring count; the
    partial sums of i.i.d. draws of these form the random walk that controls
    the conditional growth of the population.  Their average mean_log_mean
    is the typical growth rate, the average single-offspring mass mean_p1
    sets the cost of holding at 1, and strongly_supercritical says that no
    component can produce zero offspring.
    """

    __slots__ = ("weights", "components", "log_means", "mean_log_mean", "mean_p1",
                 "log_mean_min", "log_mean_max", "strongly_supercritical",
                 "weights_arr", "log_means_arr", "cum_weights")

    def __init__(self, weights: Tuple[float, ...],
                 components: Tuple[OffspringDistribution, ...],
                 log_means: Tuple[float, ...], mean_log_mean: float, mean_p1: float,
                 log_mean_min: float, log_mean_max: float, strongly_supercritical: bool):
        self.weights, self.components, self.log_means = weights, components, log_means
        self.mean_log_mean, self.mean_p1 = mean_log_mean, mean_p1
        self.log_mean_min, self.log_mean_max = log_mean_min, log_mean_max
        self.strongly_supercritical = strongly_supercritical
        self.weights_arr = np.array(weights, dtype=np.float64)
        self.log_means_arr = np.array(log_means, dtype=np.float64)
        self.cum_weights = np.cumsum(self.weights_arr)

    @property
    def k(self) -> int:
        return len(self.components)

    @property
    def hold_cost(self) -> float:
        """-log of the mean single-offspring mass; +inf when holding is impossible."""
        return -math.log(self.mean_p1) if self.mean_p1 > 0 else math.inf

    def __repr__(self):
        body = "; ".join(
            f"{w:.4g}*{d!r}" for w, d in zip(self.weights, self.components)
        )
        return f"EnvironmentLaw({body})"


def build_environment(components: Sequence[Tuple[float, PmfLike]]) -> EnvironmentLaw:
    """Build an environment law from (weight, pmf) pairs.

    Weights must be positive and sum to 1 within 1e-9 (renormalized below
    that).  Every component must have positive mean so its log-mean exists.
    """
    if not components:
        raise WeightsNotOneError("no components")
    ws = []
    dists = []
    for w, pmf in components:
        if w <= 0:
            raise WeightsNotOneError(f"component weight {w!r} is not positive")
        ws.append(float(w))
        dists.append(pmf if isinstance(pmf, OffspringDistribution) else build_offspring(pmf))
    total = math.fsum(ws)
    if abs(total - 1.0) > REJECT_TOL:
        raise WeightsNotOneError(f"weights sum to {total!r}, not 1")
    weights = tuple(w / total for w in ws)
    for d in dists:
        if d.mean <= 0:
            raise ZeroMeanComponentError(f"component {d!r} has zero mean")
    log_means = tuple(math.log(d.mean) for d in dists)
    lbar = math.fsum(w * L for w, L in zip(weights, log_means))
    mean_p1 = math.fsum(w * d.p1 for w, d in zip(weights, dists))
    return EnvironmentLaw(
        weights=weights,
        components=tuple(dists),
        log_means=log_means,
        mean_log_mean=lbar,
        mean_p1=mean_p1,
        log_mean_min=min(log_means),
        log_mean_max=max(log_means),
        strongly_supercritical=all(d.p0 == 0.0 for d in dists),
    )


# --- serialization -----------------------------------------------------
# Wire schema: {"environments": [{"weight": w, "pmf": {"k": prob}}]} with
# decimal-string integer keys in the pmf.

def environment_to_dict(env: EnvironmentLaw) -> dict:
    return {
        "environments": [
            {"weight": w, "pmf": {str(k): p for k, p in zip(d.support, d.probs)}}
            for w, d in zip(env.weights, env.components)
        ]
    }


def environment_from_dict(data: Mapping) -> EnvironmentLaw:
    try:
        entries = data["environments"]
    except (KeyError, TypeError):
        raise MassNotOneError("config lacks an 'environments' list")
    try:
        # pairs, not a dict, so that keys such as "1" and "01" clash loudly
        comps = [(float(entry["weight"]), [(int(k), float(p)) for k, p in entry["pmf"].items()])
                 for entry in entries]
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        raise InvalidArgumentError(f"malformed environment entry: {err!r}") from err
    return build_environment(comps)


def reject_duplicate_keys(pairs) -> dict:
    """json object_pairs_hook: a key repeated within one object is an input error."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise DuplicateKeyError(f"key {key!r} appears twice in one JSON object")
        out[key] = value
    return out


def environment_to_json(env: EnvironmentLaw) -> str:
    return json.dumps(environment_to_dict(env), indent=2)


def environment_from_json(text: str) -> EnvironmentLaw:
    data = json.loads(text, object_pairs_hook=reject_duplicate_keys)
    return environment_from_dict(data)
