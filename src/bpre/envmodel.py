"""Finite offspring distributions and finite environment mixtures.

An offspring distribution is a finite pmf over non-negative integer counts.
An environment law is a finite weighted mixture of offspring distributions;
each generation of the population process draws one component i.i.d. and
every individual then reproduces according to it.  Restricting to finite
support keeps every moment finite and makes exact enumeration possible.
"""

from __future__ import annotations

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
    convention, equal and hashed by identity.

    support is sorted and every count in it has positive mass (build_offspring
    drops the others), so p0 == 0 exactly when min_offspring >= 1.
    """

    __slots__ = ("support", "probs", "mean", "second_moment", "variance", "p0", "p1",
                 "support_arr", "probs_arr")

    def __init__(self, support: Tuple[int, ...], probs: Tuple[float, ...]):
        self.support, self.probs = support, probs
        self.mean = math.fsum(k * p for k, p in zip(support, probs))
        self.second_moment = math.fsum(k * k * p for k, p in zip(support, probs))
        self.variance = max(0.0, self.second_moment - self.mean * self.mean)
        self.p0, self.p1 = self.prob(0), self.prob(1)
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
        return self.pmf_dict().get(k, 0.0)

    def pmf_dict(self) -> dict:
        return dict(zip(self.support, self.probs))

    def __repr__(self):
        body = ", ".join(f"{k}: {p:.6g}" for k, p in zip(self.support, self.probs))
        return f"OffspringDistribution({{{body}}})"


def _number(x, what: str, cast=float):
    """cast(x), float or int; a boolean, NaN, a non-number or, for int, a
    number that is not whole (a decimal string is whole) is InvalidArgument."""
    try:
        value = cast(x)
        ok = (not isinstance(x, (bool, np.bool_)) and value == value   # NaN != NaN
              and (cast is float or isinstance(x, str) or value == x))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        kind = "whole number" if cast is int else "number"
        raise InvalidArgumentError(f"{what} is {x!r}, not a {kind}")
    return value


def _check_side(side: str) -> None:
    """The one side rule for an event: lower or upper, else InvalidArgument."""
    if side not in ("lower", "upper"):
        raise InvalidArgumentError(f"side must be 'lower' or 'upper', got {side!r}")


def build_offspring(pmf: PmfLike) -> OffspringDistribution:
    """Validate and freeze a pmf given as {count: prob} or (count, prob) pairs.

    Rejects negative masses, duplicate counts, NaN or boolean masses,
    counts that are not whole numbers, and total mass further than 1e-9
    from 1; smaller drift is renormalized rather than rejected.  Counts of
    zero mass are dropped: the law keeps the counts it can draw.
    """
    items = list(pmf.items()) if isinstance(pmf, Mapping) else list(pmf)
    if not items:
        raise MassNotOneError("empty pmf")
    masses = {}
    for k, p in items:
        k, p = _number(k, "offspring count", int), _number(p, f"prob of count {k!r}")
        if k < 0 or p < 0:
            raise NegativeProbError(f"count {k} with prob {p}: neither may be negative")
        if k in masses:
            raise DuplicateKeyError(f"count {k} appears twice")
        masses[k] = p
    total = math.fsum(masses.values())
    if abs(total - 1.0) > REJECT_TOL:
        raise MassNotOneError(f"pmf mass is {total!r}, not 1")
    support = tuple(sorted(k for k, p in masses.items() if p > 0.0))
    probs = tuple(masses[k] / total for k in support)
    assert abs(math.fsum(probs) - 1.0) <= SUM_TOL
    return OffspringDistribution(support, probs)


class EnvironmentLaw:
    """Finite mixture of offspring distributions; read-only by convention,
    equal and hashed by identity.

    ``log_means[i]`` is the log of component i's mean offspring count; the
    partial sums of i.i.d. draws of these form the random walk that controls
    the conditional growth of the population.  Their average mean_log_mean
    is the typical growth rate, the average single-offspring mass mean_p1
    sets the cost of holding at 1, and strongly_supercritical says that the
    law cannot shrink: no component has mass at zero offspring (p0 = 0).
    max_offspring is the largest count of any component.
    """

    __slots__ = ("weights", "components", "log_means", "mean_log_mean", "mean_p1",
                 "log_mean_min", "log_mean_max", "strongly_supercritical",
                 "max_offspring", "weights_arr", "log_means_arr", "cum_weights")

    def __init__(self, weights: Tuple[float, ...],
                 components: Tuple[OffspringDistribution, ...]):
        self.weights, self.components = weights, components
        self.log_means = tuple(math.log(d.mean) for d in components)
        self.mean_log_mean = math.fsum(w * L for w, L in zip(weights, self.log_means))
        self.mean_p1 = math.fsum(w * d.p1 for w, d in zip(weights, components))
        self.log_mean_min, self.log_mean_max = min(self.log_means), max(self.log_means)
        self.strongly_supercritical = all(d.p0 == 0.0 for d in components)
        self.max_offspring = max(d.max_offspring for d in components)
        self.weights_arr = np.array(weights, dtype=np.float64)
        self.log_means_arr = np.array(self.log_means, dtype=np.float64)
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
    """Build an environment law from (weight, pmf) pairs; a pmf may be an
    OffspringDistribution already built.

    Weights must be positive numbers (not NaN or booleans) and sum to 1
    within 1e-9 (renormalized below that).  Every component must have
    positive mean so its log-mean exists.
    """
    if not components:
        raise WeightsNotOneError("no components")
    ws = []
    dists = []
    for w, pmf in components:
        w = _number(w, "component weight")
        if w <= 0:
            raise WeightsNotOneError(f"component weight {w!r} is not positive")
        ws.append(w)
        dists.append(pmf if isinstance(pmf, OffspringDistribution) else build_offspring(pmf))
    total = math.fsum(ws)
    if abs(total - 1.0) > REJECT_TOL:
        raise WeightsNotOneError(f"weights sum to {total!r}, not 1")
    for d in dists:
        if d.mean <= 0:
            raise ZeroMeanComponentError(f"component {d!r} has zero mean")
    return EnvironmentLaw(tuple(w / total for w in ws), tuple(dists))


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
        comps = [(entry["weight"], list(entry["pmf"].items())) for entry in entries]
    except (AttributeError, KeyError, TypeError) as err:
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

