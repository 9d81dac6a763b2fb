"""Importance-sampling estimators for rare population events.

Two proposals are used.  TiltOnly reweights the environment mixture by
m^lambda every generation and carries the exact per-step likelihood ratio;
it is efficient for upper deviations and for lower deviations at small n.
TwoPhase holds the population at its initial size for the first m
generations (environments biased by the single-offspring probability, each
individual forced to one child, exact path weight kept) and then switches
to a tilted phase; for m = round(take_off * n) the weighted indicator is an
unbiased estimate of the partial event {hold through m, Z_n <= e^{cn}},
whose decay rate matches the full event's.  TwoPhase with m = 0, the plan
of a law without single-offspring mass, is TiltOnly exactly.

All estimators run on the block engine of simulate, where each block of
replicas draws from its own counter-based stream, so results are
byte-identical for any worker count.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .envmodel import EnvironmentLaw
from .errors import (
    COutOfRangeError,
    InvalidArgumentError,
    NoEventMassError,
    NoHoldingPossibleError,
    NotStronglySupercriticalError,
    ZeroEstimateError,
)
from .oracle import event_bound
from .ratefn import (LowerDeviationRate, limit_profile, log_mgf,
                     lower_deviation_rate, tilt_parameter)
from .results import EstimatorResult, Method
from .rng import STREAM_TILT, STREAM_TWO_PHASE
from .simulate import Lanes, Phase, Proposal, sample

HULL_CLAMP = 1e-9   # tilt targets pushed this fraction of the span inside the hull


class TiltedLaw(NamedTuple):
    """Environment mixture reweighted by m^lambda, offspring laws untouched."""

    base: EnvironmentLaw
    lam: float
    log_norm: float          # log E(m^lambda)
    weights: np.ndarray
    cum_weights: np.ndarray
    step_log_lr: np.ndarray  # per component: log_norm - lam * L_i

    @property
    def mean_log_mean(self) -> float:
        """Drift of the log-mean walk under the tilt."""
        return float(self.weights @ self.base.log_means_arr)


def tilt(env: EnvironmentLaw, lam: float) -> TiltedLaw:
    value, _, _ = log_mgf(env, lam)
    logw = np.log(env.weights_arr) + lam * env.log_means_arr - value
    w = np.exp(logw)
    w = w / w.sum()
    return TiltedLaw(
        base=env, lam=lam, log_norm=value, weights=w,
        cum_weights=np.cumsum(w), step_log_lr=value - lam * env.log_means_arr,
    )


def tilt_toward(env: EnvironmentLaw, drift: float) -> TiltedLaw:
    """Tilt whose mean log-mean is drift, clamped just inside the hull.

    Clamping keeps the root-find well posed for targets at or beyond the
    extreme log-means; the estimator stays unbiased under any lambda, the
    clamp only moves the proposal.
    """
    lo, hi = env.log_mean_min, env.log_mean_max
    span = hi - lo
    if span <= 0.0:
        return tilt(env, 0.0)
    target = min(max(drift, lo + HULL_CLAMP * span), hi - HULL_CLAMP * span)
    return tilt(env, tilt_parameter(env, target))


def _tilt_target(env: EnvironmentLaw, c: float,
                 ldr: Optional[LowerDeviationRate] = None) -> float:
    """Proposal drift for a single-tilt run toward e^{cn}.

    For c inside the hull, or above it, the walk itself is steered to c.
    Below the minimum log-mean no environment sequence has that drift; the
    event is carried by paths that hold early and then grow along the limit
    slope, so the tilt aims at that slope instead of a degenerate corner.
    ldr, when given, is lower_deviation_rate(env, c).
    """
    if c > env.log_mean_min or c <= 0.0:
        return c
    return (ldr or lower_deviation_rate(env, c)).slope


def _hold_tables(env: EnvironmentLaw, z0: int) -> Phase:
    """Sampling cdf and per-step log likelihood ratio for held generations.

    Proposal weight for component i is q_i p1_i / E(p(1)); the true
    probability of (component i, every one of z0 individuals has exactly one
    child) is q_i p1_i^{z0}, so the ratio is E(p(1)) * p1_i^{z0-1}.
    """
    p1 = np.array([d.p1 for d in env.components])
    raw = env.weights_arr * p1
    total = raw.sum()
    cum = np.cumsum(raw / total)
    llr = np.full(p1.size, -math.inf)   # components without p1 mass are never drawn
    pos = p1 > 0.0
    llr[pos] = math.log(total) + (z0 - 1) * np.log(p1[pos])
    return Phase(cum, llr)


def _event_mass(w: np.ndarray, n: int) -> float:
    """Total weight of a sample that conditions on the event; none is an error."""
    tot = float(w.sum())
    if tot == 0.0:
        raise NoEventMassError(f"no replica of {w.size} reached the event at n={n}")
    return tot


def _check_env(env: EnvironmentLaw, n: int, c: float, side: str,
               z0: int) -> Optional[LowerDeviationRate]:
    """Refuse a call the estimators cannot serve; else lower_deviation_rate(env,
    c) on the lower side with c > 0, the one rate solve of the call, or None."""
    if n < 1:
        raise InvalidArgumentError(f"n={n} must be >= 1")
    if z0 < 1:
        raise InvalidArgumentError(f"initial population z0={z0} must be >= 1")
    if math.isnan(c):
        raise InvalidArgumentError("c is not a number")
    if not env.strongly_supercritical:
        raise NotStronglySupercriticalError(
            "deviation estimators need every component to give at least one offspring"
        )
    if side not in ("lower", "upper"):
        raise InvalidArgumentError(f"side must be 'lower' or 'upper', got {side!r}")
    lbar = env.mean_log_mean
    if side == "lower" and c >= lbar:
        raise COutOfRangeError(f"lower deviation needs c < {lbar:.6g}, got {c}")
    if side == "upper" and c <= lbar:
        raise COutOfRangeError(f"upper deviation needs c > {lbar:.6g}, got {c}")
    return lower_deviation_rate(env, c) if side == "lower" and c > 0.0 else None


def estimate_upper_tail(env: EnvironmentLaw, n: int, c: float, z0: int = 1,
                        replicas: int = 10_000, seed: int = 0,
                        workers: int = 1) -> EstimatorResult:
    """Unbiased tilted estimate of P(Z_n >= e^{cn}).

    The environment is tilted toward drift c (clamped into the hull for c
    at or beyond the top log-mean, where the estimate is honestly tiny or
    zero).
    """
    _check_env(env, n, c, "upper", z0)
    proposal = _plan(env, n, c, z0, "upper", None, None, None)[0]
    return _sample_and_weigh(env, n, c, z0, "upper", proposal, seed, replicas, workers)[2]


class LowerTailEstimate(NamedTuple):
    """TiltOnly estimates the full event; TwoPhase the held partial event."""

    tilt_only: Optional[EstimatorResult]
    two_phase: Optional[EstimatorResult]
    take_off: Optional[float]   # hold fraction behind the TwoPhase split


def _plan(env: EnvironmentLaw, n: int, c: float, z0: int, side: str,
          method: Optional[str], phase_fraction: Optional[float],
          ldr: Optional[LowerDeviationRate]) -> Tuple[Proposal, Optional[float]]:
    """The one planner: a side's proposal and its hold fraction (None for
    tilt_only); the tilt is proposal.free.lam.

    method defaults to two_phase below and tilt_only above.  tilt_only
    steers every generation toward c.  two_phase holds the first
    m = round(fraction * n) generations, the fraction being phase_fraction
    or else the optimal take-off (0 for a law without single-offspring
    mass), and steers the rest toward c n / (n - m), which is c at m = 0:
    TwoPhase with m = 0 is TiltOnly exactly.  An unknown method, two_phase
    above, a phase_fraction under tilt_only or outside [0, 1] raise
    InvalidArgumentError; a hold asked of a law that cannot hold raises
    NoHoldingPossibleError.  ldr is _check_env's rate solve.
    """
    method = method or ("two_phase" if side == "lower" else "tilt_only")
    if method not in ("tilt_only", "two_phase"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    if method == "two_phase" and side == "upper":
        raise InvalidArgumentError("the upper side has no two_phase proposal")
    if method == "tilt_only":
        if phase_fraction is not None:
            raise InvalidArgumentError(f"phase_fraction={phase_fraction} needs two_phase")
        m, frac = 0, None
    elif phase_fraction is not None:
        if not 0.0 <= phase_fraction <= 1.0:
            raise InvalidArgumentError(f"phase_fraction={phase_fraction} outside [0, 1]")
        m, frac = int(round(phase_fraction * n)), phase_fraction
        if m > 0 and env.mean_p1 == 0.0:
            raise NoHoldingPossibleError("no component has single-offspring mass; "
                                         "holding impossible")
    elif env.mean_p1 == 0.0:
        m, frac = 0, 0.0   # nothing to hold with
    elif c <= 0.0:
        # threshold at or below the floor: the event forces holding throughout
        m, frac = n, 1.0
    else:
        frac = ldr.take_off
        m = int(round(frac * n))
    if m == n:
        tl = tilt(env, 0.0)   # no free generations to tilt
    else:
        tl = tilt_toward(env, _tilt_target(env, c, ldr) if m == 0
                         else _tilt_target(env, c * n / (n - m)))
    # m = 0 is TiltOnly, on TiltOnly's stream, so the reduction is exact
    stream = STREAM_TWO_PHASE if m > 0 else STREAM_TILT
    hold = _hold_tables(env, z0) if m > 0 else None
    return Proposal(free=tl, stream=stream, m=m, hold=hold), frac


def _sample_and_weigh(env: EnvironmentLaw, n: int, c: float, z0: int, side: str,
                      proposal: Proposal, seed: int, replicas: int, workers: int,
                      threshold: Optional[int] = None, capture: bool = False
                      ) -> Tuple[Lanes, np.ndarray, EstimatorResult]:
    """Replicas of proposal's paths, each one's weight, exp(llr) on its side
    of e^{cn} and 0 off the event, and the estimate the weights make.

    threshold and capture go to sample.  ess is (sum w)^2 / sum w^2, 0 for
    an all-zero sample; the tilt is the free phase's, None when every
    generation is held.
    """
    s = sample(env, n, z0, proposal, seed, replicas, workers, threshold, capture)
    w = np.exp(s.llr, where=s.hit(event_bound(n, c, side), side),
               out=np.zeros(s.llr.size))
    tot, sq = float(w.sum()), float(w @ w)
    stderr = float(w.std(ddof=1) / math.sqrt(w.size)) if w.size > 1 else 0.0
    return s, w, EstimatorResult(
        estimate=float(w.mean()), stderr=stderr,
        ess=tot * tot / sq if sq > 0.0 else 0.0,
        method=Method.TWO_PHASE if proposal.m > 0 else Method.TILT_ONLY,
        n=n, c=c, replicas=w.size, seed=seed, zero_mass=not w.any(),
        tilt=proposal.free.lam if proposal.m < n else None,
        hold_steps=proposal.m, normal_steps=int(s.normal_steps.sum()),
    )


def estimate_lower_tail(env: EnvironmentLaw, n: int, c: float, z0: int = 1,
                        replicas: int = 10_000, seed: int = 0, workers: int = 1,
                        phase_fraction: Optional[float] = None,
                        methods: Sequence[str] = ("tilt_only", "two_phase"),
                        ) -> LowerTailEstimate:
    """Estimate P(Z_n <= e^{cn}) from both proposals.

    tilt_only is unbiased for the full event.  two_phase is unbiased for
    the partial event that also holds the population for the first m
    generations; it is the one that survives at large n, and its estimate
    is a lower bound for the full probability with the same decay rate.
    c above the typical drift is rejected; c <= 0 is allowed and collapses
    to the pure holding event (the population cannot shrink).  A law that
    cannot hold plans no hold, so its two_phase leg is TiltOnly's run.
    phase_fraction goes to the two_phase leg, which it needs.
    """
    ldr = _check_env(env, n, c, "lower", z0)
    if phase_fraction is not None and "two_phase" not in methods:
        raise InvalidArgumentError(f"phase_fraction={phase_fraction} needs two_phase")
    plans = {method: _plan(env, n, c, z0, "lower", method,
                           phase_fraction if method == "two_phase" else None, ldr)
             for method in methods}
    if event_bound(n, c) < z0:
        # a population that cannot shrink never gets below z0: exactly 0
        return LowerTailEstimate(tilt_only=None, take_off=1.0, two_phase=EstimatorResult(
            estimate=0.0, stderr=0.0, ess=0.0, method=Method.TWO_PHASE, n=n, c=c,
            replicas=replicas, seed=seed, zero_mass=True, tilt=None, hold_steps=n))
    legs = {method: _sample_and_weigh(env, n, c, z0, "lower", proposal,
                                      seed, replicas, workers)[2]
            for method, (proposal, _) in plans.items()}
    return LowerTailEstimate(tilt_only=legs.get("tilt_only"),
                             two_phase=legs.get("two_phase"),
                             take_off=plans.get("two_phase", (None, None))[1])


def empirical_rate(result: EstimatorResult) -> Tuple[float, float]:
    """(-log estimate / n, delta-method stderr); zero estimates are an error."""
    if result.estimate <= 0.0:
        raise ZeroEstimateError(
            f"no event mass in {result.replicas} replicas at n={result.n}"
        )
    rate = -math.log(result.estimate) / result.n
    return rate, result.stderr / (result.estimate * result.n)


class RatePoint(NamedTuple):
    n: int
    c: float
    estimate: float
    rate: float
    rate_stderr: float
    ess: float
    method: Method
    zero_mass: bool


def rate_curve(env: EnvironmentLaw, c: float, n_list: Sequence[int],
               replicas: int = 10_000, seed: int = 0, side: str = "lower",
               z0: int = 1, workers: int = 1,
               phase_fraction: Optional[float] = None) -> list:
    """Empirical decay rates -log(estimate)/n over horizons.

    A point is estimate_lower_tail's two_phase leg, or estimate_upper_tail,
    which has no phase_fraction.  A zero estimate is recorded with an
    infinite rate and the curve stops there.
    """
    if side not in ("lower", "upper"):
        raise InvalidArgumentError(f"side must be 'lower' or 'upper', got {side!r}")
    if side == "upper" and phase_fraction is not None:
        raise InvalidArgumentError(f"phase_fraction={phase_fraction} needs two_phase")
    points = []
    for n in n_list:
        if side == "lower":
            res = estimate_lower_tail(env, n, c, z0, replicas, seed, workers,
                                      phase_fraction, ("two_phase",)).two_phase
        else:
            res = estimate_upper_tail(env, n, c, z0, replicas, seed, workers)
        if res.zero_mass:
            points.append(RatePoint(n, c, 0.0, math.inf, math.nan, 0.0,
                                    res.method, True))
            break
        rate, rse = empirical_rate(res)
        points.append(RatePoint(n, c, res.estimate, rate, rse, res.ess,
                                res.method, False))
    return points


def _ratio_stats(w: np.ndarray, g: np.ndarray) -> Tuple[float, float]:
    """Self-normalized mean of g and its delta-method standard error."""
    tot = w.sum()
    mean = float((w * g).sum() / tot)
    resid = w * (g - mean)
    se = float(np.sqrt((resid * resid).sum()) / tot)
    return mean, se


class TakeOffResult(NamedTuple):
    """Weighted law of tau/n given the population ends below e^{cn}."""

    mean_fraction: float
    stderr: float
    ess: float
    event_estimate: float
    fractions: np.ndarray    # tau/n on event replicas
    weights: np.ndarray      # matching normalized weights
    n: int
    c: float
    pop_threshold: int
    replicas: int
    seed: int
    method: Method
    normal_steps: int        # replica-generations in the log-z lane


def take_off_statistics(env: EnvironmentLaw, n: int, c: float,
                        pop_threshold: int = 10, z0: int = 1,
                        replicas: int = 10_000, seed: int = 0,
                        workers: int = 1,
                        phase_fraction: Optional[float] = None,
                        method: str = "two_phase") -> TakeOffResult:
    """Conditional statistics of the first time Z exceeds pop_threshold.

    tau is capped at n.  Self-normalized under the chosen proposal, so the
    conditioning event is the proposal's event: the full lower event for
    tilt_only, the held partial event for two_phase.
    """
    ldr = _check_env(env, n, c, "lower", z0)
    proposal = _plan(env, n, c, z0, "lower", method, phase_fraction, ldr)[0]
    s, w, res = _sample_and_weigh(env, n, c, z0, "lower", proposal, seed, replicas,
                                  workers, pop_threshold)
    tot = _event_mass(w, n)
    frac = s.tau / n
    mean, se = _ratio_stats(w, frac)
    on = w > 0.0
    return TakeOffResult(
        mean_fraction=mean, stderr=se, ess=res.ess, event_estimate=res.estimate,
        fractions=frac[on], weights=w[on] / tot, n=n, c=c,
        pop_threshold=pop_threshold, replicas=replicas, seed=seed,
        method=res.method, normal_steps=res.normal_steps,
    )


class TrajectoryProfile(NamedTuple):
    """Conditional growth profile on a time grid, against its straight limit."""

    grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    reference: np.ndarray
    sup_distance: float
    sup_distance_stderr: float
    ess: float
    event_estimate: float
    n: int
    c: float
    replicas: int
    seed: int
    method: Method
    normal_steps: int        # replica-generations in the log-z lane


def conditional_profile(env: EnvironmentLaw, n: int, c: float,
                        grid: Optional[Sequence[float]] = None,
                        side: str = "lower", z0: int = 1,
                        replicas: int = 10_000, seed: int = 0,
                        workers: int = 1,
                        phase_fraction: Optional[float] = None,
                        method: Optional[str] = None) -> TrajectoryProfile:
    """Self-normalized estimate of E[(1/n) log Z_{[tn]} | deviation event].

    The reference curve is the flat-then-linear limit for the lower side
    and the straight line c*t for the upper side; sup_distance is the
    weighted mean of each path's sup deviation from it over all n+1 steps.
    """
    ldr = _check_env(env, n, c, side, z0)
    if grid is None:
        grid_arr = np.arange(n + 1) / n
    else:
        grid_arr = np.asarray(list(grid), dtype=float)
        if grid_arr.size == 0 or not np.all((grid_arr >= 0.0) & (grid_arr <= 1.0)):
            raise InvalidArgumentError("grid must be a nonempty subset of [0, 1]")
    grid_idx = np.minimum(n, np.floor(grid_arr * n + 1e-9).astype(np.int64))

    def limit(t: np.ndarray) -> np.ndarray:
        """The reference curve at times t; flat at 0 for a lower c <= 0."""
        if ldr is None:
            return c * t if side == "upper" else np.zeros(t.size)
        return np.array([limit_profile(ldr, x) for x in t])

    ref_at_k, reference = limit(np.arange(n + 1) / n), limit(grid_arr)
    proposal = _plan(env, n, c, z0, side, method, phase_fraction, ldr)[0]
    s, w, res = _sample_and_weigh(env, n, c, z0, side, proposal, seed, replicas,
                                  workers, capture=True)
    _event_mass(w, n)
    # replicas of zero weight add nothing to a weighted mean: drop them
    on = w > 0.0
    w_on, paths = w[on], s.paths[on] / n
    gmat = paths[:, grid_idx]
    values = np.empty(grid_arr.size)
    stderr = np.empty(grid_arr.size)
    for j in range(grid_arr.size):
        values[j], stderr[j] = _ratio_stats(w_on, gmat[:, j])
    d_mean, d_se = _ratio_stats(w_on, np.abs(paths - ref_at_k).max(axis=1))
    return TrajectoryProfile(
        grid=grid_arr, values=values, stderr=stderr, reference=reference,
        sup_distance=d_mean, sup_distance_stderr=d_se,
        ess=res.ess, event_estimate=res.estimate,
        n=n, c=c, replicas=replicas, seed=seed, method=res.method,
        normal_steps=res.normal_steps,
    )
