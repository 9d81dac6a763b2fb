"""Importance-sampling estimators for rare population events.

Every path is sampled under one exponential tilt of the environment
mixture, tilt(env, lam): a simulate.Proposal that reweights component i
by m_i^lam and carries the exact per-step likelihood ratio; _plan picks
its drift.  TiltOnly tilts every generation; it is efficient for upper
deviations and for lower deviations at small n.  TwoPhase estimates the
partial event {Z_1 = ... = Z_m = z0, Z_n <= e^{cn}} for
m = round(take_off * n), whose decay rate matches the full event's.
By the Markov property at generation m it factors as
(E p1^{z0})^m P_{z0}(Z_{n-m} <= e^{cn}): the hold is weighed by its exact
probability and only the n - m free generations are sampled, by a tilted
run from z0.  TwoPhase with m = 0, the plan of a law without
single-offspring mass, is TiltOnly exactly.  Each estimate is one
EstimatorResult, labelled by its Method.

All estimators run on the block engine of simulate, where each block of
replicas draws from its own counter-based stream, so results are
byte-identical for any worker count.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .envmodel import EnvironmentLaw
from .errors import (
    BudgetExceededError,
    COutOfRangeError,
    InvalidArgumentError,
    NoEventMassError,
    NoHoldingPossibleError,
    NotStronglySupercriticalError,
    ZeroEstimateError,
)
from .ratefn import (LowerDeviationRate, _check_c, event_bound, limit_profile, log_mgf,
                     lower_deviation_rate, tilt_parameter)
from .rng import STREAM_TILT, STREAM_TWO_PHASE
from .simulate import Lanes, Proposal, sample

HULL_CLAMP = 1e-9   # tilt targets pushed this fraction of the span inside the hull

# Most log-population entries, replicas x (n + 1), one conditional_profile keeps,
# refused before anything is allocated.  Traced peaks: 25-31 B an entry (1,074-
# 1,077 B a replica on fig2 at n = 40, 2,024-2,036 at n = 80, 271-275 on g2 at
# n = 8, at 5,000 and 20,000 replicas), 0.8-1.0 GB at the bound.
PATH_ENTRIES_MAX = 1 << 25


class Method(str, enum.Enum):
    TILT_ONLY = "TiltOnly"
    TWO_PHASE = "TwoPhase"


class EstimatorResult(NamedTuple):
    """One probability estimate with its uncertainty bookkeeping.

    ``ess`` is the effective sample size (sum of weights squared over sum
    of squared weights) of the event-weighted sample.  ``estimate`` equal
    to 0.0 is an exact "no event mass seen" outcome, flagged by
    ``zero_mass``.  ``normal_steps`` counts the replica-generations that
    branched by the normal approximation of the simulator's log-z lane, and
    ``processes`` the processes the replicas ran on (1 in process).
    """

    estimate: float
    stderr: float
    ess: float
    method: Method
    n: int
    c: float
    replicas: int
    zero_mass: bool = False
    tilt: Optional[float] = None        # tilt exponent used, if any
    hold_steps: int = 0                 # held generations, weighed exactly, not sampled
    normal_steps: int = 0               # replica-generations in the log-z lane
    processes: int = 1


def tilt(env: EnvironmentLaw, lam: float) -> Proposal:
    """The environment mixture reweighted by m^lam, offspring laws untouched.

    Component i is drawn with weight w_i m_i^lam / E(m^lam), and each draw
    adds log E(m^lam) - lam L_i to the path's log likelihood ratio.
    """
    value, _, _ = log_mgf(env, lam)
    w = np.exp(np.log(env.weights_arr) + lam * env.log_means_arr - value)
    return Proposal(np.cumsum(w / w.sum()), value - lam * env.log_means_arr, lam)


def tilt_toward(env: EnvironmentLaw, drift: float) -> Proposal:
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


def _log_hold(env: EnvironmentLaw, z0: int) -> float:
    """log E(p1^{z0}), the log probability that z0 individuals have one child
    each in a generation; summed in log space, where p1^{z0} cannot
    underflow.  Needs single-offspring mass."""
    p1 = np.array([d.p1 for d in env.components])
    pos = p1 > 0.0
    return float(np.logaddexp.reduce(np.log(env.weights_arr[pos]) + z0 * np.log(p1[pos])))


def _event_mass(w: np.ndarray, n: int) -> float:
    """Total weight of a sample that conditions on the event; none is an error."""
    tot = float(w.sum())
    if tot == 0.0:
        raise NoEventMassError(f"no replica of {w.size} reached the event at n={n}")
    return tot


class Event(NamedTuple):
    """One call's event from z0: Z_n <= e^{cn} on the lower side, Z_n >= e^{cn}
    on the upper.  ldr is the call's one rate solve, lower_deviation_rate(env,
    c) on the lower side with c > 0, and None otherwise."""

    env: EnvironmentLaw
    n: int
    c: float
    z0: int
    side: str
    ldr: Optional[LowerDeviationRate]


def _event(env: EnvironmentLaw, n: int, c: float, side: str, z0: int) -> Event:
    """The call's Event; a call the estimators cannot serve is refused."""
    if n < 1:
        raise InvalidArgumentError(f"n={n} must be >= 1")
    if z0 < 1:
        raise InvalidArgumentError(f"initial population z0={z0} must be >= 1")
    _check_c(c)
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
    ldr = lower_deviation_rate(env, c) if side == "lower" and c > 0.0 else None
    return Event(env, n, c, z0, side, ldr)


def estimate_upper_tail(env: EnvironmentLaw, n: int, c: float, z0: int = 1,
                        replicas: int = 10_000, seed: int = 0,
                        workers: int = 1) -> EstimatorResult:
    """Unbiased tilted estimate of P(Z_n >= e^{cn}).

    The environment is tilted toward drift c (clamped into the hull for c
    at or beyond the top log-mean, where the estimate is honestly tiny or
    zero).
    """
    event = _event(env, n, c, "upper", z0)
    return _sample_and_weigh(event, _plan(event, None, None), seed, replicas, workers)[2]


class LowerTailEstimate(NamedTuple):
    """TiltOnly estimates the full event; TwoPhase the held partial event.
    Every call weighs both."""

    tilt_only: EstimatorResult
    two_phase: EstimatorResult
    take_off: float   # hold fraction behind the TwoPhase split


def _plan(event: Event, method: Optional[str],
          phase_fraction: Optional[float]) -> Tuple[Proposal, int, float]:
    """The one planner: the event's free-run proposal, its held generations m
    and hold fraction (0.0 for tilt_only, where no caller reads it).

    method defaults to two_phase below and tilt_only above.  tilt_only
    steers every generation toward c.  two_phase holds the first
    m = round(fraction * n) generations, the fraction being phase_fraction
    or else the optimal take-off (0 for a law without single-offspring
    mass), and steers the n - m free ones toward c n / (n - m), which is c
    at m = 0: TwoPhase with m = 0 is TiltOnly exactly.  Below the least
    log-mean no environment sequence has that drift; the event is carried
    by paths that hold and then grow along the limit slope y*, which does
    not depend on c, so the run steers toward ldr.slope instead of a
    degenerate corner.  A lower drift past the typical one, L-bar, is
    capped there: past it the free event is typical, and steering toward
    faster growth only adds variance.  An unknown method, two_phase above,
    a phase_fraction under tilt_only or outside [0, 1] raise
    InvalidArgumentError; a hold asked of a law that cannot hold raises
    NoHoldingPossibleError.  ldr is the event's rate solve.
    """
    env, n, c, _, side, ldr = event
    method = method or ("two_phase" if side == "lower" else "tilt_only")
    if method not in ("tilt_only", "two_phase"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    if method == "two_phase" and side == "upper":
        raise InvalidArgumentError("the upper side has no two_phase proposal")
    if method == "tilt_only" and phase_fraction is not None:
        raise InvalidArgumentError(f"phase_fraction={phase_fraction} needs two_phase")
    if phase_fraction is not None:
        if not 0.0 <= phase_fraction <= 1.0:
            raise InvalidArgumentError(f"phase_fraction={phase_fraction} outside [0, 1]")
        frac = phase_fraction
    elif method == "tilt_only" or env.mean_p1 == 0.0:
        frac = 0.0   # no hold asked, or nothing to hold with
    elif c <= 0.0:
        frac = 1.0   # threshold at or below the floor: the event forces holding throughout
    else:
        frac = ldr.take_off
    m = int(round(frac * n))
    if m > 0 and env.mean_p1 == 0.0:
        raise NoHoldingPossibleError("no component has single-offspring mass; "
                                     "holding impossible")
    if m == n:
        proposal = tilt(env, 0.0)   # no free generations to tilt
    else:
        drift = c * n / (n - m)
        if side == "lower":
            drift = (ldr.slope if 0.0 < drift <= env.log_mean_min
                     else min(drift, env.mean_log_mean))
        proposal = tilt_toward(env, drift)
    # m = 0 is TiltOnly exactly, on its stream; a hold gets its own, so the legs stay independent
    return proposal._replace(stream=STREAM_TWO_PHASE if m > 0 else STREAM_TILT), m, frac


def _sample_and_weigh(event: Event, plan: tuple, seed: int, replicas: int, workers: int,
                      threshold: Optional[int] = None, capture: bool = False
                      ) -> Tuple[Lanes, np.ndarray, EstimatorResult]:
    """Replicas of the event's plan, each one's weight, exp(llr) on the
    event's side of e^{cn} and 0 off it, and the estimate the weights make.

    A plan holding m generations samples the last n - m, from z0, and adds
    the hold's exact log probability, m log E(p1^{z0}), to each llr.  A
    held-zero horizon, e^{cn} < z0 below, samples no generation: a
    population that cannot shrink never gets below z0, so that run makes
    no draw, starts no pool and weighs every replica 0.  threshold and
    capture go to sample.  ess is (sum w)^2 / sum w^2, 0 for an all-zero
    sample; the tilt is the free run's, None when every generation is held.
    The bound e^{cn} is taken here, so a bound past the float range is
    refused after the event's and the plan's own refusals.
    """
    env, n, c, z0, side, _ = event
    proposal, m, _ = plan
    bound = event_bound(n, c, side)
    steps = 0 if side == "lower" and bound < z0 else n - m
    s = sample(env, steps, z0, proposal, seed, replicas, workers, threshold, capture)
    llr = s.llr + m * _log_hold(env, z0) if m > 0 else s.llr
    w = np.exp(llr, where=s.hit(bound, side), out=np.zeros(llr.size))
    tot, sq = float(w.sum()), float(w @ w)
    stderr = float(w.std(ddof=1) / math.sqrt(w.size)) if w.size > 1 else 0.0
    return s, w, EstimatorResult(
        estimate=float(w.mean()), stderr=stderr,
        ess=tot * tot / sq if sq > 0.0 else 0.0,
        method=Method.TWO_PHASE if m > 0 else Method.TILT_ONLY,
        n=n, c=c, replicas=w.size, zero_mass=not w.any(),
        tilt=proposal.lam if m < n else None, hold_steps=m,
        normal_steps=int(s.normal_steps.sum()), processes=s.processes,
    )


def estimate_lower_tail(env: EnvironmentLaw, n: int, c: float, z0: int = 1,
                        replicas: int = 10_000, seed: int = 0, workers: int = 1,
                        phase_fraction: Optional[float] = None) -> LowerTailEstimate:
    """Estimate P(Z_n <= e^{cn}) from both proposals.

    tilt_only is unbiased for the full event.  two_phase is unbiased for
    the partial event that also holds the population for the first m
    generations; it is the one that survives at large n, and its estimate
    is a lower bound for the full probability with the same decay rate.
    c above the typical drift is rejected; c <= 0 is allowed and collapses
    to the pure holding event (the population cannot shrink).  A law that
    cannot hold plans no hold, so its two_phase leg is TiltOnly's run.
    phase_fraction goes to the two_phase leg.  A held-zero horizon,
    e^{cn} < z0, samples no generation: each leg is its exact zero,
    labelled, like a sampled leg and take_off, by its plan.
    """
    event = _event(env, n, c, "lower", z0)
    plans = (_plan(event, "tilt_only", None), _plan(event, "two_phase", phase_fraction))
    tilt_only, two_phase = (_sample_and_weigh(event, plan, seed, replicas, workers)[2]
                            for plan in plans)
    return LowerTailEstimate(tilt_only, two_phase, take_off=plans[1][2])


def empirical_rate(result: EstimatorResult) -> Tuple[float, float]:
    """(-log estimate / n, delta-method stderr); zero estimates are an error."""
    if result.estimate <= 0.0:
        raise ZeroEstimateError(
            f"no event mass in {result.replicas} replicas at n={result.n}"
        )
    rate = -math.log(result.estimate) / result.n
    return rate, result.stderr / (result.estimate * result.n)


class RatePoint(NamedTuple):
    """One horizon of rate_curve: -log(estimate)/n and its delta-method stderr.

    A zero-mass result has rate inf and rate_stderr nan.  result estimates
    the full event when result.method is TiltOnly, the held event when it
    is TwoPhase.
    """

    rate: float
    rate_stderr: float
    result: EstimatorResult


def rate_curve(env: EnvironmentLaw, c: float, n_list: Sequence[int],
               replicas: int = 10_000, seed: int = 0, side: str = "lower",
               z0: int = 1, workers: int = 1) -> list:
    """Empirical decay rates -log(estimate)/n over horizons.

    Each point is checked, planned with the side's default method and
    weighed as every reader's is, so it equals estimate_lower_tail's
    two_phase leg below and estimate_upper_tail above.  A zero estimate is
    recorded with an infinite rate and the curve stops there.  An empty
    n_list returns [] whatever the side.
    """
    points = []
    for n in n_list:
        event = _event(env, n, c, side, z0)
        res = _sample_and_weigh(event, _plan(event, None, None), seed, replicas, workers)[2]
        rate, rse = (math.inf, math.nan) if res.zero_mass else empirical_rate(res)
        points.append(RatePoint(rate, rse, res))
        if res.zero_mass:
            break
    return points


def _ratio_stats(w: np.ndarray, g: np.ndarray) -> Tuple[float, float]:
    """Self-normalized mean of g and its delta-method standard error."""
    tot = w.sum()
    mean = float((w * g).sum() / tot)
    resid = w * (g - mean)
    se = float(np.sqrt((resid * resid).sum()) / tot)
    return mean, se


class TakeOffResult(NamedTuple):
    """Weighted law of tau/n given the population ends below e^{cn}.

    result is the weighing it reads: the event conditioned on is the full
    lower event when result.method is TiltOnly, the held event when it is
    TwoPhase.  ess is result.ess.
    """

    mean_fraction: float
    stderr: float
    ess: float
    fractions: np.ndarray    # tau/n on event replicas
    weights: np.ndarray      # matching normalized weights
    result: EstimatorResult


def take_off_statistics(env: EnvironmentLaw, n: int, c: float,
                        pop_threshold: int = 10, z0: int = 1,
                        replicas: int = 10_000, seed: int = 0,
                        workers: int = 1,
                        phase_fraction: Optional[float] = None,
                        method: str = "two_phase") -> TakeOffResult:
    """Conditional statistics of the first time Z exceeds pop_threshold.

    tau is capped at n.  Self-normalized under the chosen proposal, so the
    event conditioned on is the one its result's method names.
    """
    event = _event(env, n, c, "lower", z0)
    plan = _plan(event, method, phase_fraction)
    s, w, res = _sample_and_weigh(event, plan, seed, replicas, workers, pop_threshold)
    tot = _event_mass(w, n)
    # a held path is above the threshold from the start or takes off after the hold
    frac = (s.tau + (res.hold_steps if z0 <= pop_threshold else 0)) / n
    mean, se = _ratio_stats(w, frac)
    on = w > 0.0
    return TakeOffResult(mean_fraction=mean, stderr=se, ess=res.ess,
                         fractions=frac[on], weights=w[on] / tot, result=res)


class TrajectoryProfile(NamedTuple):
    """Conditional growth profile on a time grid, against its straight limit.

    result is the weighing it reads: the event conditioned on is the full
    event when result.method is TiltOnly, the held event when it is
    TwoPhase.  ess and event_estimate are result.ess and result.estimate.
    """

    grid: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    reference: np.ndarray
    sup_distance: float
    sup_distance_stderr: float
    ess: float
    event_estimate: float
    result: EstimatorResult


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
    More than PATH_ENTRIES_MAX path entries raise BudgetExceededError.
    """
    event = _event(env, n, c, side, z0)
    if replicas * (n + 1) > PATH_ENTRIES_MAX:
        raise BudgetExceededError(f"{replicas} paths of {n + 1} entries exceed the "
                                  f"budget of {PATH_ENTRIES_MAX} entries")
    if grid is None:
        grid_arr = np.arange(n + 1) / n
    else:
        grid_arr = np.asarray(list(grid), dtype=float)
        if grid_arr.size == 0 or not np.all((grid_arr >= 0.0) & (grid_arr <= 1.0)):
            raise InvalidArgumentError("grid must be a nonempty subset of [0, 1]")
    grid_idx = np.minimum(n, np.floor(grid_arr * n + 1e-9).astype(np.int64))

    def limit(t: np.ndarray) -> np.ndarray:
        """The reference curve at times t; flat at 0 for a lower c <= 0."""
        if event.ldr is None:
            return c * t if side == "upper" else np.zeros(t.size)
        return np.array([limit_profile(event.ldr, x) for x in t])

    ref_at_k, reference = limit(np.arange(n + 1) / n), limit(grid_arr)
    plan = _plan(event, method, phase_fraction)
    s, w, res = _sample_and_weigh(event, plan, seed, replicas, workers, capture=True)
    _event_mass(w, n)
    # replicas of zero weight add nothing to a weighted mean: drop them; a
    # held path sits at log z0, its free run's first entry, through the hold
    on, m = w > 0.0, res.hold_steps
    w_on, paths = w[on], np.repeat(s.paths[on], [m + 1] + [1] * (n - m), axis=1) / n
    gmat = paths[:, grid_idx]
    values = np.empty(grid_arr.size)
    stderr = np.empty(grid_arr.size)
    for j in range(grid_arr.size):
        values[j], stderr[j] = _ratio_stats(w_on, gmat[:, j])
    d_mean, d_se = _ratio_stats(w_on, np.abs(paths - ref_at_k).max(axis=1))
    return TrajectoryProfile(
        grid=grid_arr, values=values, stderr=stderr, reference=reference,
        sup_distance=d_mean, sup_distance_stderr=d_se,
        ess=res.ess, event_estimate=res.estimate, result=res,
    )
