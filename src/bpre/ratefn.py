"""Rate functions for environment-driven large deviations.

Three parts:

* the Cramér rate function of the log-mean random walk (Legendre-Fenchel
  transform of the log moment generating function phi), with the tilt
  parameter the root of the strictly increasing phi';
* the population lower-deviation rate: hold at one individual, then grow
  along the one slope y* where phi(lam*) = -hold_cost; below y* the rate
  is affine in c, the tangent to the walk rate from (0, hold_cost);
* the event bound e^{cn} that every estimator, oracle and cell tree tests
  Z_n against: event_bound, and its integer floor event_threshold.

One bracketed Newton solve, _increasing_root, finds both roots.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

import numpy as np

from .envmodel import EnvironmentLaw
from .errors import (
    BudgetExceededError,
    COutOfRangeError,
    DegenerateLawError,
    InvalidArgumentError,
    NotStronglySupercriticalError,
    OutOfHullError,
    SideMismatchError,
    TOutOfRangeError,
)

# Log-means closer than this are treated as a single atom of the walk.
ATOM_TOL = 1e-12
# Target residual |phi'(lam) - c| for the tilt solve.
DRIFT_TOL = 1e-12


def _check_c(c: float) -> None:
    """The one NaN rule for c in every rate function: NaN is InvalidArgument."""
    if math.isnan(c):
        raise InvalidArgumentError("c is not a number")


def _check_side(side: str) -> None:
    """The one side rule for an event: lower or upper, else InvalidArgument."""
    if side not in ("lower", "upper"):
        raise InvalidArgumentError(f"side must be 'lower' or 'upper', got {side!r}")


def event_bound(n: int, c: float, side: str = "lower") -> float:
    """e^{cn} moved 1e-9 max(1, e^{cn}) outward, so that a population equal
    to an integer e^{cn} lands on the event side, lower or upper.  A NaN c
    or another side is InvalidArgument; cn past the float range is
    BudgetExceeded."""
    _check_c(c)
    _check_side(side)
    if not c * n <= 709.0:   # e^709 < 1.8e308, the largest float
        raise BudgetExceededError(f"threshold e^(cn) at cn={c * n:g} is past the float range")
    t = math.exp(c * n)
    slack = 1e-9 * max(1.0, t)
    return t + slack if side == "lower" else t - slack


def event_threshold(n: int, c: float) -> int:
    """T = floor(event_bound(n, c)), so Z_n <= e^{cn} is Z_n <= T: the same
    integer population is on the event in the oracles as in the estimators."""
    return math.floor(event_bound(n, c))


def walk_atoms(env: EnvironmentLaw) -> List[Tuple[float, float]]:
    """Distinct (log_mean, weight) atoms of the walk step, sorted ascending.

    Components whose log-means coincide within ATOM_TOL are merged; the
    walk cannot tell them apart.
    """
    pairs = sorted(zip(env.log_means, env.weights))
    atoms: List[Tuple[float, float]] = []
    for L, q in pairs:
        if atoms and abs(L - atoms[-1][0]) <= ATOM_TOL * max(1.0, abs(L)):
            atoms[-1] = (atoms[-1][0], atoms[-1][1] + q)
        else:
            atoms.append((L, q))
    return atoms


def log_mgf(env: EnvironmentLaw, lam: float) -> Tuple[float, float, float]:
    """Value, first, and second derivative of log E[exp(lam * L)].

    Computed in log space so large |lam| cannot overflow.  The second
    derivative is the variance of L under the tilted weights, hence >= 0.
    """
    L = env.log_means_arr
    a = np.log(env.weights_arr) + lam * L
    amax = a.max()
    e = np.exp(a - amax)
    s = e.sum()
    value = float(amax + math.log(s))
    w = e / s
    d1 = float(w @ L)
    d2 = float(w @ (L * L) - d1 * d1)
    return value, d1, max(0.0, d2)


def _increasing_root(g, target: float, what: str) -> float:
    """Solve g(lam)[0] = target for g strictly increasing in lam.

    g returns (value, derivative).  A sign-changing bracket is found by
    doubling from [-64, 64]; then Newton steps, kept only inside the
    bracket, with bisection otherwise.  The result has residual at most
    DRIFT_TOL, or the solve raises OutOfHullError: the bracket passed
    2^40, or 200 iterations did not converge.
    """
    lo, hi = -64.0, 64.0
    while g(lo)[0] > target:
        lo *= 2.0
        if lo < -2.0 ** 40:
            raise OutOfHullError(f"{what} numerically at the hull edge")
    while g(hi)[0] < target:
        hi *= 2.0
        if hi > 2.0 ** 40:
            raise OutOfHullError(f"{what} numerically at the hull edge")
    lam = 0.5 * (lo + hi)
    for _ in range(200):
        value, slope = g(lam)
        f = value - target
        if abs(f) <= DRIFT_TOL:
            return lam
        if f > 0:
            hi = lam
        else:
            lo = lam
        step = lam - f / slope if slope > 0 else None
        lam = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise OutOfHullError(f"{what} unsolved after 200 iterations, residual {f:.3g}")


def tilt_parameter(env: EnvironmentLaw, c: float) -> float:
    """Solve phi'(lam) = c for the tilt exponent lam.

    Requires c strictly inside the open hull (Lmin, Lmax) of the walk
    atoms, where phi' is strictly increasing; _increasing_root gives
    |phi'(lam) - c| <= 1e-12 or raises OutOfHullError.
    """
    _check_c(c)
    atoms = walk_atoms(env)
    if len(atoms) == 1:
        L0 = atoms[0][0]
        if abs(c - L0) <= ATOM_TOL * max(1.0, abs(L0)):
            return 0.0
        raise DegenerateLawError(f"single log-mean atom {L0}; drift {c} unreachable")
    lo_edge, hi_edge = atoms[0][0], atoms[-1][0]
    if not (lo_edge < c < hi_edge):
        raise OutOfHullError(f"drift {c} outside open hull ({lo_edge}, {hi_edge})")
    return _increasing_root(lambda lam: log_mgf(env, lam)[1:], c, f"drift {c}")


def walk_rate(env: EnvironmentLaw, c: float) -> float:
    """Cramér rate of the log-mean walk: sup over lam of c*lam - phi(lam).

    Inside the open hull this is c*lam_c - phi(lam_c).  At a hull endpoint
    the walk must draw the extreme atoms every step, so the rate is
    -log(total weight of that extreme atom group).  Outside the closed
    hull the event is impossible and the rate is +inf.
    """
    _check_c(c)
    atoms = walk_atoms(env)
    lo_edge, hi_edge = atoms[0][0], atoms[-1][0]
    scale = max(1.0, abs(lo_edge), abs(hi_edge))
    if len(atoms) == 1:
        return 0.0 if abs(c - lo_edge) <= ATOM_TOL * scale else math.inf
    if abs(c - lo_edge) <= ATOM_TOL * scale:
        return -math.log(atoms[0][1])
    if abs(c - hi_edge) <= ATOM_TOL * scale:
        return -math.log(atoms[-1][1])
    if c < lo_edge or c > hi_edge:
        return math.inf
    lam = tilt_parameter(env, c)
    value, _, _ = log_mgf(env, lam)
    return float(max(0.0, c * lam - value))


def two_env_walk_rate(L1: float, L2: float, q: float, c: float) -> float:
    """Closed-form walk rate for a two-atom step law.

    The step is L1 with weight q and L2 with weight 1-q (L1 < L2); the
    normalized position z = (c - L1)/(L2 - L1) turns the rate into the
    binary relative entropy of z against 1-q.
    """
    if not L1 < L2:
        raise DegenerateLawError(f"need L1 < L2, got {L1}, {L2}")
    if not 0.0 < q < 1.0:
        raise DegenerateLawError(f"weight q={q} outside (0, 1)")
    _check_c(c)
    z = (c - L1) / (L2 - L1)
    if z < -1e-15 or z > 1.0 + 1e-15:
        raise OutOfHullError(f"drift {c} outside [{L1}, {L2}]")
    z = min(1.0, max(0.0, z))
    p = 1.0 - q

    def xlogx(x, ref):
        return 0.0 if x == 0.0 else x * math.log(x / ref)

    return xlogx(z, p) + xlogx(1.0 - z, 1.0 - p)


class LowerDeviationRate(NamedTuple):
    """Solution of the hold-then-grow optimization for P(Z_n <= exp(cn)).

    ``take_off`` is the optimal fraction of the horizon spent at
    population one, ``slope`` the growth rate of the remaining fraction,
    and ``rate`` the resulting exponential cost
    hold_cost * take_off + (1 - take_off) * walk_rate(slope).
    """

    c: float
    take_off: float
    rate: float
    slope: float


def lower_deviation_rate(env: EnvironmentLaw, c: float) -> LowerDeviationRate:
    """Minimize v(t) = hold_cost*t + (1-t)*walk_rate(c/(1-t)) over t.

    Requires a strongly supercritical law and 0 < c < mean log-mean.  With
    rho = hold_cost, v'(t) = rho + phi(lam(c/(1-t))), so an optimum t > 0
    grows at the one slope y* = phi'(lam*), phi(lam*) = -rho, whatever c:
    for c < y*, t = 1 - c/y* and the rate is rho + lam* c, the tangent to
    walk_rate from (0, rho).  For c >= y*, or with no such lam*, t = 0.
    """
    if not env.strongly_supercritical:
        raise NotStronglySupercriticalError("law admits zero offspring")
    _check_c(c)
    lbar = env.mean_log_mean
    if not 0.0 < c < lbar:
        raise COutOfRangeError(f"c={c} outside (0, {lbar})")
    rho, (L0, q0) = env.hold_cost, walk_atoms(env)[0]
    # as lam -> -inf, phi falls to log q0 if the lowest atom is L0 = 0, else to -inf
    if (math.log(q0) if L0 == 0.0 else -math.inf) < -rho:
        lam = _increasing_root(lambda lam: log_mgf(env, lam)[:2], -rho, f"hold cost {rho}")
        value, y, _ = log_mgf(env, lam)
        lam -= (value + rho) / y   # one more Newton step: residual to rounding
        y = log_mgf(env, lam)[1]
        if c < y:
            return LowerDeviationRate(c=c, take_off=1.0 - c / y, rate=rho + lam * c, slope=y)
    return LowerDeviationRate(c=c, take_off=0.0, rate=walk_rate(env, c), slope=c)


def limit_profile(result: LowerDeviationRate, t: float) -> float:
    """Limiting conditional growth profile: flat until take-off, then linear.

    Value at t of the curve that (1/n) log Z_{[tn]} concentrates on,
    conditionally on the population staying below exp(cn).
    """
    if not 0.0 <= t <= 1.0:
        raise TOutOfRangeError(f"t={t} outside [0, 1]")
    if t <= result.take_off:
        return 0.0
    return result.c * (t - result.take_off) / (1.0 - result.take_off)


def chernoff_bound(env: EnvironmentLaw, n: int, c: float, side: str) -> float:
    """Non-asymptotic bound exp(-n * walk_rate(c)) on a walk tail.

    side="lower" bounds P(S_n <= nc) and requires c <= mean log-mean;
    side="upper" bounds P(S_n >= nc) and requires c >= mean log-mean.
    Valid for every n >= 0, not just asymptotically.
    """
    if side not in ("lower", "upper"):
        raise SideMismatchError(f"side must be 'lower' or 'upper', got {side!r}")
    _check_c(c)
    lbar = env.mean_log_mean
    tol = 1e-12 * max(1.0, abs(lbar))
    if side == "lower" and c > lbar + tol:
        raise SideMismatchError(f"lower-side bound needs c <= {lbar}, got {c}")
    if side == "upper" and c < lbar - tol:
        raise SideMismatchError(f"upper-side bound needs c >= {lbar}, got {c}")
    if n < 0:
        raise COutOfRangeError("n must be >= 0")
    if n == 0:
        return 1.0
    rate = walk_rate(env, c)
    return math.exp(-n * rate) if math.isfinite(rate) else 0.0
