"""Rate functions for environment-driven large deviations.

Two layers:

* the Cramér rate function of the log-mean random walk (Legendre-Fenchel
  transform of the log moment generating function), with the tilt
  parameter solved by bracketed bisection on the strictly increasing
  derivative;
* the population lower-deviation rate, which optimizes over splitting the
  horizon into a "hold at one individual" phase and a tilted growth phase.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .envmodel import EnvironmentLaw
from .errors import (
    COutOfRangeError,
    DegenerateLawError,
    NotStronglySupercriticalError,
    OutOfHullError,
    SideMismatchError,
    TOutOfRangeError,
)

# Log-means closer than this are treated as a single atom of the walk.
ATOM_TOL = 1e-12
# Target residual |phi'(lam) - c| for the tilt solve.
DRIFT_TOL = 1e-12


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


def tilt_parameter(env: EnvironmentLaw, c: float) -> float:
    """Solve phi'(lam) = c for the tilt exponent lam.

    Requires c strictly inside the open hull (Lmin, Lmax) of the walk
    atoms.  phi' is strictly increasing, so a sign-changing bracket found
    by doubling from [-64, 64] plus bisection with a Newton polish
    converges; the result satisfies |phi'(lam) - c| <= 1e-12, or the
    solve raises OutOfHullError after 200 iterations.
    """
    atoms = walk_atoms(env)
    if len(atoms) == 1:
        L0 = atoms[0][0]
        if abs(c - L0) <= ATOM_TOL * max(1.0, abs(L0)):
            return 0.0
        raise DegenerateLawError(f"single log-mean atom {L0}; drift {c} unreachable")
    lo_edge, hi_edge = atoms[0][0], atoms[-1][0]
    if not (lo_edge < c < hi_edge):
        raise OutOfHullError(f"drift {c} outside open hull ({lo_edge}, {hi_edge})")

    def resid(lam):
        return log_mgf(env, lam)[1] - c

    lo, hi = -64.0, 64.0
    flo, fhi = resid(lo), resid(hi)
    while flo > 0:
        lo *= 2.0
        flo = resid(lo)
        if lo < -2.0 ** 40:
            raise OutOfHullError(f"drift {c} numerically at the hull edge")
    while fhi < 0:
        hi *= 2.0
        fhi = resid(hi)
        if hi > 2.0 ** 40:
            raise OutOfHullError(f"drift {c} numerically at the hull edge")
    lam = 0.5 * (lo + hi)
    for _ in range(200):
        f = resid(lam)
        if abs(f) <= DRIFT_TOL:
            return lam
        if f > 0:
            hi = lam
        else:
            lo = lam
        # Newton step from the tilted variance, kept only inside the bracket
        d2 = log_mgf(env, lam)[2]
        step = lam - f / d2 if d2 > 0 else None
        lam = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise OutOfHullError(f"drift {c} unsolved after 200 iterations, residual {f:.3g}")


def walk_rate(env: EnvironmentLaw, c: float) -> float:
    """Cramér rate of the log-mean walk: sup over lam of c*lam - phi(lam).

    Inside the open hull this is c*lam_c - phi(lam_c).  At a hull endpoint
    the walk must draw the extreme atoms every step, so the rate is
    -log(total weight of that extreme atom group).  Outside the closed
    hull the event is impossible and the rate is +inf.
    """
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


def clipped_walk_rate(env: EnvironmentLaw, c: float) -> float:
    """Walk rate clipped to zero at and above the mean log-mean.

    This is the effective cost of keeping the walk below nc: above the
    mean the typical path already qualifies.
    """
    if c >= env.mean_log_mean:
        return 0.0
    return walk_rate(env, c)


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
    z = (c - L1) / (L2 - L1)
    if z < -1e-15 or z > 1.0 + 1e-15:
        raise OutOfHullError(f"drift {c} outside [{L1}, {L2}]")
    z = min(1.0, max(0.0, z))
    p = 1.0 - q

    def xlogx(x, ref):
        return 0.0 if x == 0.0 else x * math.log(x / ref)

    return xlogx(z, p) + xlogx(1.0 - z, 1.0 - p)


class Regime(enum.Enum):
    """How the optimal lower-deviation strategy spends the horizon."""

    WITH_HOLDING = "WithHolding"   # holding at one individual is possible
    PURE_TILT = "PureTilt"         # no single-offspring mass; environments only


@dataclass(frozen=True)
class LowerDeviationRate:
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
    regime: Regime


def lower_deviation_rate(env: EnvironmentLaw, c: float) -> LowerDeviationRate:
    """Optimize v(t) = hold_cost*t + (1-t)*walk_rate(c/(1-t)) over t.

    Requires a strongly supercritical law and 0 < c < mean log-mean.  The
    derivative simplifies to v'(t) = hold_cost + phi(lam(c/(1-t))), which
    is strictly increasing in t (v is convex), so a sign test at the
    endpoints plus bisection pins the minimizer to 1e-8 or better.
    """
    if not env.strongly_supercritical:
        raise NotStronglySupercriticalError("law admits zero offspring")
    lbar = env.mean_log_mean
    if not 0.0 < c < lbar:
        raise COutOfRangeError(f"c={c} outside (0, {lbar})")
    rho = env.hold_cost
    if env.mean_p1 == 0.0:
        return LowerDeviationRate(
            c=c, take_off=0.0, rate=walk_rate(env, c), slope=c, regime=Regime.PURE_TILT
        )
    atoms = walk_atoms(env)
    t_hi = 1.0 - c / lbar
    if len(atoms) == 1:
        # deterministic log-mean: the growth phase has exactly one slope
        return LowerDeviationRate(
            c=c, take_off=t_hi, rate=rho * t_hi, slope=lbar, regime=Regime.WITH_HOLDING
        )
    lo_edge = atoms[0][0]
    t_lo = 1.0 - c / lo_edge if c < lo_edge else 0.0

    def dv(t):
        y = c / (1.0 - t)
        lam = tilt_parameter(env, y)
        return rho + log_mgf(env, lam)[0]

    if t_lo == 0.0 and dv(min(1e-13, 0.5 * t_hi)) >= 0.0:
        t_c = 0.0
    else:
        # dv < 0 at t_lo ((-inf when the slope sits at the hull edge) and
        # dv -> hold_cost > 0 as t -> t_hi: bisect on the sign
        lo, hi = t_lo, t_hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-12:
                break
            if dv(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        t_c = 0.5 * (lo + hi)
    slope = c / (1.0 - t_c)
    rate = rho * t_c + (1.0 - t_c) * walk_rate(env, slope)
    return LowerDeviationRate(
        c=c, take_off=t_c, rate=rate, slope=slope, regime=Regime.WITH_HOLDING
    )


def limit_profile(result: LowerDeviationRate, t: float) -> float:
    """Limiting conditional growth profile: flat until take-off, then linear.

    Value at t of the curve that (1/n) log Z_{[tn]} concentrates on,
    conditionally on the population staying below exp(cn).
    """
    if t < 0.0 or t > 1.0:
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
