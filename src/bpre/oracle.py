"""Exact desk-scale oracles.

Everything here is computed by enumeration or dynamic programming, never by
sampling, so simulator and estimator output can be checked against it.

The population DP keeps the exact pmf of Z_n on {0..cap} plus one overflow
bucket.  Truncation commutes with convolution on the kept coefficients, so
below-cap masses are exact; for a law that cannot shrink (p0 = 0 in every
component: env.strongly_supercritical) the overflow bucket is absorbing
and every event {Z_n <= K} with K <= cap is exact whatever overflowed.
Each generation is a blocked (baby-step/giant-step) composition per law,
on the lattice of its support's gcd: one matrix product for all baby
steps, then a Horner pass.  The DP keeps its last call's final pmf and
its laws' tables and resumes from them, bytes unchanged.

Environments are i.i.d. across generations, so under the annealed law Z is
a Markov chain; the trajectory oracle is a forward pass over it and a
backward one, by the transposed composition, on the states at or below the
event threshold.  Both oracles build their tables by _lattice_tables, step
forward by _generation and pass one guard, _budget: a dense table holds at
most ENTRY_BUDGET floats (32 MB) and the passes at most WORK_BUDGET
estimated multiply-adds, or the call raises BudgetExceeded up front.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .envmodel import EnvironmentLaw, _check_side
from .errors import (
    BudgetExceededError,
    CapTooSmallError,
    InvalidArgumentError,
    NotStronglySupercriticalError,
    TooManyComponentsError,
)
from .ratefn import _check_c, event_threshold, walk_atoms

COMPOSITION_BUDGET = 500_000
ENTRY_BUDGET = 4_000_000    # float64 entries in one dense oracle table
WORK_BUDGET = 5 * 10**11    # multiply-adds of one population DP, a minute or two
BLOCK_ROWS = 128            # baby-step rows of the population DP's composition

# (env, z0, cap, rows) -> n, pmf, overflow, lattice tables (or None) of the last DP
_last = _EMPTY = (None, 0, None, 0.0, None)


class ExactDistribution(NamedTuple):
    """Truncated exact law of Z_n: pmf on 0..cap plus overflow mass."""

    probs: np.ndarray
    overflow: float
    cap: int
    nondecreasing: bool   # law cannot shrink: overflow is absorbing, below-cap exact

    def prob_eq(self, k: int) -> float:
        if 0 <= k <= self.cap:
            return float(self.probs[k])
        return 0.0

    def le_error_bound(self, k: int) -> float:
        """Worst-case error of prob_le(k) due to truncation."""
        if self.nondecreasing and k <= self.cap:
            return 0.0
        return self.overflow

    def _refuse(self, k: int, tol: Optional[float]) -> None:
        """prob_le(k)'s check of tol."""
        if tol is not None and not tol >= 0.0:
            raise InvalidArgumentError(f"tol={tol} must be a number >= 0")
        if tol is not None and self.le_error_bound(k) > tol:
            raise CapTooSmallError(
                f"cap={self.cap} leaves error bound {self.le_error_bound(k):.3g} "
                f"> tol={tol:.3g} for P(Z_n <= {k})"
            )

    def prob_le(self, k: int, tol: Optional[float] = None) -> float:
        """P(Z_n <= k), exact up to le_error_bound(k).

        With tol given, raises CapTooSmall when the truncation error bound
        exceeds it; a tol that is NaN or negative is InvalidArgument.
        """
        self._refuse(k, tol)
        if k < 0:
            return 0.0
        return float(self.probs[: min(k, self.cap) + 1].sum())

    def prob_ge(self, k: int, tol: Optional[float] = None) -> float:
        """P(Z_n >= k), exact up to le_error_bound(k - 1); tol as prob_le(k - 1)'s.

        The pmf from k plus the overflow, at most 1: summed directly, a
        small tail keeps its relative precision, where 1 - prob_le(k - 1)
        would lose it.  overflow is itself a difference of sums, good to
        about 1e-16 absolute.
        """
        self._refuse(k - 1, tol)
        if k <= 0:
            return 1.0
        return min(1.0, float(self.probs[k:].sum()) + self.overflow)


def _compose(v: np.ndarray, baby: np.ndarray, giant: np.ndarray,
             low: int, cap: int) -> np.ndarray:
    """Coefficients of V(F(s)) up to degree cap, V(s) = sum_j v[j] s^j.

    With B = len(baby) and V = sum_b s^(bB) V_b, deg V_b < B: V(F) = sum_b
    G^b V_b(F), G = giant = F^B, by one (blocks x B) @ baby product (baby
    holds F^0..F^(B-1); split into whole blocks of at most ENTRY_BUDGET
    entries) and a Horner pass over b (Paterson & Stockmeyer 1973).  G
    starts at degree B low, so each Horner step convolves with G's nonzero
    tail only and shifts the result by B low, and step b keeps degrees up
    to cap - bB low.  v may run past cap (a law composed on its lattice
    sees the whole pmf at cap // g): blocks past cap // (B low) add nothing,
    and with low = 0 every nonzero block counts.
    """
    rows, nz = baby.shape[0], np.flatnonzero(v)
    shift = rows * low
    top = int(nz[-1]) // rows if nz.size else -1
    if shift:
        top = min(top, cap // shift)
    blocks = np.concatenate((v, np.zeros(rows)))[: (top + 1) * rows]
    run = max(1, ENTRY_BUDGET // baby.shape[1])   # blocks per product
    out, tail = np.zeros(0), giant[shift:]
    for b in range(top, -1, -1):
        if b == top or b % run == run - 1:   # the heads of blocks b - b % run..b
            first = b - b % run
            heads = blocks[first * rows: (b + 1) * rows].reshape(-1, rows) @ baby
        keep = cap + 1 - b * shift
        head = heads[b - first, :keep]
        if out.size:   # every step after the first: out = out G + head
            out = np.concatenate((np.zeros(shift), np.convolve(out, tail)))[:keep]
            out[: head.size] += head
        else:
            out = head
    return out


def _compose_t(u: np.ndarray, baby: np.ndarray, giant: np.ndarray,
               low: int, size: int) -> np.ndarray:
    """Transpose of _compose: out[z] = sum_j [F^z]_j u[j] for z < size.

    With z = bB + r, F^z = G^b F^r, so out[bB + r] = baby[r] . u_b, where
    u_0 = u and u_{b+1}[m] = sum_l G[l] u_b[m + l] is u_b correlated with
    G's nonzero tail, shifted by B low (Tellegen's principle; Bostan, Lecerf
    & Schost 2003).  u_b has len(u) - bB low entries; blocks past it are 0.
    """
    rows, width = baby.shape
    shift = rows * low
    tail = giant[shift:][::-1]
    out = np.zeros(size + rows)
    for start in range(0, size, rows):
        out[start: start + rows] = baby[:, : u.size] @ u[:width]
        if u.size <= shift or start + rows >= size:
            break
        u = np.convolve(u, tail)[tail.size - 1 + shift: tail.size - 1 + u.size]
    return out[:size]


def _generation(v: np.ndarray, tables: list, cap: int) -> np.ndarray:
    """Z_{k+1}'s pmf on 0..cap from Z_k's, v: one _compose per law."""
    new = np.zeros(cap + 1)
    for w, g, baby, giant, low in tables:
        out = _compose(v, baby, giant, low, cap // g)
        new[: g * out.size: g] += w * out
    return new


def _dp_work(env: EnvironmentLaw, n: int, z0: int, cap: int, rows: int) -> int:
    """Upper bound on the multiply-adds of _compose's convolutions over n
    generations.

    Z_k spans at most min(cap, z0 M^k) states, M the largest offspring
    count, so a law with offspring in [low, hi] composes at most
    min(span, cap // low) // rows + 1 blocks, each one convolution of at
    most cap + 1 kept coefficients with G, rows hi + 1 of them.
    """
    top = env.max_offspring
    work, span = 0, z0
    for k in range(n):
        gen = sum((min(span, cap // max(d.min_offspring, 1)) // rows + 1)
                  * (cap + 1) * min(cap + 1, rows * d.max_offspring + 1)
                  for d in env.components)
        if min(cap, span * top) == span:   # the span stopped growing
            return work + gen * (n - k)
        work, span = work + gen, min(cap, span * top)
    return work


def _budget(env: EnvironmentLaw, n: int, z0: int, cap: int, entries: int,
            passes: int = 1) -> int:
    """Baby-step rows of a DP on 0..cap; BudgetExceeded, before any table is
    built, for a dense table of more than ENTRY_BUDGET entries or for passes
    of n generations from z0 past WORK_BUDGET multiply-adds (_dp_work)."""
    if entries > ENTRY_BUDGET:
        raise BudgetExceededError(
            f"{entries} table entries at cap={cap} exceed the {ENTRY_BUDGET} budget")
    rows = min(BLOCK_ROWS, cap + 1, ENTRY_BUDGET // (cap + 1))
    work = passes * _dp_work(env, n, z0, cap, rows)
    if work > WORK_BUDGET:
        raise BudgetExceededError(
            f"DP at n={n}, cap={cap} needs about {work:.3g} "
            f"multiply-adds, past the {WORK_BUDGET:.3g} budget")
    return rows


def _lattice_tables(env: EnvironmentLaw, cap: int, rows: int) -> list:
    """Per law (weight, g, baby, giant, low) for _compose on the lattice.

    With g the gcd of the support, Q = F(s^(1/g)) on 0..cap // g: baby holds
    Q^0..Q^(rows-1) (<= ENTRY_BUDGET entries), giant is Q^rows and low is
    the least offspring count over g.
    """
    tables = []
    for w, d in zip(env.weights, env.components):
        g = math.gcd(*d.support)
        q = np.zeros(d.max_offspring // g + 1)
        q[d.support_arr // g] = d.probs_arr
        baby = np.zeros((rows, min(cap // g + 1, (rows - 1) * (q.size - 1) + 1)))
        power = np.ones(1)
        for row in baby:
            row[: power.size] = power
            power = np.convolve(power, q)[: cap // g + 1]
        tables.append((w, g, baby, power, d.min_offspring // g))   # power is Q^rows
    return tables


def population_distribution(env: EnvironmentLaw, n: int, z0: int = 1,
                            cap: int = 1000) -> ExactDistribution:
    """Exact truncated law of Z_n started from z0.

    A generation composes the pmf with each law's pgf by _compose, on the
    law's lattice: with g the gcd of the support, F(s) = Q(s^g) and V(F(s))
    = (V o Q)(s^g), so Q is composed at cap // g and added into every g-th
    state.  Both factors of each convolution are g times shorter than on
    all states: about cap^2 (max_offspring - min_offspring) / g^2
    multiply-adds once the pmf spans the cap.  A call whose _dp_work bound
    passes WORK_BUDGET raises BudgetExceeded before the first generation,
    whatever ran before it.  A call on the same env object, z0 and cap as
    the last one, with n at least its n, starts from its final pmf and runs
    only the missing generations, with the tables (_lattice_tables) of the
    first call on that key that ran one; it returns a fresh array.  Memory,
    for k laws: the module keeps one pmf (a private copy, cap + 1 floats)
    and per law a baby table of at most ENTRY_BUDGET floats and a giant of
    at most cap + 1; a generation adds one _compose heads product of at
    most ENTRY_BUDGET floats and a few arrays of cap + 1.  A call on
    another key drops the kept tables before it builds its own, so a call
    peaks near (k + 1) ENTRY_BUDGET floats.
    """
    global _last
    if n < 0 or z0 < 0 or cap < 0:
        raise InvalidArgumentError(f"n={n}, z0={z0} and cap={cap} must be >= 0")
    if cap < z0:
        raise CapTooSmallError(f"cap={cap} below initial population z0={z0}")
    rows = _budget(env, n, z0, cap, cap + 1)
    key = (env, z0, cap, rows)   # env compares by identity
    last_key, start, v, overflow, tables = _last
    if last_key != key:   # free the last key's tables before this key builds its own
        start, tables, _last = n + 1, None, _EMPTY
    if start > n:
        start, v, overflow = 0, np.zeros(cap + 1), 0.0
        v[z0] = 1.0
    if tables is None and start < n:
        tables = _lattice_tables(env, cap, rows)
    edge = cap // env.max_offspring + 1
    for _ in range(start, n):
        new = _generation(v, tables, cap)
        if v[edge:].any():   # only a state above cap // max_offspring can pass cap
            overflow += max(0.0, float(v.sum() - new.sum()))
        v = new
    _last = (key, n, v.copy(), overflow, tables)
    return ExactDistribution(probs=v, overflow=overflow, cap=cap,
                             nondecreasing=env.strongly_supercritical)


def _compositions(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    if k == 1:
        yield (n,)
        return
    for i in range(n + 1):
        for rest in _compositions(n - i, k - 1):
            yield (i,) + rest


def walk_tail(env: EnvironmentLaw, n: int, c: float, side: str = "lower") -> float:
    """Exact P(S_n <= nc) (or >= for side="upper") by composition enumeration.

    The walk only sees the distinct log-mean atoms; n draws split into
    counts per atom with multinomial probabilities, C(n+k-1, k-1) terms in
    total; more than COMPOSITION_BUDGET of them raise TooManyComponentsError.
    Ties S = nc sit on the boundary and are included, with a 1e-9
    relative slack so float log-sums do not drop exact corners.
    """
    _check_side(side)
    if n < 1:
        raise InvalidArgumentError(f"n={n} must be >= 1")
    _check_c(c)
    atoms = walk_atoms(env)
    k = len(atoms)
    n_terms = math.comb(n + k - 1, k - 1)
    if n_terms > COMPOSITION_BUDGET:
        raise TooManyComponentsError(
            f"{k} atoms at n={n} needs {n_terms} compositions"
        )
    Ls = [a[0] for a in atoms]
    qs = [a[1] for a in atoms]
    target = n * c
    tol = 1e-9 * max(1.0, abs(target))
    total = 0.0
    for counts in _compositions(n, k):
        s = math.fsum(cnt * L for cnt, L in zip(counts, Ls))
        if side == "lower":
            if s > target + tol:
                continue
        else:
            if s < target - tol:
                continue
        coef = 1
        rem = n
        for cnt in counts:
            coef *= math.comb(rem, cnt)
            rem -= cnt
        prob = coef
        for cnt, q in zip(counts, qs):
            prob *= q ** cnt
        total += prob
    return min(1.0, total)


class ConditionalTrajectoryResult(NamedTuple):
    """Exact conditional growth profile given the population stays small.

    ``profile[k]`` is E[(1/n) log Z_k | Z_n <= threshold]; None when the
    event has probability zero.
    """

    probability: float
    threshold: int
    profile: Optional[np.ndarray]


def conditional_trajectory(env: EnvironmentLaw, n: int, c: float,
                           z0: int = 1) -> ConditionalTrajectoryResult:
    """Exact P(Z_n <= T) and E[(1/n) log Z_k | Z_n <= T], T = floor(e^{cn}).

    fwd[k] is the law of Z_k and beta_k[z] = P(Z_n <= T | Z_k = z), so
    fwd[k] @ (beta_k * log z) is the joint mass.  The law must not shrink
    (log of an extinct population is undefined), so a state above T never
    re-enters the event: both passes run on 0..T with the DP's tables, the
    backward one by _compose_t on each law's lattice and on the states Z_k
    can reach, so each costs at most one DP's _dp_work.  The DP's kept
    state is neither read nor written.
    """
    if not env.strongly_supercritical:
        raise NotStronglySupercriticalError(
            "conditional trajectory oracle needs a no-extinction law")
    if z0 < 0:
        raise InvalidArgumentError(f"initial population z0={z0} must be >= 0")
    if n < 1:
        raise InvalidArgumentError(f"n={n} must be >= 1")
    threshold = event_threshold(n, c)
    if threshold < z0:
        return ConditionalTrajectoryResult(0.0, threshold, None)
    size = threshold + 1
    rows = _budget(env, n, z0, threshold, (n + 1) * size, passes=2)   # fwd's entries
    tables = _lattice_tables(env, threshold, rows)
    fwd = np.zeros((n + 1, size))
    fwd[0, z0] = 1.0
    for k in range(n):
        fwd[k + 1] = _generation(fwd[k], tables, threshold)
    logs = np.log(np.maximum(np.arange(size), 1))
    beta, num = np.ones(size), np.empty(n + 1)
    for k in range(n, -1, -1):
        num[k] = fwd[k, : beta.size] @ (beta * logs[: beta.size])
        if k:   # Z_{k-1} <= z0 max_offspring^(k-1): beta_{k-1} is needed only there
            span = min(threshold, z0 * env.max_offspring ** (k - 1)) + 1
            beta = sum(w * _compose_t(beta[::g], baby, giant, low, span)
                       for w, g, baby, giant, low in tables)
    probability = float(beta[z0])
    if probability <= 0.0:
        return ConditionalTrajectoryResult(0.0, threshold, None)
    return ConditionalTrajectoryResult(probability, threshold, num / probability / n)
