"""Population process simulator.

One generation: draw an environment component, then replace each of the z
individuals by an independent draw from that component.  The per-step work
is O(support size), independent of z, because only the multinomial
allocation of individuals over the support is sampled, never individuals
one by one.  Populations are plain Python ints so they can pass 2^63
without corrupting exact threshold predicates.

Every replica path, naive or importance-sampled, comes from replica_path
under a Proposal; the simulators here and the estimators in rare_event
are reductions over it, mapped over replicas by map_replicas.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .envmodel import EnvironmentLaw, OffspringDistribution
from .results import EstimatorResult, Method
from .rng import STREAM_LINEAGE, STREAM_SIM, replica_stream

# Above this population the multinomial total would overflow numpy's int64;
# switch to a moment-matched normal draw of the total offspring count.  The
# distributional error is O(1/sqrt(z)) < 1e-9, orders of magnitude below
# any threshold resolution once z is this large.
EXACT_LIMIT = 1 << 62


@dataclass(frozen=True)
class SimConfig:
    env: EnvironmentLaw
    n: int
    z0: int = 1
    seed: int = 0
    replicas: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"horizon n={self.n} must be >= 1")
        if self.z0 < 1:
            raise ValueError(f"initial population z0={self.z0} must be >= 1")
        if self.replicas < 1:
            raise ValueError(f"replicas={self.replicas} must be >= 1")


@dataclass
class Trajectory:
    """One realized path: populations, environment indices, log-mean walk."""

    z: List[int]
    env_idx: List[int]
    s: List[float]

    @property
    def n(self) -> int:
        return len(self.env_idx)

    @property
    def final_z(self) -> int:
        return self.z[-1]

    @property
    def final_s(self) -> float:
        return self.s[-1]

    def take_off_step(self, threshold: int) -> Optional[int]:
        """First generation with population above threshold, None if never."""
        return next((k for k, zk in enumerate(self.z) if zk > threshold), None)


class Phase(NamedTuple):
    """Sampling cdf over environment components and each draw's log likelihood ratio.

    A TiltedLaw has both fields too and serves as a phase directly.
    """

    cum_weights: np.ndarray
    step_log_lr: np.ndarray


@dataclass(frozen=True)
class Proposal:
    """Law a replica path is sampled under, relative to its environment law.

    The first m generations are held: a component is drawn from hold and
    every individual has exactly one child.  The other generations draw
    from free and branch.  Each draw adds its phase's step_log_lr to the
    path's log likelihood ratio.  Replica r reads the stream stream + r.
    """

    free: Phase
    stream: int = STREAM_SIM
    m: int = 0
    hold: Optional[Phase] = None

    @classmethod
    def naive(cls, env: EnvironmentLaw) -> "Proposal":
        """The environment law itself: no hold, zero log likelihood ratios."""
        return cls(free=Phase(env.cum_weights, np.zeros(env.k)))


def draw_env_index(env, rng: np.random.Generator) -> int:
    """Component index drawn from env.cum_weights (a law, a tilt or a Phase)."""
    cum = env.cum_weights
    i = int(cum.searchsorted(rng.random(), side="right"))
    return min(i, cum.size - 1)


def branch_step(z: int, dist: OffspringDistribution, rng: np.random.Generator) -> int:
    """Total offspring of z individuals reproducing independently via dist."""
    if z < 0:
        raise ValueError(f"population {z} is negative")
    if z == 0:
        return 0
    if len(dist.support) == 1:
        return z * dist.support[0]
    if z <= EXACT_LIMIT:
        counts = rng.multinomial(int(z), dist.probs_arr)
        # the k-weighted sum can exceed int64, so accumulate in Python ints
        return sum(int(k) * int(c) for k, c in zip(dist.support, counts) if c)
    if z.bit_length() > 1000:
        # beyond float range; noise is ~2^-500 relative here, drop it
        scale = int(dist.mean * (1 << 60))
        out = (z * scale) >> 60
    else:
        zf = float(z)
        g = rng.standard_normal()
        out = int(round(zf * dist.mean + g * math.sqrt(zf * dist.variance)))
    lo = z * dist.min_offspring
    hi = z * dist.max_offspring
    return min(max(out, lo), hi)


def replica_path(env: EnvironmentLaw, n: int, z0: int, proposal: Proposal,
                 seed: int, replica: int) -> Tuple[List[int], List[int], float]:
    """Sample one replica path under proposal.

    Returns the environment indices of the n generations, the populations
    z_0..z_n and the path's log likelihood ratio (log dP/dQ).  Fully
    determined by (seed, proposal.stream + replica).
    """
    rng = replica_stream(seed, proposal.stream + replica)
    z = int(z0)
    idxs: List[int] = []
    zs = [z]
    llr = 0.0
    hold = proposal.hold
    for _ in range(proposal.m):
        i = draw_env_index(hold, rng)
        llr += hold.step_log_lr[i]
        idxs.append(i)
        zs.append(z)
    free = proposal.free
    check = env.strongly_supercritical
    for _ in range(proposal.m, n):
        i = draw_env_index(free, rng)
        z_new = branch_step(z, env.components[i], rng)
        if check:
            assert z_new >= z, "population decreased under a no-extinction law"
        z = z_new
        llr += free.step_log_lr[i]
        idxs.append(i)
        zs.append(z)
    return idxs, zs, llr


def _trajectory(config: SimConfig, proposal: Proposal, replica: int) -> Trajectory:
    idxs, zs, _ = replica_path(config.env, config.n, config.z0, proposal,
                               config.seed, replica)
    walk = accumulate((config.env.log_means[i] for i in idxs), initial=0.0)
    return Trajectory(z=zs, env_idx=idxs, s=list(walk))


def run(config: SimConfig, replica: int = 0) -> Trajectory:
    """Simulate one replica.  Fully determined by (seed, replica, config)."""
    return _trajectory(config, Proposal.naive(config.env), replica)


# --- event predicates (picklable, reusable from the CLI) ---------------

@dataclass(frozen=True)
class PopulationAtMost:
    threshold: float

    def __call__(self, traj: Trajectory) -> bool:
        return traj.final_z <= self.threshold


@dataclass(frozen=True)
class PopulationAtLeast:
    threshold: float

    def __call__(self, traj: Trajectory) -> bool:
        return traj.final_z >= self.threshold


# --- batched execution -------------------------------------------------

def _map_range(worker: Callable, args: tuple, lo: int, hi: int) -> list:
    return [worker(*args, r) for r in range(lo, hi)]


def map_replicas(worker: Callable, args: tuple, replicas: int, workers: int) -> list:
    """[worker(*args, r) for r in range(replicas)], optionally over a process pool.

    With workers > 1 the replicas are split into contiguous ranges, one
    per worker.  Results come back in replica order, and replica r always
    reads its own stream, so any reduction that walks them in order is
    independent of the worker count.
    """
    if replicas < 1:
        raise ValueError(f"replicas={replicas} must be >= 1")
    if workers <= 1:
        return _map_range(worker, args, 0, replicas)
    step = -(-replicas // min(workers, replicas))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_map_range, worker, args, lo, min(lo + step, replicas))
                   for lo in range(0, replicas, step)]
        return [out for f in futures for out in f.result()]


def _event_hit(config: SimConfig, proposal: Proposal, event, replica: int) -> bool:
    return bool(event(_trajectory(config, proposal, replica)))


def run_batch(config: SimConfig, event: Callable[[Trajectory], bool],
              workers: int = 1) -> EstimatorResult:
    """Naive Monte Carlo estimate of P(event) over config.replicas replicas.

    Replica r always uses the stream keyed by (seed, r), so the estimate is
    byte-identical for any worker count.
    """
    reps = config.replicas
    hits = map_replicas(_event_hit, (config, Proposal.naive(config.env), event),
                        reps, workers)
    k = sum(hits)
    p = k / reps
    stderr = math.sqrt(p * (1.0 - p) / reps)
    return EstimatorResult(
        estimate=p, stderr=stderr, ess=float(k), method=Method.NAIVE,
        n=config.n, c=math.nan, replicas=reps, seed=config.seed,
        zero_mass=(k == 0),
    )


def _final_state(config: SimConfig, proposal: Proposal, threshold: Optional[int],
                 replica: int) -> Tuple[int, float, int]:
    traj = _trajectory(config, proposal, replica)
    tau = 0
    if threshold is not None:
        tk = traj.take_off_step(threshold)
        tau = config.n if tk is None else tk
    return traj.final_z, traj.final_s, tau


def final_states(config: SimConfig, threshold: Optional[int] = None,
                 workers: int = 1) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """Per-replica (final population, final walk value, capped take-off step).

    Take-off steps are n when the population never passes the threshold,
    and 0 for every replica when no threshold is given.
    """
    out = map_replicas(_final_state, (config, Proposal.naive(config.env), threshold),
                       config.replicas, workers)
    zs, ss, taus = zip(*out)
    return list(zs), np.array(ss), np.array(taus, dtype=np.int64)


def random_lineage(env: EnvironmentLaw, n: int, seed: int = 0,
                   replica: int = 0) -> np.ndarray:
    """Offspring counts along one uniformly chosen line of descent.

    Each count is an independent draw from the weight-mixture pmf
    sum_i w_i * pmf_i: picking a uniform child makes the parent's count
    appear with its plain (unsized) probability.
    """
    support: dict = {}
    for w, d in zip(env.weights, env.components):
        for k, p in zip(d.support, d.probs):
            support[k] = support.get(k, 0.0) + w * p
    ks = np.array(sorted(support), dtype=np.int64)
    ps = np.array([support[k] for k in sorted(support)])
    ps = ps / ps.sum()
    rng = replica_stream(seed, STREAM_LINEAGE + replica)
    return rng.choice(ks, size=n, p=ps)
