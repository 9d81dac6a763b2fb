"""Population process simulator.

One generation: draw an environment component, then replace each of the z
individuals by an independent draw from that component.  The per-step work
is O(support size), independent of z, because only the multinomial
allocation of individuals over the support is sampled, never individuals
one by one.

Replicas run in blocks of BLOCK lanes, and block b draws from the one
stream replica_stream(seed, proposal.stream + b).  The blocks of a run
step together, one numpy pass per generation, each drawing from its own
stream.  A lane holds its population as an exact int64 while z <=
EXACT_LIMIT // (largest offspring count), so no branch step can
overflow, and as a float log z above that.
In that log-z lane the step is the moment-matched normal
z' = z * mean + g * sqrt(z * variance), written as
log z' = log z + log(mean + g * sd * exp(-log z / 2)); it cannot
overflow.  Threshold tests compare exact lanes as integers and log-z
lanes in log space.  branch, the one branching step of the replica
engine, the cell tree and branch_step, steps each entry in place by the
law its index names, each stream on its part of the entries.

Every block is simulated in full, so replica r's path depends only on
(seed, stream, r): results are byte-identical for any worker count, and a
run with more replicas extends one with fewer.  A lockstep pass and a
finished run share one record, Lanes, one entry per replica; sample
joins its runs' lanes and every reader reduces them: final_states here,
whose naive proposal carries the log-mean walk as its llr, and the
estimators in rare_event.  A naive Monte Carlo estimate is the hit
fraction of the naive proposal's lanes.  run, Trajectory, branch_step and
draw_env_index stay only for bench/, until ROADMAP item 1 moves it off
them.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from .envmodel import EnvironmentLaw, OffspringDistribution
from .errors import InvalidArgumentError
from .rng import STREAM_SIM, replica_stream

# Replicas per block, and per stream.
BLOCK = 256

# Fewest block-generations (blocks x steps) per pool process; a map of
# fewer than 2 * POOL_STEPS runs in process.  On 2 cores a 2-process pool
# breaks even near 64-80 blocks of g2 paths at n = 8 (steps = n), 8-12 of
# fig2 paths at n = 40, and 3 of g2 cell trees at n = 8 (steps = 2^n).
POOL_STEPS = 320

# Most blocks in one lockstep run: 8,192 lanes bound a run's arrays.
RUN_BLOCKS = 32

# Largest population a branch step may produce as an int64.  Above it the
# total offspring count is a moment-matched normal draw; its distributional
# error is O(1/sqrt(z)) < 1e-9, far below any threshold resolution there.
EXACT_LIMIT = 1 << 62
_LN2 = math.log(2.0)


class SimConfig:
    __slots__ = ("env", "n", "z0", "seed", "replicas")

    def __init__(self, env: EnvironmentLaw, n: int, z0: int = 1, seed: int = 0,
                 replicas: int = 1):
        if n < 1:
            raise InvalidArgumentError(f"horizon n={n} must be >= 1")
        if z0 < 1:
            raise InvalidArgumentError(f"initial population z0={z0} must be >= 1")
        if replicas < 1:
            raise InvalidArgumentError(f"replicas={replicas} must be >= 1")
        self.env, self.n, self.z0, self.seed, self.replicas = env, n, z0, seed, replicas


class Trajectory:
    """One realized path: populations, environment indices, log-mean walk."""

    __slots__ = ("z", "env_idx", "s")

    def __init__(self, z: List[int], env_idx: List[int], s: List[float]):
        self.z, self.env_idx, self.s = z, env_idx, s

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


class Proposal(NamedTuple):
    """Law a replica path is sampled under, relative to its environment law.

    The first m generations are held: a component is drawn from hold and
    every individual has exactly one child.  The other generations draw
    from free and branch.  Each draw adds its phase's step_log_lr to the
    path's log likelihood ratio.  Block b reads the stream stream + b.
    """

    free: Phase
    stream: int = STREAM_SIM
    m: int = 0
    hold: Optional[Phase] = None

    @classmethod
    def naive(cls, env: EnvironmentLaw) -> "Proposal":
        """The environment law itself, no hold.

        Its likelihood ratio is 1, so the llr slot carries the log-mean
        walk S_k instead: each step adds log m of the drawn component.
        """
        return cls(free=Phase(env.cum_weights, env.log_means_arr))


def draw_env_index(env, rng: np.random.Generator, size: Optional[int] = None):
    """Component index drawn from env.cum_weights (a law, a tilt or a Phase).

    With size, an array of that many independent indices.
    """
    return _pick(env, rng.random(size))


def _pick(env, u):
    """The component index of each uniform in u."""
    cum = env.cum_weights
    return np.minimum(cum.searchsorted(u, side="right"), cum.size - 1)


def _exp_int(logz: float) -> int:
    """round(e^logz) as an int: a 53-bit mantissa shifted left.

    math.exp alone overflows past e^709; the shift keeps any log-z lane
    population printable as an integer.
    """
    shift = max(0, int(logz / _LN2) - 52)
    return round(math.exp(logz - shift * _LN2)) << shift


def _log_step(dist: OffspringDistribution, logz, g):
    """Moment-matched normal step in log space: log(Z' / z) for z = e^logz."""
    ratio = dist.mean + g * math.sqrt(dist.variance) * np.exp(-0.5 * logz)
    return np.log(np.minimum(np.maximum(ratio, dist.min_offspring), dist.max_offspring))


class Populations:
    """Populations held in two lanes.

    Entries flagged in big carry their population as logz, the others as
    the exact int64 z (each array holds stale values in the other entries).
    """

    __slots__ = ("z", "logz", "big")

    def __init__(self, z: np.ndarray, logz: np.ndarray, big: np.ndarray):
        self.z, self.logz, self.big = z, logz, big

    def hit(self, bound: float, side: str) -> np.ndarray:
        """Entries with population <= bound (side lower) or >= bound (upper)."""
        if not -math.inf < bound < math.inf:   # also for ints past the float range
            raise InvalidArgumentError(f"event bound {bound} is not a finite number")
        if side == "lower":
            cmp, edge = operator.le, math.floor(bound)
        elif side == "upper":
            cmp, edge = operator.ge, math.ceil(bound)
        else:
            raise InvalidArgumentError(f"side must be 'lower' or 'upper', got {side!r}")
        hit = cmp(self.z, max(1 - (1 << 63), min(edge, (1 << 63) - 1)))   # an int64 edge
        if self.big.any():
            log_bound = math.log(bound) if bound > 0 else -math.inf
            hit[self.big] = cmp(self.logz[self.big], log_bound)
        return hit

    def log(self) -> np.ndarray:
        """Log population of every entry; -inf for an extinct exact entry."""
        with np.errstate(divide="ignore"):
            return np.where(self.big, self.logz, np.log(self.z))

    def ints(self, size: int) -> List[int]:
        """Populations of the first size entries as ints, log-z entries rounded."""
        out = self.z[:size].tolist()
        for j in np.flatnonzero(self.big[:size]).tolist():
            out[j] = _exp_int(float(self.logz[j]))
        return out

    def value(self, j: int) -> int:
        """Population of entry j as an int, rounded in the log-z lane."""
        return _exp_int(float(self.logz[j])) if self.big[j] else int(self.z[j])

    @classmethod
    def start(cls, z0: int, limit: int, size: int, **fields):
        """size entries of population z0, in the log-z lane if z0 > limit."""
        big = z0 > limit
        return cls(z=np.full(size, 1 if big else z0, dtype=np.int64),
                   logz=np.full(size, math.log(z0) if big else 0.0),
                   big=np.full(size, big), **fields)

    def promote(self, limit: int) -> None:
        """Move the exact entries above limit to the log-z lane."""
        grow = ~self.big & (self.z > limit)
        if grow.any():
            self.big |= grow
            self.logz[grow] = np.log(self.z[grow])


def branch(pop: Populations, idx: np.ndarray, laws: Sequence[OffspringDistribution],
           rngs: list, limit: int) -> None:
    """Branch entry j of pop once by laws[idx[j]], in place, after moving
    the exact entries above limit (at most EXACT_LIMIT // the largest
    offspring count) to the log-z lane.

    The entries are cut into len(rngs) equal parts, one per stream.  Per
    law, in order, each stream draws one multinomial over its part's exact
    entries, then one normal per log-z entry; an empty part draws nothing.
    No exact population decreases under a law with p0 == 0 (asserted).
    """
    pop.promote(limit)
    z, logz, big = pop.z, pop.logz, pop.big
    for i, law in enumerate(laws):
        on = idx == i
        exact, normal = on & ~big, on & big
        zs, lz = z[exact], logz[normal]
        if zs.size:
            out = np.concatenate([r.multinomial(part, law.probs_arr)
                                  for r, part in _parts(zs, exact, rngs)]).dot(law.support_arr)
            assert law.p0 > 0.0 or (out >= zs).all(), \
                "population decreased under a no-extinction law"
            z[exact] = out
        if lz.size:
            g = np.concatenate([r.standard_normal(part.size)
                                for r, part in _parts(lz, normal, rngs)])
            logz[normal] = lz + _log_step(law, lz, g)


def branch_step(z: int, dist: OffspringDistribution, rng: np.random.Generator) -> int:
    """Total offspring of z individuals reproducing independently via dist.

    One lane of branch: exact while z <= EXACT_LIMIT // dist.max_offspring,
    the log-z step above, rounded to an int as Populations.value does.  A
    one-point law needs no draw and stays exact at any z.
    """
    if z < 0:
        raise InvalidArgumentError(f"population {z} is negative")
    if len(dist.support) == 1:
        return z * dist.support[0]
    limit = EXACT_LIMIT // dist.max_offspring
    lane = Populations.start(z, limit, 1)
    branch(lane, np.zeros(1, dtype=np.int64), (dist,), [rng], limit)
    return lane.value(0)


def _parts(a: np.ndarray, mask: np.ndarray, rngs: list) -> list:
    """(stream, its nonempty part of a) per stream; a holds mask's entries."""
    ends = mask.reshape(len(rngs), -1).sum(axis=1).cumsum().tolist()
    return [(rng, a[lo:hi]) for rng, lo, hi in zip(rngs, [0] + ends, ends) if hi > lo]


class Lanes(Populations):
    """Lanes of replicas, BLOCK per block: a lockstep pass after generation
    k, or a finished run's replicas in order.

    llr is each lane's log likelihood ratio so far (S_k under
    Proposal.naive), idx the components drawn at generation k (None at
    k = 0), tau the first generation with population above the run's
    take-off threshold (n if none yet), normal_steps each lane's count of
    generations branched in the log-z lane, and paths its log populations
    at generations 0..n (None unless captured).  block_lanes updates the
    arrays in place; copy what you keep.
    """

    __slots__ = ("llr", "tau", "normal_steps", "idx", "paths")

    def __init__(self, z: np.ndarray, logz: np.ndarray, big: np.ndarray, llr: np.ndarray,
                 tau: np.ndarray, normal_steps: np.ndarray, idx: Optional[np.ndarray] = None,
                 paths: Optional[np.ndarray] = None):
        super().__init__(z, logz, big)
        self.llr, self.tau, self.normal_steps = llr, tau, normal_steps
        self.idx, self.paths = idx, paths


def block_lanes(env: EnvironmentLaw, n: int, z0: int, proposal: Proposal,
                seed: int, block: int, threshold: Optional[int] = None,
                blocks: int = 1) -> Iterator[Lanes]:
    """Yield the lanes of blocks block..block+blocks-1 after each generation 0..n.

    The blocks step together (a lockstep pass), block + j in lanes j BLOCK
    onward.  Each draws from its stream, proposal.stream + its index, what
    it draws alone: BLOCK uniforms for the components (held generations stop
    there), then per component a multinomial and normals (branch).
    """
    rngs = [replica_stream(seed, proposal.stream + b) for b in range(block, block + blocks)]
    size = BLOCK * blocks
    limit = EXACT_LIMIT // max(d.max_offspring for d in env.components)
    lanes = Lanes.start(z0, limit, size, llr=np.zeros(size), tau=np.full(size, n),
                        normal_steps=np.zeros(size, dtype=np.int64))
    for k in range(n + 1):
        if k > 0:
            phase = proposal.hold if k <= proposal.m else proposal.free
            lanes.idx = _pick(phase, np.concatenate([rng.random(BLOCK) for rng in rngs]))
            lanes.llr += phase.step_log_lr[lanes.idx]
        if k > proposal.m:
            branch(lanes, lanes.idx, env.components, rngs, limit)
            lanes.normal_steps += lanes.big
        if threshold is not None:
            lanes.tau[(lanes.tau == n) & ~lanes.hit(threshold, "lower")] = k
        yield lanes


def run(config: SimConfig, replica: int = 0) -> Trajectory:
    """Simulate one replica: lane replica % BLOCK of block replica // BLOCK."""
    env = config.env
    lane = replica % BLOCK
    traj = Trajectory(z=[], env_idx=[], s=[])
    for lanes in block_lanes(env, config.n, config.z0, Proposal.naive(env),
                             config.seed, replica // BLOCK):
        traj.z.append(lanes.value(lane))
        traj.s.append(float(lanes.llr[lane]))
        if lanes.idx is not None:
            traj.env_idx.append(int(lanes.idx[lane]))
    return traj


# --- batched execution -------------------------------------------------

def processes(replicas: int, workers: int, steps: int) -> int:
    """Processes for replicas of steps generations each: one per POOL_STEPS
    blocks x steps, at most one per block and workers; 1 is this process,
    with no pool."""
    blocks = -(-replicas // BLOCK)
    return max(1, min(workers, blocks, blocks * steps // POOL_STEPS))


def map_replicas(worker: Callable, args: tuple, replicas: int, workers: int,
                 steps: int) -> list:
    """[worker(*args, lo, hi) for each run [lo, hi) of whole blocks of range(replicas)].

    Block b spans replicas b * BLOCK up to (b + 1) * BLOCK, the last one cut
    at replicas; a replica costs about steps generations of a path (n for a
    path, 2^n for a cell tree of depth n).  A run holds at most
    RUN_BLOCKS blocks and a 1 / processes(replicas, workers, steps) share of
    them, on a pool if that is more than one process.  Block b reads its own
    stream, so the results, in run order, reduce the same for any workers.
    """
    if replicas < 1:
        raise InvalidArgumentError(f"replicas={replicas} must be >= 1")
    if workers < 1:
        raise InvalidArgumentError(f"workers={workers} must be >= 1")
    procs = processes(replicas, workers, steps)
    width = min(RUN_BLOCKS, -(-replicas // (BLOCK * procs))) * BLOCK
    runs = [(lo, min(lo + width, replicas)) for lo in range(0, replicas, width)]
    if procs == 1:
        return [worker(*args, lo, hi) for lo, hi in runs]
    # imported here: the pool machinery adds about 20 ms to every import
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=procs) as pool:
        futures = [pool.submit(worker, *args, lo, hi) for lo, hi in runs]
        return [f.result() for f in futures]


_PER_REPLICA = ("z", "logz", "big", "llr", "tau", "normal_steps")


def _sample_run(env: EnvironmentLaw, n: int, z0: int, proposal: Proposal,
                seed: int, threshold: Optional[int], capture: bool,
                lo: int, hi: int) -> Lanes:
    """The lanes of replicas [lo, hi), lo a multiple of BLOCK, from one
    lockstep pass over their blocks."""
    size, logs = hi - lo, []
    for lanes in block_lanes(env, n, z0, proposal, seed, lo // BLOCK, threshold,
                             -(-size // BLOCK)):
        if capture:
            logs.append(lanes.log()[:size])
    return Lanes(**{f: getattr(lanes, f)[:size] for f in _PER_REPLICA},
                 paths=np.stack(logs, axis=1) if capture else None)


def sample(env: EnvironmentLaw, n: int, z0: int, proposal: Proposal, seed: int,
           replicas: int, workers: int = 1, threshold: Optional[int] = None,
           capture: bool = False) -> Lanes:
    """Replicas 0..replicas-1 of proposal's paths, run in lockstep passes.

    A take-off step is the first generation with population above
    threshold, n when there is none; capture keeps every log path.
    """
    runs = map_replicas(_sample_run, (env, n, z0, proposal, seed, threshold,
                                      capture), replicas, workers, n)
    fields = _PER_REPLICA + ("paths",) * capture
    return Lanes(**{f: np.concatenate([getattr(r, f) for r in runs]) for f in fields})


class FinalStates(NamedTuple):
    z: List[int]                 # final populations, log-z lanes rounded
    s: np.ndarray                # final values of the log-mean walk
    tau: Optional[np.ndarray]    # capped take-off steps; None without a threshold
    normal_steps: int            # replica-generations branched in the log-z lane


def final_states(config: SimConfig, threshold: Optional[int] = None,
                 workers: int = 1) -> FinalStates:
    """Per-replica final population, final walk value and capped take-off step.

    A take-off step is the first generation with population above
    threshold, n when there is none; with no threshold, tau is None.
    """
    s = sample(config.env, config.n, config.z0, Proposal.naive(config.env),
               config.seed, config.replicas, workers, threshold)
    return FinalStates(z=s.ints(config.replicas), s=s.llr,
                       tau=s.tau if threshold is not None else None,
                       normal_steps=int(s.normal_steps.sum()))

