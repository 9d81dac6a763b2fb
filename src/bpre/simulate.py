"""Population process simulator.

One generation: draw an environment component, then replace each of the z
individuals by an independent draw from that component.  The per-step work
is O(support size), independent of z, because only the multinomial
allocation of individuals over the support is sampled, never individuals
one by one.

Proposal is the one record a path is sampled under: a cdf over the
environment components with each draw's log likelihood ratio, built by
Proposal.naive or rare_event.tilt.  Every sampled generation draws from
it and branches; rare_event weighs held generations exactly and samples
none.
Replicas run in blocks of BLOCK lanes, and block b draws from the one
stream replica_stream(seed, proposal.stream + b).  The blocks of a run
step together, one numpy pass per generation, each drawing from its own
stream.  A lane holds its population as an exact int64 while z <=
EXACT_LIMIT // (its laws' largest offspring count), so no branch step
can overflow, and as a float log z above that.
In that log-z lane the step is the moment-matched normal
z' = z * mean + g * sqrt(z * variance), written as
log z' = log z + log(mean + g * sd * exp(-log z / 2)); it cannot
overflow.  Threshold tests compare exact lanes as integers and log-z
lanes in log space.  branch, the one branching step of the replica
engine, the cell tree and branch_step, steps each entry in place by the
law its index names, each stream on its part of the entries.

Each draw call, branch's too, starts at its own counter (rng.Stream), one
row per lane in lane order, so a block draws only the lanes a run holds,
with no padding: results are byte-identical for any worker count, and a
run with more replicas extends one with fewer.  A lockstep pass and a
finished run share one record, Lanes, one entry per replica; sample
joins its runs' lanes and every reader reduces them: final_states here,
whose naive proposal carries the log-mean walk as its llr, and the
estimators in rare_event.  Populations.ints is the one integer read-out.
A naive Monte Carlo estimate is the hit fraction of the naive proposal's
lanes.  branch_step and draw_env_index serve only bench/, which times
them, and run only bench/'s traced table; branch_step hands branch its
generator as a stream that stands still.
"""

from __future__ import annotations

import math
import operator
from types import SimpleNamespace
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .envmodel import EnvironmentLaw, OffspringDistribution
from .errors import BudgetExceededError, InvalidArgumentError
from .rng import STREAM_SIM, Stream

# Replicas per block, and per stream.  Each generation a block makes one
# uniform call and one multinomial per law, about 12 us of fixed cost
# each, and draws only the lanes a run holds, so a bigger block is never
# slower; at 1,000 replicas, the shipped runs' size, 1024 beat 256 and 512
# and 2048 gained only on fig2, not on g2 (README's sweep).
BLOCK = 1024

# Fewest block-generations (blocks x steps) per pool process; a map of
# fewer than 2 * POOL_STEPS runs in process.  On 2 cores a 2-process pool
# breaks even near 24-28 blocks of g2 paths at n = 8 (192-224
# block-generations, steps = n), 3-4 of fig2 paths at n = 40 (120-160),
# and 6-7 blocks of g2 cell trees at n = 6, at most 2 at n = 8 and 10
# (steps = cells.tree_steps(n) = 2^(n - 1)).
POOL_STEPS = 128

# Most blocks in one lockstep run: 8,192 lanes bound a run's arrays.
RUN_BLOCKS = 8

# Most replicas one map may run, refused before anything is allocated.  Traced
# peaks: about 85 B a replica for estimate_lower_tail (fig2, n = 40) and
# final_states (g2, n = 8), 0.7 GB at the bound; conditional_profile keeps n + 1
# log-z columns a replica, bounded by rare_event.PATH_ENTRIES_MAX.
REPLICAS_MAX = 1 << 23

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


class Trajectory(NamedTuple):
    """One realized path: populations, environment indices, log-mean walk."""

    z: List[int]
    env_idx: List[int]
    s: List[float]


class Proposal(NamedTuple):
    """Law a replica path is sampled under, relative to its environment law.

    Every generation draws a component from the cdf cum_weights and
    branches; each draw adds its step_log_lr to the path's log likelihood
    ratio.  lam is the exponent of rare_event.tilt's reweighting by m^lam,
    None for the naive proposal.  Block b reads the stream stream + b.
    """

    cum_weights: np.ndarray
    step_log_lr: np.ndarray
    lam: Optional[float] = None
    stream: int = STREAM_SIM

    @classmethod
    def naive(cls, env: EnvironmentLaw) -> "Proposal":
        """The environment law itself.

        Its likelihood ratio is 1, so the llr slot carries the log-mean
        walk S_k instead: each step adds log m of the drawn component.
        """
        return cls(env.cum_weights, env.log_means_arr)


def draw_env_index(env, rng: np.random.Generator, size: Optional[int] = None):
    """Component index drawn from env.cum_weights (a law or a Proposal).

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

    def ints(self, rows=slice(None)) -> List[int]:
        """Populations of the entries rows selects as ints, log-z entries rounded."""
        out, logz = self.z[rows].tolist(), self.logz[rows]
        for j in np.flatnonzero(self.big[rows]).tolist():
            out[j] = _exp_int(float(logz[j]))
        return out

    @classmethod
    def start(cls, z0: int, laws: Sequence[OffspringDistribution], size: int, **fields):
        """size entries of population z0, exact if laws' steps keep it in int64."""
        big = z0 > EXACT_LIMIT // max(law.max_offspring for law in laws)
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
           rngs: list, k: int) -> None:
    """Branch entry j of pop once by laws[idx[j]], in place, after moving
    the exact entries above EXACT_LIMIT // laws' largest offspring count
    to the log-z lane.

    Stream b holds the entries from b BLOCK on (_parts).  Per law i, in
    order, each stream draws one multinomial over its part's exact entries
    (call 1 + 2i), then one normal per log-z entry (call 2 + 2i); an empty
    part draws nothing.  rngs are rng.Streams, set for call j of generation
    k.  No exact population decreases under a law with p0 == 0 (asserted).
    """
    pop.promote(EXACT_LIMIT // max(law.max_offspring for law in laws))
    z, logz, big = pop.z, pop.logz, pop.big
    for i, law in enumerate(laws):
        on = idx == i
        exact, normal = on & ~big, on & big
        zs, lz = z[exact], logz[normal]
        if zs.size:
            out = np.concatenate([r.at(k, 1 + 2 * i).multinomial(part, law.probs_arr)
                                  for r, part in _parts(zs, exact, rngs)]).dot(law.support_arr)
            assert law.p0 > 0.0 or (out >= zs).all(), \
                "population decreased under a no-extinction law"
            z[exact] = out
        if lz.size:
            g = np.concatenate([r.at(k, 2 + 2 * i).standard_normal(part.size)
                                for r, part in _parts(lz, normal, rngs)])
            logz[normal] = lz + _log_step(law, lz, g)


def branch_step(z: int, dist: OffspringDistribution, rng: np.random.Generator) -> int:
    """Total offspring of z individuals reproducing independently via dist.

    One lane of branch: exact while z <= EXACT_LIMIT // dist.max_offspring,
    the log-z step above, rounded to an int as Populations.ints does.  A
    one-point law needs no draw and stays exact at any z.
    """
    if z < 0:
        raise InvalidArgumentError(f"population {z} is negative")
    if len(dist.support) == 1:
        return z * dist.support[0]
    lane = Populations.start(z, (dist,), 1)
    branch(lane, np.zeros(1, dtype=np.int64), (dist,), [SimpleNamespace(at=lambda k, j: rng)], 0)
    return lane.ints()[0]


def _parts(a: np.ndarray, mask: np.ndarray, rngs: list) -> list:
    """(stream, its nonempty part of a) per stream; a holds mask's entries,
    and stream b those from entry b BLOCK on, up to the next stream's."""
    ends = (np.add.reduceat(mask, np.arange(len(rngs)) * BLOCK).cumsum().tolist()
            if len(rngs) > 1 else [a.size])
    return [(rng, a[lo:hi]) for rng, lo, hi in zip(rngs, [0] + ends, ends) if hi > lo]


class Lanes(Populations):
    """Lanes of replicas, BLOCK per block: a lockstep pass after generation
    k, or a finished run's replicas in order.

    llr is each lane's log likelihood ratio so far (S_k under
    Proposal.naive), idx the components drawn at generation k (None at
    k = 0), tau the first generation with population above the run's
    take-off threshold (n if none yet), normal_steps each lane's count of
    generations branched in the log-z lane, paths its log populations at
    generations 0..n (None unless captured) and processes those sample ran
    on.  block_lanes updates the arrays in place; copy what you keep.
    """

    __slots__ = ("llr", "tau", "normal_steps", "idx", "paths", "processes")

    def __init__(self, z: np.ndarray, logz: np.ndarray, big: np.ndarray, llr: np.ndarray,
                 tau: np.ndarray, normal_steps: np.ndarray, idx: Optional[np.ndarray] = None,
                 paths: Optional[np.ndarray] = None, processes: int = 1):
        super().__init__(z, logz, big)
        self.llr, self.tau, self.normal_steps = llr, tau, normal_steps
        self.idx, self.paths, self.processes = idx, paths, processes


def block_lanes(env: EnvironmentLaw, n: int, z0: int, proposal: Proposal,
                seed: int, block: int, threshold: Optional[int],
                size: int) -> Iterator[Lanes]:
    """Yield the lanes of replicas block BLOCK up to block BLOCK + size
    after each generation 0..n.

    The blocks step together (a lockstep pass), block + b in lanes b BLOCK
    onward.  Each draws from its stream, proposal.stream + its index, its
    own lanes only: per generation one uniform per lane for the components,
    then per component a multinomial and normals (branch).
    """
    rows = [min(BLOCK, size - lo) for lo in range(0, size, BLOCK)]
    rngs = [Stream(seed, proposal.stream + block + b) for b in range(len(rows))]
    lanes = Lanes.start(z0, env.components, size, llr=np.zeros(size), tau=np.full(size, n),
                        normal_steps=np.zeros(size, dtype=np.int64))
    for k in range(n + 1):
        if k > 0:
            lanes.idx = _pick(proposal, np.concatenate([r.at(k, 0).random(m)
                                                        for r, m in zip(rngs, rows)]))
            lanes.llr += proposal.step_log_lr[lanes.idx]
            branch(lanes, lanes.idx, env.components, rngs, k)
            lanes.normal_steps += lanes.big
        if threshold is not None:
            lanes.tau[(lanes.tau == n) & ~lanes.hit(threshold, "lower")] = k
        yield lanes


def run(config: SimConfig, replica: int = 0) -> Trajectory:
    """Simulate one replica: the last lane of a pass over its block up to it."""
    env = config.env
    lane = replica % BLOCK
    z, idx, s = [], [], []
    for lanes in block_lanes(env, config.n, config.z0, Proposal.naive(env),
                             config.seed, replica // BLOCK, None, lane + 1):
        z.append(lanes.ints([lane])[0])
        s.append(float(lanes.llr[lane]))
        if lanes.idx is not None:
            idx.append(int(lanes.idx[lane]))
    return Trajectory(z, idx, s)


# --- batched execution -------------------------------------------------

def processes(replicas: int, workers: int, steps: int) -> int:
    """Processes for replicas of steps generations each: one per POOL_STEPS
    blocks x steps, at most one per block and workers; 1 is this process,
    with no pool."""
    blocks = -(-replicas // BLOCK)
    return max(1, min(workers, blocks, blocks * steps // POOL_STEPS))


def map_replicas(worker: Callable, args: tuple, replicas: int, workers: int,
                 steps: int) -> Tuple[int, list]:
    """(procs, [worker(*args, lo, hi) for each run [lo, hi) of whole blocks]).

    Block b spans replicas b * BLOCK up to (b + 1) * BLOCK, the last one cut
    at replicas; a replica costs about steps generations of a path (n for a
    path, cells.tree_steps(n) for a cell tree of depth n).  A run holds at most
    RUN_BLOCKS blocks and a 1 / procs share of them; procs = processes(replicas,
    workers, steps) processes run them, on a pool if more than one.  Block b
    reads its own stream, so the results, in run order, reduce the same for
    any workers.  More than REPLICAS_MAX replicas raise BudgetExceededError.
    """
    if replicas < 1:
        raise InvalidArgumentError(f"replicas={replicas} must be >= 1")
    if replicas > REPLICAS_MAX:
        raise BudgetExceededError(f"replicas={replicas} exceeds the budget of "
                                  f"{REPLICAS_MAX} replicas")
    if workers < 1:
        raise InvalidArgumentError(f"workers={workers} must be >= 1")
    procs = processes(replicas, workers, steps)
    width = min(RUN_BLOCKS, -(-replicas // (BLOCK * procs))) * BLOCK
    runs = [(lo, min(lo + width, replicas)) for lo in range(0, replicas, width)]
    if procs == 1:
        return procs, [worker(*args, lo, hi) for lo, hi in runs]
    # imported here: the pool machinery adds about 20 ms to every import
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=procs) as pool:
        futures = [pool.submit(worker, *args, lo, hi) for lo, hi in runs]
        return procs, [f.result() for f in futures]


_PER_REPLICA = ("z", "logz", "big", "llr", "tau", "normal_steps")


def _sample_run(env: EnvironmentLaw, n: int, z0: int, proposal: Proposal,
                seed: int, threshold: Optional[int], capture: bool,
                lo: int, hi: int) -> Lanes:
    """The lanes of replicas [lo, hi), lo a multiple of BLOCK, from one
    lockstep pass over their blocks."""
    logs = []
    for lanes in block_lanes(env, n, z0, proposal, seed, lo // BLOCK, threshold, hi - lo):
        if capture:
            logs.append(lanes.log())
    return Lanes(**{f: getattr(lanes, f) for f in _PER_REPLICA},
                 paths=np.stack(logs, axis=1) if capture else None)


def sample(env: EnvironmentLaw, n: int, z0: int, proposal: Proposal, seed: int,
           replicas: int, workers: int = 1, threshold: Optional[int] = None,
           capture: bool = False) -> Lanes:
    """Replicas 0..replicas-1 of proposal's paths, run in lockstep passes.

    A take-off step is the first generation with population above
    threshold, n when there is none; capture keeps every log path.
    """
    procs, runs = map_replicas(_sample_run, (env, n, z0, proposal, seed, threshold,
                                             capture), replicas, workers, n)
    fields = _PER_REPLICA + ("paths",) * capture
    return Lanes(**{f: np.concatenate([getattr(r, f) for r in runs]) for f in fields},
                 processes=procs)


class FinalStates(NamedTuple):
    z: List[int]                 # final populations, log-z lanes rounded
    s: np.ndarray                # final values of the log-mean walk
    tau: Optional[np.ndarray]    # capped take-off steps; None without a threshold
    normal_steps: int            # replica-generations branched in the log-z lane
    processes: int               # processes the replicas ran on


def final_states(config: SimConfig, threshold: Optional[int] = None,
                 workers: int = 1) -> FinalStates:
    """Per-replica final population, final walk value and capped take-off step.

    A take-off step is the first generation with population above
    threshold, n when there is none; with no threshold, tau is None.
    """
    s = sample(config.env, config.n, config.z0, Proposal.naive(config.env),
               config.seed, config.replicas, workers, threshold)
    return FinalStates(z=s.ints(), s=s.llr,
                       tau=s.tau if threshold is not None else None,
                       normal_steps=int(s.normal_steps.sum()), processes=s.processes)

