"""Binary cell tree with parasite multiplication (Bansaye 2008).

Every cell divides into exactly two daughters; each parasite sends an
independent offspring draw from law1 into the first daughter and from law2
into the second.  A uniformly random lineage through the tree then sees the
two laws in equiprobable random order, so leaf counts along it follow the
two-environment branching process, and the expected number of depth-n cells
with few parasites factors as 2^n times the process tail probability.
simulate_cell_tree returns, from one run, each tree's counts for that
identity and the parasites of one uniform leaf, the tree's lineage draw.

Trees grow in groups of S = group_size(n) = max(1, min(BLOCK, TREE_LEAVES >> n))
trees (1,024 for n <= 7, 512 at n = 8, 32 at n = 12, 1 from n = 17), a
level at a time: group g reads the one stream replica_stream(seed,
STREAM_CELLS + g), each call from its own counter (rng.Stream; the trees'
uniform leaves are call 0 of level 0), and holds a level of its trees as
one flat array of cells, tree by tree, each with its index in the full
level of S * 2^k cells.  Each level repeats every cell twice, so the
daughters of cell i sit at 2i and 2i + 1, and simulate.branch steps the
even ones by law1 and the odd ones by law2, in the block engine's exact
int64 and log-z lanes.  With nothing settled the last level holds
S * 2^n <= max(TREE_LEAVES, 2^n) cells, about 65 traced bytes each at the
peak: 8 MB for a group of TREE_LEAVES leaves.
When neither law can shrink (p0 = 0 for both: strongly_supercritical), a
parasite count never decreases down the tree, so a cell at depth k < n
above e^{cn} has all its 2^(n - k) leaves above: unless it lies on the path
to its tree's uniform leaf, it settles, adds them to the tree's count above
and is not grown further.  Under a law that can shrink every level is grown
in full.  S is a power of two that divides BLOCK, so a group never
straddles a map_replicas block, and a group draws only the trees a run
holds: tree r depends only on (seed, config, r), for any worker or replica
count.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .envmodel import OffspringDistribution, build_environment
from .errors import BudgetExceededError, InvalidArgumentError
from .oracle import population_distribution
from .ratefn import event_bound, event_threshold
from .rng import STREAM_CELLS, Stream
from .simulate import BLOCK, Populations, branch, map_replicas

TREE_DEPTH_MAX = 20

# Most leaves in one group of trees, and so on one stream (group_size): the
# largest power of two whose traced peak stays under 16 MB if nothing settles.
TREE_LEAVES = 1 << 17


def group_size(n: int) -> int:
    """Trees of depth n grown together on one stream: a power of two that
    divides BLOCK, whose levels hold at most max(TREE_LEAVES, 2^n) cells."""
    return max(1, min(BLOCK, TREE_LEAVES >> n))


def tree_steps(n: int) -> int:
    """Path generations a tree of depth n costs, as the pool rule counts
    them: fit to the measured break-evens (simulate.POOL_STEPS)."""
    return 1 << (n - 1)


class CellTreeConfig:
    __slots__ = ("n", "law1", "law2", "c", "seed", "replicas", "z0", "env")

    def __init__(self, n: int, law1: OffspringDistribution, law2: OffspringDistribution,
                 c: float, seed: int = 0, replicas: int = 1, z0: int = 1):
        if n < 1:
            raise InvalidArgumentError(f"n={n} must be >= 1")
        if n > TREE_DEPTH_MAX:
            raise BudgetExceededError(
                f"tree depth {n} exceeds the {TREE_DEPTH_MAX}-level budget"
            )
        event_bound(n, c)   # refuses a NaN c and e^{cn} past the float range
        if z0 < 1:
            raise InvalidArgumentError(f"z0={z0} must be >= 1")
        if replicas < 1:
            raise InvalidArgumentError(f"replicas={replicas} must be >= 1")
        self.n, self.law1, self.law2, self.c = n, law1, law2, c
        self.seed, self.replicas, self.z0 = seed, replicas, z0
        # the equiprobable two-environment law a uniform lineage sees
        self.env = build_environment([(0.5, law1), (0.5, law2)])


def _trees(config: CellTreeConfig, lo: int, hi: int) -> tuple:
    """Per tree r in [lo, hi): its leaves at or below and at or above e^{cn},
    its draws in the log-z lane, and the parasites of one uniform leaf.

    A group first draws each tree's uniform leaf.  at holds each kept
    cell's index in the group's full level k, so tree j holds indices j 2^k
    up to (j + 1) 2^k; a daughter's parity names its law.  A level settles
    the cells that can settle (a cell off its tree's path to the leaf, above
    the lower event bound, under laws that cannot shrink), then branch draws
    law1's daughters of the kept cells and law2's.  lo is a multiple of
    BLOCK, so the first group starts at tree lo; the last holds only the
    trees below hi.
    """
    n, laws = config.n, (config.law1, config.law2)
    size = group_size(n)
    lower, upper = (event_bound(n, config.c, side) for side in ("lower", "upper"))
    settles = config.env.strongly_supercritical
    groups = []
    for first in range(lo, hi, size):
        trees = min(size, hi - first)
        stream = Stream(config.seed, STREAM_CELLS + first // size)
        pick = (np.arange(trees) << n) + stream.at(0, 0).integers(1 << n, size=trees)
        cells, at = Populations.start(config.z0, laws, trees), np.arange(trees)
        above, normal_steps = np.zeros((2, trees), dtype=np.int64)
        for k in range(n):
            if settles:
                done = ~cells.hit(lower, "lower")
                if done.any():
                    done &= at != pick[at >> k] >> (n - k)
                    above += np.bincount(at[done] >> k, minlength=trees) << (n - k)
                    keep = ~done
                    cells = Populations(cells.z[keep], cells.logz[keep], cells.big[keep])
                    at = at[keep]
            cells = Populations(cells.z.repeat(2), cells.logz.repeat(2), cells.big.repeat(2))
            at = ((at << 1)[:, None] | [0, 1]).ravel()
            branch(cells, at & 1, laws, [stream], k + 1)
            if cells.big.any():
                normal_steps += np.bincount(at[cells.big] >> (k + 1), minlength=trees)
        tree = at >> n
        below = np.bincount(tree[cells.hit(lower, "lower")], minlength=trees)
        above += np.bincount(tree[cells.hit(upper, "upper")], minlength=trees)
        rows = np.flatnonzero(at == pick[tree])
        groups.append((below, above, normal_steps, [cells.value(j) for j in rows.tolist()]))
    below, above, normal_steps, leaves = zip(*groups)
    return (np.concatenate(below), np.concatenate(above), np.concatenate(normal_steps),
            [leaf for group in leaves for leaf in group])


class CellTreeResult(NamedTuple):
    below: np.ndarray       # per replicate count of depth-n cells <= e^{cn}
    above: np.ndarray
    leaves: list            # per replicate lineage draw: a uniform leaf's parasites, exact
    mean_below: float
    stderr_below: float
    mean_above: float
    stderr_above: float
    normal_steps: int       # log-z daughter draws made, over all trees (settled cells draw none)
    processes: int          # processes the trees ran on


def simulate_cell_tree(config: CellTreeConfig, workers: int = 1) -> CellTreeResult:
    """Replicated trees; leaves exactly on the threshold count on both sides.

    Every level of every tree steps through simulate.branch, each daughter
    an independent draw from its law.
    """
    procs, blocks = map_replicas(_trees, (config,), config.replicas, workers,
                                 tree_steps(config.n))
    below, above, normal_steps, leaves = zip(*blocks)
    below, above, normal_steps = map(np.concatenate, (below, above, normal_steps))

    def _se(x: np.ndarray) -> float:
        return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0

    return CellTreeResult(
        below=below, above=above, leaves=[leaf for run in leaves for leaf in run],
        mean_below=float(below.mean()), stderr_below=_se(below),
        mean_above=float(above.mean()), stderr_above=_se(above),
        normal_steps=int(normal_steps.sum()), processes=procs,
    )


class IdentityReport(NamedTuple):
    """2^n times the exact process probability, against the tree-side mean
    (CellTreeResult.mean_below and stderr_below).

    z_score is None when every tree gives the same count and it differs
    from expected: the gap is real but has no stderr to scale it.
    """

    expected: float
    z_score: Optional[float]
    probability: float
    threshold: int


def exact_tail(config: CellTreeConfig) -> Tuple[int, float]:
    """(T, P(Z_n <= T)) of the lineage process, T = event_threshold(n, c).

    From the exact distribution of the equiprobable two-environment process
    (exact whenever the laws cannot shrink, which covers the supported use;
    otherwise the truncation bound applies).  A DP past its budget raises
    BudgetExceeded before its first generation; a repeat call on config
    resumes from the DP's kept pmf and runs no generation.
    """
    k = event_threshold(config.n, config.c)
    dist = population_distribution(config.env, config.n,
                                   z0=config.z0, cap=max(k, config.z0))
    return k, dist.prob_le(k)


def expected_count_identity(config: CellTreeConfig,
                            result: CellTreeResult) -> IdentityReport:
    """Check E(number of small cells) = 2^n P(Z_n <= e^{cn}) on result, a
    simulate_cell_tree run of config; the right side is exact_tail's.
    """
    k, prob = exact_tail(config)
    expected = 2 ** config.n * prob
    se = result.stderr_below
    diff = result.mean_below - expected
    if se > 0.0:
        z = diff / se
    else:
        # degenerate tree counts: the exact side still carries float rounding
        z = 0.0 if abs(diff) <= 1e-9 * max(1.0, abs(expected)) else None
    return IdentityReport(expected=expected, z_score=z, probability=prob, threshold=k)

