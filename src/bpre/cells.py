"""Binary cell tree with parasite multiplication (Bansaye 2008).

Every cell divides into exactly two daughters; each parasite sends an
independent offspring draw from law1 into the first daughter and from law2
into the second.  A uniformly random lineage through the tree then sees the
two laws in equiprobable random order, so leaf counts along it follow the
two-environment branching process, and the expected number of depth-n cells
with few parasites factors as 2^n times the process tail probability.
simulate_cell_tree returns, from one run, each tree's counts for that
identity and the parasites of one uniform leaf, the tree's lineage draw.

Trees grow in groups of S = max(1, min(BLOCK, TREE_LEAVES >> n)), a level
at a time: group g reads the one stream replica_stream(seed, STREAM_CELLS + g)
and holds a level of its S trees as one flat array of S * 2^k cells, tree by
tree.  simulate.law_step fills the first daughters of all those cells from
law1, then the second ones from law2, in the block engine's exact int64 and
log-z lanes.  S is a power of two that divides BLOCK, so a group never
straddles a map_replicas block, and a partial last group is grown in full:
tree r depends only on (seed, config, r), for any worker or replica count.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .envmodel import EnvironmentLaw, OffspringDistribution, build_environment
from .errors import BudgetExceededError, InvalidArgumentError
from .oracle import event_bound, event_threshold, exp_cn, population_distribution
from .rng import STREAM_CELLS, replica_stream
from .simulate import BLOCK, EXACT_LIMIT, Populations, law_step, map_replicas

TREE_DEPTH_MAX = 20

# Most leaves in one group of trees, and so on one stream; a group holds
# 1 to BLOCK trees, so a level holds at most max(TREE_LEAVES, 2^n) cells.
TREE_LEAVES = 1 << 12

# joint offspring hook per level: (parasites of its cells, rng) -> daughter totals
JointSampler = Callable[[np.ndarray, np.random.Generator], Tuple[np.ndarray, np.ndarray]]


class CellTreeConfig:
    __slots__ = ("n", "law1", "law2", "c", "seed", "replicas", "z0")

    def __init__(self, n: int, law1: OffspringDistribution, law2: OffspringDistribution,
                 c: float, seed: int = 0, replicas: int = 1, z0: int = 1):
        if n < 1:
            raise InvalidArgumentError(f"n={n} must be >= 1")
        if n > TREE_DEPTH_MAX:
            raise BudgetExceededError(
                f"tree depth {n} exceeds the {TREE_DEPTH_MAX}-level budget"
            )
        exp_cn(n, c)   # refuses e^{cn} past the float range
        if z0 < 1:
            raise InvalidArgumentError(f"z0={z0} must be >= 1")
        if replicas < 1:
            raise InvalidArgumentError(f"replicas={replicas} must be >= 1")
        self.n, self.law1, self.law2, self.c = n, law1, law2, c
        self.seed, self.replicas, self.z0 = seed, replicas, z0

    @property
    def threshold(self) -> float:
        return exp_cn(self.n, self.c)

    def environment(self) -> EnvironmentLaw:
        """The equiprobable two-environment law seen by a random lineage."""
        return build_environment([(0.5, self.law1.pmf_dict()),
                                  (0.5, self.law2.pmf_dict())])


def _trees(config: CellTreeConfig, joint: Optional[JointSampler],
           lo: int, hi: int) -> tuple:
    """Per tree r in [lo, hi): its leaves at or below and at or above e^{cn},
    its draws in the log-z lane, and the parasites of one uniform leaf.

    A group puts the daughters of cell i at 2i and 2i + 1, so the leaves
    of its tree j are cells j 2^n up to (j + 1) 2^n.  A level draws law1's
    daughters, then law2's, or calls joint once on all its cells; after the
    last level one integers draw picks each tree's uniform leaf.  lo is a
    multiple of BLOCK, so the first group starts at tree lo.
    """
    n, laws = config.n, (config.law1, config.law2)
    size = max(1, min(BLOCK, TREE_LEAVES >> n))
    limit = EXACT_LIMIT // max(law.max_offspring for law in laws)
    bounds = [(event_bound(n, config.c, side), side) for side in ("lower", "upper")]
    groups = []
    for g in range(lo // size, -(-hi // size)):
        rng = replica_stream(config.seed, STREAM_CELLS + g)
        cells = Populations.start(config.z0, limit, size)
        normal_steps = np.zeros(size, dtype=np.int64)
        for _ in range(n):
            cells.promote(limit)
            big, exact = cells.big, ~cells.big
            zs, logzs = cells.z[exact], cells.logz[big]
            if joint is None:
                daughters = [law_step(law, zs, logzs, [rng], exact, big) for law in laws]
            elif big.any():
                raise BudgetExceededError(f"joint sampler: a cell above {limit} parasites")
            else:
                daughters = [(d, logzs) for d in joint(zs, rng)]
            normal_steps += 2 * big.reshape(size, -1).sum(axis=1)
            z, logz = np.zeros((2, big.size), dtype=np.int64), np.zeros((2, big.size))
            for j, (dz, dlogz) in enumerate(daughters):
                z[j, exact], logz[j, big] = dz, dlogz
            cells = Populations(z.T.ravel(), logz.T.ravel(), big.repeat(2))
        picks = (np.arange(size) << n) + rng.integers(1 << n, size=size)
        counts = [cells.hit(*bound).reshape(size, -1).sum(axis=1) for bound in bounds]
        groups.append((*counts, normal_steps, [cells.value(j) for j in picks.tolist()]))
    below, above, normal_steps, leaves = zip(*groups)
    keep = hi - lo
    return (np.concatenate(below)[:keep], np.concatenate(above)[:keep],
            np.concatenate(normal_steps)[:keep],
            [leaf for group in leaves for leaf in group][:keep])


class CellTreeResult(NamedTuple):
    below: np.ndarray       # per replicate count of depth-n cells <= e^{cn}
    above: np.ndarray
    leaves: list            # per replicate lineage draw: a uniform leaf's parasites, exact
    mean_below: float
    stderr_below: float
    mean_above: float
    stderr_above: float
    threshold: float
    normal_steps: int       # daughter draws in the log-z lane, over all trees
    config: CellTreeConfig


def simulate_cell_tree(config: CellTreeConfig,
                       joint: Optional[JointSampler] = None,
                       workers: int = 1) -> CellTreeResult:
    """Replicated full trees; cells exactly on the threshold count on both sides.

    joint overrides the default independent daughter draws with a coupled
    sampler, called once per level of each group of trees on the parasite
    counts of all S 2^k cells of that level; it must be picklable when
    workers > 1.  Under joint, a cell that would divide with more than
    EXACT_LIMIT // (largest offspring count of law1 and law2) parasites
    raises BudgetExceededError.
    """
    blocks = map_replicas(_trees, (config, joint), config.replicas, workers,
                          1 << config.n)
    below, above, normal_steps, leaves = zip(*blocks)
    below, above, normal_steps = map(np.concatenate, (below, above, normal_steps))

    def _se(x: np.ndarray) -> float:
        return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0

    return CellTreeResult(
        below=below, above=above, leaves=[leaf for run in leaves for leaf in run],
        mean_below=float(below.mean()), stderr_below=_se(below),
        mean_above=float(above.mean()), stderr_above=_se(above),
        threshold=config.threshold, normal_steps=int(normal_steps.sum()),
        config=config,
    )


class IdentityReport(NamedTuple):
    """Tree-side mean versus 2^n times the exact process probability.

    z_score is None when every tree gives the same count and it differs
    from expected: the gap is real but has no stderr to scale it.
    """

    tree_mean: float
    tree_stderr: float
    expected: float
    z_score: Optional[float]
    probability: float
    threshold: int
    n: int
    replicas: int


def expected_count_identity(config: CellTreeConfig,
                            result: CellTreeResult) -> IdentityReport:
    """Check E(number of small cells) = 2^n P(Z_n <= e^{cn}) on result, a
    simulate_cell_tree run of config.

    The right side comes from the exact distribution of the equiprobable
    two-environment process (exact whenever the laws cannot shrink, which
    covers the supported use; otherwise the truncation bound applies).
    """
    k = event_threshold(config.n, config.c)
    dist = population_distribution(config.environment(), config.n,
                                   z0=config.z0, cap=max(k, config.z0))
    prob = dist.prob_le(k)
    expected = 2 ** config.n * prob
    se = result.stderr_below
    diff = result.mean_below - expected
    if se > 0.0:
        z = diff / se
    else:
        # degenerate tree counts: the exact side still carries float rounding
        z = 0.0 if abs(diff) <= 1e-9 * max(1.0, abs(expected)) else None

    return IdentityReport(
        tree_mean=result.mean_below, tree_stderr=se, expected=expected,
        z_score=z, probability=prob, threshold=k, n=config.n,
        replicas=config.replicas,
    )

