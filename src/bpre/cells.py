"""Binary cell tree with parasite multiplication.

Every cell divides into exactly two daughters; each parasite sends an
independent offspring draw from law1 into the first daughter and from law2
into the second.  A uniformly random lineage through the tree then sees the
two laws in equiprobable random order, so leaf counts along it follow the
two-environment branching process, and the expected number of depth-n cells
with few parasites factors as 2^n times the process tail probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .envmodel import EnvironmentLaw, OffspringDistribution, build_environment
from .errors import BudgetExceededError
from .oracle import population_distribution
from .rng import STREAM_CELLS, replica_stream
from .simulate import branch_step, map_replicas

TREE_DEPTH_MAX = 20

# joint offspring hook: (parasites, rng) -> totals passed to the two daughters
JointSampler = Callable[[int, np.random.Generator], Tuple[int, int]]


@dataclass(frozen=True)
class CellTreeConfig:
    n: int
    law1: OffspringDistribution
    law2: OffspringDistribution
    c: float
    seed: int = 0
    replicas: int = 1
    z0: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n={self.n} must be >= 1")
        if self.n > TREE_DEPTH_MAX:
            raise BudgetExceededError(
                f"tree depth {self.n} exceeds the {TREE_DEPTH_MAX}-level budget"
            )
        if self.z0 < 1:
            raise ValueError(f"z0={self.z0} must be >= 1")
        if self.replicas < 1:
            raise ValueError(f"replicas={self.replicas} must be >= 1")

    @property
    def threshold(self) -> float:
        return math.exp(self.c * self.n)

    def environment(self) -> EnvironmentLaw:
        """The equiprobable two-environment law seen by a random lineage."""
        return build_environment([
            (0.5, dict(zip(self.law1.support, self.law1.probs))),
            (0.5, dict(zip(self.law2.support, self.law2.probs))),
        ])


def _grow_tree(config: CellTreeConfig, joint: Optional[JointSampler],
               rng: np.random.Generator) -> list:
    counts = [config.z0]
    for _ in range(config.n):
        nxt = []
        for z in counts:
            if joint is None:
                z1 = branch_step(z, config.law1, rng)
                z2 = branch_step(z, config.law2, rng)
            else:
                z1, z2 = joint(z, rng)
            nxt.append(z1)
            nxt.append(z2)
        counts = nxt
    return counts


def _per_replica(worker: Callable, args: tuple, lo: int, hi: int) -> list:
    return [worker(*args, r) for r in range(lo, hi)]


def _map_trees(worker: Callable, config: CellTreeConfig,
               joint: Optional[JointSampler], workers: int) -> list:
    """[worker(config, joint, r) for every replica r]; tree r reads its own stream."""
    blocks = map_replicas(_per_replica, (worker, (config, joint)),
                          config.replicas, workers)
    return [out for block in blocks for out in block]


def _tree_counts(config: CellTreeConfig, joint: Optional[JointSampler],
                 replica: int) -> Tuple[int, int]:
    """Depth-n cells of one tree at or below, and at or above, e^{cn}."""
    rng = replica_stream(config.seed, STREAM_CELLS + replica)
    counts = _grow_tree(config, joint, rng)
    t = config.threshold
    slack = 1e-9 * max(1.0, t)
    return (sum(1 for z in counts if z <= t + slack),
            sum(1 for z in counts if z >= t - slack))


@dataclass(frozen=True)
class CellTreeResult:
    below: np.ndarray       # per replicate count of depth-n cells <= e^{cn}
    above: np.ndarray
    mean_below: float
    stderr_below: float
    mean_above: float
    stderr_above: float
    threshold: float
    config: CellTreeConfig


def simulate_cell_tree(config: CellTreeConfig,
                       joint: Optional[JointSampler] = None,
                       workers: int = 1) -> CellTreeResult:
    """Replicated full trees; cells exactly on the threshold count on both sides.

    joint overrides the default independent daughter draws with a coupled
    sampler; it must be a picklable callable when workers > 1.
    """
    out = _map_trees(_tree_counts, config, joint, workers)
    below, above = (np.array(side, dtype=np.int64) for side in zip(*out))

    def _se(x: np.ndarray) -> float:
        return float(x.std(ddof=1) / math.sqrt(x.size)) if x.size > 1 else 0.0

    return CellTreeResult(
        below=below, above=above,
        mean_below=float(below.mean()), stderr_below=_se(below),
        mean_above=float(above.mean()), stderr_above=_se(above),
        threshold=config.threshold, config=config,
    )


@dataclass(frozen=True)
class IdentityReport:
    """Tree-side mean versus 2^n times the exact process probability."""

    tree_mean: float
    tree_stderr: float
    expected: float
    z_score: float
    probability: float
    threshold: int
    n: int
    replicas: int


def expected_count_identity(config: CellTreeConfig,
                            joint: Optional[JointSampler] = None,
                            workers: int = 1,
                            cap: Optional[int] = None,
                            result: Optional[CellTreeResult] = None
                            ) -> IdentityReport:
    """Check E(number of small cells) = 2^n P(Z_n <= e^{cn}).

    The right side comes from the exact distribution of the equiprobable
    two-environment process (exact whenever the laws cannot shrink, which
    covers the supported use; otherwise the truncation bound applies).
    Pass result to reuse an existing simulation instead of rerunning.
    """
    if result is None:
        result = simulate_cell_tree(config, joint=joint, workers=workers)
    k = int(math.floor(config.threshold + 1e-12))
    if cap is None:
        cap = max(k, config.z0)
    dist = population_distribution(config.environment(), config.n,
                                   z0=config.z0, cap=cap)
    prob = dist.prob_le(k)
    expected = 2 ** config.n * prob
    se = result.stderr_below
    diff = result.mean_below - expected
    if se > 0.0:
        z = diff / se
    else:
        # degenerate tree counts: the exact side still carries float rounding
        z = 0.0 if abs(diff) <= 1e-9 * max(1.0, abs(expected)) else math.inf

    return IdentityReport(
        tree_mean=result.mean_below, tree_stderr=se, expected=expected,
        z_score=z, probability=prob, threshold=k, n=config.n,
        replicas=config.replicas,
    )


def _leaf_count(config: CellTreeConfig, joint: Optional[JointSampler],
                replica: int) -> int:
    rng = replica_stream(config.seed, STREAM_CELLS + replica)
    counts = _grow_tree(config, joint, rng)
    return counts[int(rng.integers(len(counts)))]


def uniform_leaf_counts(config: CellTreeConfig,
                        joint: Optional[JointSampler] = None,
                        workers: int = 1) -> np.ndarray:
    """Parasite count of one uniformly chosen depth-n cell per replicate.

    Marginally these follow the two-environment branching process, which is
    what the lineage consistency test checks against the exact pmf.
    """
    return np.array(_map_trees(_leaf_count, config, joint, workers), dtype=np.int64)
