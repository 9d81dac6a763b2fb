import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from bpre import (
    BudgetExceededError,
    CellTreeConfig,
    build_environment,
    build_offspring,
    expected_count_identity,
    population_distribution,
    simulate_cell_tree,
)
from bpre import cells
from bpre.cells import TREE_DEPTH_MAX, TREE_LEAVES
from bpre.simulate import BLOCK


def g2_laws():
    return build_offspring({1: 0.5, 2: 0.5}), build_offspring({2: 0.5, 4: 0.5})


def jump_laws():
    # a parasite stays single or jumps to 2^10: a cell passes 2^62 // 2^10
    # a random number of levels down, so each tree has its own log-z count
    return build_offspring({1: 0.5, 1024: 0.5}), build_offspring({2: 0.5, 1024: 0.5})


def coupled_double(z, rng):
    return z, 2 * z


def test_frozen_single_parasite():
    one = build_offspring({1: 1.0})
    config = CellTreeConfig(n=5, law1=one, law2=one, c=0.5, seed=0, replicas=3)
    res = simulate_cell_tree(config)
    assert np.all(res.below == 2**5)
    assert np.all(res.above == 0)
    assert res.mean_below == 32.0 and res.stderr_below == 0.0


def test_one_split_deterministic():
    config = CellTreeConfig(
        n=1,
        law1=build_offspring({1: 1.0}),
        law2=build_offspring({2: 1.0}),
        c=0.5,
        seed=0,
        replicas=2,
    )
    # threshold e^{0.5} sits strictly between the two daughter loads
    res = simulate_cell_tree(config)
    assert np.all(res.below == 1)
    assert np.all(res.above == 1)


def test_sure_event_counts_everything():
    law1, law2 = g2_laws()
    c = math.log(4.0) + 0.1
    config = CellTreeConfig(n=4, law1=law1, law2=law2, c=c, seed=3, replicas=8)
    res = simulate_cell_tree(config)
    assert np.all(res.below == 2**4)
    report = expected_count_identity(config, result=res)
    assert report.probability == pytest.approx(1.0, abs=1e-12)
    assert report.expected == pytest.approx(2.0**4, abs=1e-9)
    assert report.z_score == 0.0


def test_below_above_partition():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=6, law1=law1, law2=law2, c=0.35, seed=3, replicas=5)
    res = simulate_cell_tree(config)
    # irrational threshold: no leaf load ties, the two counts tile the leaves
    assert np.all(res.below + res.above == 2**6)
    assert res.threshold == pytest.approx(math.exp(0.35 * 6))


def test_identity_matches_exact_marginal():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=8, law1=law1, law2=law2, c=0.4, seed=12, replicas=400)
    report = expected_count_identity(config, simulate_cell_tree(config, workers=4))
    assert report.probability == pytest.approx(0.012010430361483361, abs=1e-12)
    assert report.expected == pytest.approx(2.0**8 * report.probability, rel=1e-12)
    assert abs(report.z_score) <= 3.0


def test_joint_sampler_hook():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=3, law1=law1, law2=law2, c=math.log(3.0) / 3.0, seed=0, replicas=4)
    res = simulate_cell_tree(config, joint=coupled_double)
    # loads over three splits are 2^j with binomial multiplicity; threshold 3
    assert np.all(res.below == 4)
    assert np.all(res.above == 4)


class CountingDouble:
    """coupled_double that records the cell counts it is called with."""

    def __init__(self):
        self.sizes = []

    def __call__(self, z, rng):
        assert z.dtype == np.int64
        self.sizes.append(z.size)
        return coupled_double(z, rng)


def test_joint_sampler_called_once_per_level():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=4, law1=law1, law2=law2, c=0.4, seed=0, replicas=3)
    joint = CountingDouble()
    simulate_cell_tree(config, joint=joint)
    # one group of S = 2^12 >> 4 = 256 trees, the 3 asked for and 253 more
    assert joint.sizes == [256, 512, 1024, 2048]


def test_joint_sampler_stays_in_exact_lane():
    # the exact lane ends at 2^62 // 4 = 2^60 parasites under g2's laws
    law1, law2 = g2_laws()
    # leaves 2^59, 2^60, 2^60, 2^61 about a threshold e^41.9 ~ 2^60.45
    config = CellTreeConfig(n=2, law1=law1, law2=law2, c=20.95, z0=2**59)
    res = simulate_cell_tree(config, joint=coupled_double)
    assert res.normal_steps == 0
    assert res.below[0] == 3 and res.above[0] == 1
    for n, z0 in ((3, 2**59), (1, 2**61)):
        config = CellTreeConfig(n=n, law1=law1, law2=law2, c=40.0, z0=z0)
        with pytest.raises(BudgetExceededError, match="joint sampler"):
            simulate_cell_tree(config, joint=coupled_double)


def test_log_lane_tree(pool_per_block):
    law1, law2 = g2_laws()
    # the root's 2^60 parasites branch exactly; every later cell is past
    # 2^62 // 4 and branches in the log-z lane, two draws per cell
    config = CellTreeConfig(n=3, law1=law1, law2=law2, c=14.6, seed=4,
                            z0=2**60, replicas=300)
    res = simulate_cell_tree(config)
    assert res.normal_steps == 300 * 2 * (2 + 4)
    assert np.all(res.below + res.above == 2**3)
    # leaves sit near 2^60 * 1.5^a * 3^(3-a), relative noise ~2^-30; the
    # threshold e^43.8 ~ 2^63.2 keeps the four with a >= 2 below
    assert np.all(res.below == 4)
    again = simulate_cell_tree(config, workers=2)
    assert np.array_equal(res.below, again.below)
    assert np.array_equal(res.above, again.above)
    assert res.normal_steps == again.normal_steps


def test_tree_at_depth_max():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=TREE_DEPTH_MAX, law1=law1, law2=law2, c=0.4, seed=5)
    res = simulate_cell_tree(config)
    assert res.below + res.above == 2**TREE_DEPTH_MAX
    assert res.normal_steps == 0


def test_identity_at_depth_12():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=12, law1=law1, law2=law2, c=0.4, seed=12, replicas=400)
    report = expected_count_identity(config, simulate_cell_tree(config, workers=2))
    env = build_environment([(0.5, law1.pmf_dict()), (0.5, law2.pmf_dict())])
    exact = population_distribution(env, 12, cap=121).prob_le(121)
    assert report.threshold == 121
    assert report.probability == pytest.approx(exact, rel=1e-12)
    assert abs(report.z_score) <= 3.0


def test_uniform_leaf_past_int64_stays_exact():
    # the log-z lane rounds a leaf to an int, and an int past 2^63 stays exact
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=2, law1=law1, law2=law2, c=22.0, z0=2**61, replicas=3)
    leaves = simulate_cell_tree(config).leaves
    assert len(leaves) == 3 and all(type(leaf) is int for leaf in leaves)
    assert max(leaves) >= 1 << 63
    assert leaves == cells._trees(config, None, 0, 3)[3]


def test_uniform_leaf_matches_marginal_law():
    law1, law2 = g2_laws()
    env = build_environment([(0.5, law1.pmf_dict()), (0.5, law2.pmf_dict())])
    n = 6
    config = CellTreeConfig(n=n, law1=law1, law2=law2, c=0.4, seed=21, replicas=4_000)
    counts = np.array(simulate_cell_tree(config, workers=4).leaves)
    assert counts.shape == (4_000,)
    dist = population_distribution(env, n, z0=1, cap=4**n)
    values = [z for z in range(4**n + 1) if dist.prob_eq(z) > 0.0]
    probs = np.array([dist.prob_eq(z) for z in values])
    observed = np.array([int(np.sum(counts == z)) for z in values])
    # group low-expectation states so the chi-square approximation holds
    expected = probs * counts.size
    order = np.argsort(-expected)
    obs_b, exp_b = [], []
    acc_o = acc_e = 0.0
    for idx in order:
        acc_o += observed[idx]
        acc_e += expected[idx]
        if acc_e >= 8.0:
            obs_b.append(acc_o)
            exp_b.append(acc_e)
            acc_o = acc_e = 0.0
    obs_b[-1] += acc_o
    exp_b[-1] += acc_e
    stat = float(np.sum((np.array(obs_b) - np.array(exp_b)) ** 2 / np.array(exp_b)))
    pvalue = float(scipy.stats.chi2.sf(stat, df=len(obs_b) - 1))
    assert pvalue > 0.01


def test_worker_invariance(pool_per_block):
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=6, law1=law1, law2=law2, c=0.4, seed=9, replicas=60)
    a = simulate_cell_tree(config, workers=1)
    b = simulate_cell_tree(config, workers=6)
    assert np.array_equal(a.below, b.below)
    assert np.array_equal(a.above, b.above)


def test_worker_invariance_across_blocks(pool_per_block):
    # n = 10 grows S = 4 trees per stream: 64 groups in each of two blocks
    # of 256 trees and 22 in the last block of 88, one block per worker
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=10, law1=law1, law2=law2, c=0.4, seed=9, replicas=600)
    a = simulate_cell_tree(config, workers=1)
    b = simulate_cell_tree(config, workers=3)
    assert np.array_equal(a.below, b.below)
    assert np.array_equal(a.above, b.above)
    assert a.leaves == b.leaves


@pytest.mark.parametrize("laws, c", [(g2_laws(), 0.6), (jump_laws(), 5.0)],
                         ids=["exact", "log-lane"])
def test_more_replicas_extend_fewer(laws, c):
    # n = 10 grows S = 4 trees per stream: tree 36 starts the short run's
    # partial last group, grown in full as in the long run
    law1, law2 = laws
    short, long = (CellTreeConfig(n=10, law1=law1, law2=law2, c=c, seed=6, replicas=r)
                   for r in (37, 600))
    a, b = simulate_cell_tree(short), simulate_cell_tree(long)
    assert np.array_equal(a.below, b.below[:37])
    assert np.array_equal(a.above, b.above[:37])
    # per tree: below, above, log-z draws and the uniform leaf
    mine, theirs = cells._trees(short, None, 0, 37), cells._trees(long, None, 0, BLOCK)
    for column, full in zip(mine, theirs):
        assert list(column) == list(full[:37])
    assert a.normal_steps == int(theirs[2][:37].sum())
    assert a.leaves == b.leaves[:37]


def random_joint(z, rng):
    """A coupled sampler that draws: the daughters share a binomial split."""
    k = rng.binomial(z, 0.5)
    return z + k, 2 * z - k


@pytest.mark.parametrize("n", [2, 6])
@pytest.mark.parametrize("joint", [None, random_joint], ids=["independent", "joint"])
def test_trees_of_two_blocks_match_each_block_alone(n, joint):
    # one run of two blocks (one group of 256 trees each at n = 2, 16 of
    # 64 at n = 6) gives what each block gives alone
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=n, law1=law1, law2=law2, c=0.4, seed=4, replicas=2 * BLOCK)
    both = cells._trees(config, joint, 0, 2 * BLOCK)
    alone = [cells._trees(config, joint, lo, lo + BLOCK) for lo in (0, BLOCK)]
    for column, first, second in zip(both, *alone):
        assert list(column) == list(first) + list(second)
    assert both[0].std() > 0


def test_tree_group_memory_stays_in_budget():
    # trees of 2^8 leaves grow TREE_LEAVES leaves at a time: the last
    # level's cells and their draws take about 64 bytes a leaf; a group of
    # all 256 trees of a block would hold 2^16 leaves, about 3.5 MB
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=8, law1=law1, law2=law2, c=0.4, seed=0, replicas=512)
    tracemalloc.start()
    try:
        simulate_cell_tree(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * TREE_LEAVES


def test_config_validation():
    law1, law2 = g2_laws()
    with pytest.raises(BudgetExceededError):
        CellTreeConfig(n=21, law1=law1, law2=law2, c=0.4)
    with pytest.raises(ValueError):
        CellTreeConfig(n=0, law1=law1, law2=law2, c=0.4)
    with pytest.raises(ValueError):
        CellTreeConfig(n=3, law1=law1, law2=law2, c=0.4, replicas=0)
