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
from bpre import cells, simulate
from bpre.cells import TREE_DEPTH_MAX, TREE_LEAVES
from bpre.ratefn import event_bound
from bpre.rng import STREAM_CELLS, Stream, replica_stream
from bpre.simulate import BLOCK, EXACT_LIMIT, Populations


def g2_laws():
    return build_offspring({1: 0.5, 2: 0.5}), build_offspring({2: 0.5, 4: 0.5})


def jump_laws():
    # a parasite stays single or jumps to 2^10: a cell passes 2^62 // 2^10
    # a random number of levels down, so each tree has its own log-z count
    return build_offspring({1: 0.5, 1024: 0.5}), build_offspring({2: 0.5, 1024: 0.5})


def shrink_laws():
    # p0 > 0: a cell above e^{cn} can still have leaves below it
    return build_offspring({0: 0.25, 2: 0.75}), build_offspring({0: 0.25, 4: 0.75})


def doubling_laws():
    # one-point laws: a cell's first daughter keeps its parasites and the
    # second doubles them, so the cell at position p of depth k holds
    # z0 2^popcount(p)
    return build_offspring({1: 1.0}), build_offspring({2: 1.0})


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


def test_identity_matches_exact_marginal():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=8, law1=law1, law2=law2, c=0.4, seed=12, replicas=400)
    report = expected_count_identity(config, simulate_cell_tree(config, workers=4))
    assert report.probability == pytest.approx(0.012010430361483361, abs=1e-12)
    assert report.expected == pytest.approx(2.0**8 * report.probability, rel=1e-12)
    assert abs(report.z_score) <= 3.0


def test_one_point_laws_split_deterministically():
    config = CellTreeConfig(3, *doubling_laws(), c=math.log(3.0) / 3.0, seed=0, replicas=4)
    res = simulate_cell_tree(config)
    # loads over three splits are 2^j with binomial multiplicity; threshold 3
    assert np.all(res.below == 4)
    assert np.all(res.above == 4)


def test_branch_called_once_per_level_on_kept_cells(monkeypatch):
    # one group holds the 3 trees asked for and no more: it draws only the
    # trees a run holds, though S = TREE_LEAVES >> 4 = 1,024
    sizes = []

    def spy(pop, *args):
        assert pop.z.dtype == np.int64
        sizes.append(pop.z.size)
        return simulate.branch(pop, *args)

    monkeypatch.setattr(cells, "branch", spy)
    assert cells.group_size(4) == BLOCK
    config = CellTreeConfig(4, *doubling_laws(), c=0.4, seed=0, replicas=3)
    simulate_cell_tree(config)
    # branch steps both daughters of each kept cell: only p = 7 at depth 3
    # passes e^1.6 and settles, unless a tree's uniform leaf (drawn first
    # from the group's stream) lies below it
    leaves = replica_stream(config.seed, STREAM_CELLS).integers(1 << 4, size=3)
    assert sizes == [2 * k for k in (3, 6, 12, 24 - 3 + int(np.sum(leaves >> 1 == 7)))]
    # under laws that can shrink every level is grown in full
    sizes.clear()
    config = CellTreeConfig(4, *shrink_laws(), c=0.4, seed=0, replicas=3)
    simulate_cell_tree(config)
    assert sizes == [6, 12, 24, 48]


def test_shrinking_laws_tile_the_leaves_of_a_big_root():
    # no cell settles under laws that can shrink, and the irrational
    # threshold ties no leaf
    config = CellTreeConfig(3, *shrink_laws(), c=0.4, z0=5, replicas=20)
    res = simulate_cell_tree(config)
    assert np.all(res.below + res.above == 2**3)


def test_one_point_laws_leave_the_exact_lane_past_its_limit():
    # the exact lane ends at 2^62 // 2 = 2^61 parasites under the doubling laws
    # leaves 2^59, 2^60, 2^60, 2^61 about a threshold e^41.9 ~ 2^60.45
    config = CellTreeConfig(2, *doubling_laws(), c=20.95, z0=2**59)
    res = simulate_cell_tree(config)
    assert res.normal_steps == 0
    assert res.below[0] == 3 and res.above[0] == 1
    # from z0 = 2^60 the depth-2 cell of 2^62 branches in the log-z lane, two
    # draws; its leaves 2^62 and 2^63 sit about a threshold e^43.32 ~ 2^62.5
    config = CellTreeConfig(3, *doubling_laws(), c=14.44, z0=2**60, replicas=3)
    res = simulate_cell_tree(config)
    assert res.normal_steps == 2 * 3
    assert np.all(res.below == 7) and np.all(res.above == 1)


def test_log_lane_tree(pool_per_block):
    law1, law2 = g2_laws()
    # the root's 2^60 parasites branch exactly; every later cell is past
    # 2^62 // 4 and branches in the log-z lane, two draws per cell; the trees
    # span two blocks, one per worker
    config = CellTreeConfig(n=3, law1=law1, law2=law2, c=14.6, seed=4,
                            z0=2**60, replicas=BLOCK + 44)
    res = simulate_cell_tree(config)
    assert res.normal_steps == config.replicas * 2 * (2 + 4)
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


def test_environment_holds_the_config_laws():
    # the laws are passed as built, not rebuilt from their pmfs
    law1, law2 = g2_laws()
    env = CellTreeConfig(n=4, law1=law1, law2=law2, c=0.4).env
    assert env.components[0] is law1 and env.components[1] is law2
    assert env.weights == (0.5, 0.5)


def assert_same_trees(a, b):
    assert np.array_equal(a.below, b.below)
    assert np.array_equal(a.above, b.above)
    assert a.leaves == b.leaves and a.normal_steps == b.normal_steps


def test_identity_at_depth_12():
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=12, law1=law1, law2=law2, c=0.4, seed=12, replicas=400)
    report = expected_count_identity(config, simulate_cell_tree(config, workers=2))
    env = build_environment([(0.5, law1.pmf_dict()), (0.5, law2.pmf_dict())])
    exact = population_distribution(env, 12, cap=121).prob_le(121)
    assert report.threshold == 121
    assert report.probability == pytest.approx(exact, rel=1e-12)
    assert abs(report.z_score) <= 3.0
    # 400 trees fill one block and run in process; two blocks get a pool
    two = CellTreeConfig(n=12, law1=law1, law2=law2, c=0.4, seed=12, replicas=BLOCK + 76)
    assert simulate.processes(two.replicas, 2, cells.tree_steps(12)) > 1
    assert_same_trees(simulate_cell_tree(two, workers=1), simulate_cell_tree(two, workers=2))


def test_uniform_leaf_past_int64_stays_exact():
    # the log-z lane rounds a leaf to an int, and an int past 2^63 stays exact
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=2, law1=law1, law2=law2, c=22.0, z0=2**61, replicas=3)
    leaves = simulate_cell_tree(config).leaves
    assert len(leaves) == 3 and all(type(leaf) is int for leaf in leaves)
    assert max(leaves) >= 1 << 63
    assert leaves == cells._trees(config, 0, 3)[3]


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
    # 60 trees fill one block and run in process; two blocks get a pool
    two = CellTreeConfig(n=6, law1=law1, law2=law2, c=0.4, seed=9, replicas=BLOCK + 60)
    assert simulate.processes(two.replicas, 6, cells.tree_steps(6)) > 1
    assert_same_trees(simulate_cell_tree(two, workers=1), simulate_cell_tree(two, workers=6))


def test_worker_invariance_across_blocks(pool_per_block):
    # n = 8 grows S = 512 trees per stream: 2 groups in each of two blocks
    # of 1,024 trees and a partial one of 352 in the last block, one block
    # per worker
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=8, law1=law1, law2=law2, c=0.4, seed=9,
                            replicas=2 * BLOCK + 352)
    a = simulate_cell_tree(config, workers=1)
    b = simulate_cell_tree(config, workers=3)
    assert np.array_equal(a.below, b.below)
    assert np.array_equal(a.above, b.above)
    assert a.leaves == b.leaves


@pytest.mark.parametrize("laws, c", [(g2_laws(), 0.6), (jump_laws(), 5.0)],
                         ids=["exact", "log-lane"])
def test_more_replicas_extend_fewer(laws, c):
    # n = 10 grows S = 128 trees per stream: the short run's 37 trees are a
    # partial group, drawn alone, that the long run's first group extends
    law1, law2 = laws
    short, long = (CellTreeConfig(n=10, law1=law1, law2=law2, c=c, seed=6, replicas=r)
                   for r in (37, 600))
    a, b = simulate_cell_tree(short), simulate_cell_tree(long)
    assert np.array_equal(a.below, b.below[:37])
    assert np.array_equal(a.above, b.above[:37])
    # per tree: below, above, log-z draws and the uniform leaf
    mine, theirs = cells._trees(short, 0, 37), cells._trees(long, 0, 600)
    for column, full in zip(mine, theirs):
        assert list(column) == list(full[:37])
    assert a.normal_steps == int(theirs[2][:37].sum())
    assert a.leaves == b.leaves[:37]


def reference_tree(config, g):
    """Group g of config's trees regrown from its stream in the documented
    order, each call from its own counter: first one integers draw of each
    tree's uniform leaf at (0, 0, 0, 0); then per depth k = 0..n-1, when
    neither law can shrink, every cell above the lower event bound and off
    its tree's path to that leaf settles, adding its 2^(n - k) leaves to the
    tree's count above; then the daughter level k + 1 draws law1's
    multinomial over the kept exact cells at (0, k + 1, 1, 0) and one normal
    per kept log-z cell at (0, k + 1, 2, 0), then law2's at (0, k + 1, 3, 0)
    and (0, k + 1, 4, 0).  The group is grown whole, all S trees.

    Returns per tree its leaves below and above e^{cn}, its log-z daughter
    draws and the parasites of its uniform leaf.
    """
    n, laws = config.n, (config.law1, config.law2)
    size = cells.group_size(n)
    limit = EXACT_LIMIT // max(law.max_offspring for law in laws)
    lower, upper = (event_bound(n, config.c, side) for side in ("lower", "upper"))
    stream = Stream(config.seed, STREAM_CELLS + g)
    picks = stream.at(0, 0).integers(1 << n, size=size)
    level = Populations.start(config.z0, laws, size)
    tree, pos = np.arange(size), np.zeros(size, dtype=np.int64)
    above = np.zeros(size, dtype=np.int64)
    steps = np.zeros(size, dtype=np.int64)
    for k in range(n):
        if all(law.p0 == 0.0 for law in laws):
            settled = ~level.hit(lower, "lower") & (pos != picks[tree] >> (n - k))
            for j in tree[settled]:
                above[j] += 2 ** (n - k)
            level = Populations(level.z[~settled], level.logz[~settled], level.big[~settled])
            tree, pos = tree[~settled], pos[~settled]
        level.promote(limit)
        exact, big = ~level.big, level.big
        for j in tree[big]:
            steps[j] += 2
        daughters = []
        for i, law in enumerate(laws):
            z, logz = level.z.copy(), level.logz.copy()
            if exact.any():
                z[exact] = (stream.at(k + 1, 1 + 2 * i).multinomial(z[exact], law.probs_arr)
                            @ law.support_arr)
            if big.any():
                g_big = stream.at(k + 1, 2 + 2 * i).standard_normal(int(big.sum()))
                logz[big] += simulate._log_step(law, logz[big], g_big)
            daughters.append((z, logz))
        (z1, logz1), (z2, logz2) = daughters
        level = Populations(np.column_stack([z1, z2]).ravel(),
                            np.column_stack([logz1, logz2]).ravel(), big.repeat(2))
        tree, pos = tree.repeat(2), np.column_stack([2 * pos, 2 * pos + 1]).ravel()
    below = np.zeros(size, dtype=np.int64)
    leaves = [None] * size
    hits = zip(level.hit(lower, "lower").tolist(), level.hit(upper, "upper").tolist())
    for i, (j, p, (low, high)) in enumerate(zip(tree.tolist(), pos.tolist(), hits)):
        below[j] += low
        above[j] += high
        if p == picks[j]:
            leaves[j] = level.value(i)
    return below, above, steps, leaves


@pytest.mark.parametrize("laws, n, c, z0", [(g2_laws(), 6, 0.4, 1), (jump_laws(), 10, 5.0, 1),
                                            (g2_laws(), 3, 14.6, 2**60),
                                            (shrink_laws(), 6, 0.4, 1)],
                         ids=["g2", "log-lane", "big-root", "can-shrink"])
def test_trees_equal_groups_regrown_alone(laws, n, c, z0):
    # _trees' columns over three groups are each group's draws in the
    # documented order, cut at the replica count; cells settle in the g2
    # and log-lane trees
    size = cells.group_size(n)
    config = CellTreeConfig(n=n, law1=laws[0], law2=laws[1], c=c, seed=8, z0=z0,
                            replicas=2 * size + 1)
    got = cells._trees(config, 0, config.replicas)
    groups = [reference_tree(config, g) for g in range(3)]
    for column, parts in zip(got, zip(*groups)):
        assert list(column) == [x for part in parts for x in part][:config.replicas]
    assert (got[2].sum() > 0) == (n != 6)


@pytest.mark.parametrize("n", [2, 6, 9], ids="independent-{}".format)
def test_trees_of_two_blocks_match_each_block_alone(n):
    # one run of two blocks (one group of 1,024 trees each at n = 2 and 6,
    # four of 256 at n = 9) gives what each block gives alone, each
    # daughter an independent draw from its law
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=n, law1=law1, law2=law2, c=0.4, seed=4, replicas=2 * BLOCK)
    both = cells._trees(config, 0, 2 * BLOCK)
    alone = [cells._trees(config, lo, lo + BLOCK) for lo in (0, BLOCK)]
    for column, first, second in zip(both, *alone):
        assert list(column) == list(first) + list(second)
    assert both[0].std() > 0


@pytest.mark.parametrize("n", [4, 8, 12])
def test_fewer_trees_are_a_prefix_of_more(pool_per_block, n):
    # S = 1,024, 512 and 32 trees: 10 and 100 trees cut a group, and
    # BLOCK + 76 end in a partial group of a second block; on 1 or 2
    # workers every tree is the same tree of the longest run
    law1, law2 = g2_laws()
    configs = {r: CellTreeConfig(n=n, law1=law1, law2=law2, c=0.4, seed=2, replicas=r)
               for r in (10, 100, BLOCK + 76)}
    longest = cells._trees(configs[BLOCK + 76], 0, BLOCK + 76)
    for r, config in configs.items():
        for column, full in zip(cells._trees(config, 0, r), longest):
            assert list(column) == list(full[:r]), r
        res = simulate_cell_tree(config, workers=2)
        assert list(res.below) == list(longest[0][:r])
        assert list(res.above) == list(longest[1][:r])
        assert res.leaves == longest[3][:r]
    assert np.std(longest[0]) > 0


def test_tree_group_memory_stays_in_budget():
    # trees of 2^8 leaves grow TREE_LEAVES leaves at a time, two groups of
    # 512 trees here: the last level's cells and their draws take about 65
    # bytes a leaf when nothing settles; a group of all 1,024 trees of a
    # block would hold 2^18 leaves, about 16 MB
    law1, law2 = g2_laws()
    assert cells.group_size(8) == BLOCK // 2
    config = CellTreeConfig(n=8, law1=law1, law2=law2, c=0.4, seed=0, replicas=BLOCK)
    tracemalloc.start()
    try:
        simulate_cell_tree(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * TREE_LEAVES


def test_group_size_divides_blocks_and_bounds_levels():
    # a group never straddles a map_replicas block, and its deepest level
    # holds S 2^n cells, at most max(TREE_LEAVES, 2^n)
    for n in range(1, TREE_DEPTH_MAX + 1):
        size = cells.group_size(n)
        assert size & (size - 1) == 0 and BLOCK % size == 0, n
        assert size << n <= max(TREE_LEAVES, 1 << n), n


def test_tree_group_memory_stays_in_budget_at_depth_2():
    # at n = 2 a group is a whole block of trees, BLOCK of them, and at c = 3
    # (e^6 > 4^2) no cell settles: the two groups of a run are grown one at
    # a time, so the peak stays within 100 bytes a leaf of one group (about
    # 0.37 MB traced; a group of twice the size traces about 0.58 MB)
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=2, law1=law1, law2=law2, c=3.0, seed=0, replicas=2 * BLOCK)
    assert cells.group_size(2) == BLOCK
    tracemalloc.start()
    try:
        res = simulate_cell_tree(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(res.below == 2**2)
    assert peak <= 100 * (cells.group_size(2) << 2)


def test_tree_group_memory_stays_in_budget_when_nothing_settles():
    # at c = 1.5 every leaf (at most 4^8 < e^12 parasites) is at or below
    # e^{cn}: no cell settles, and each level of both groups of 512 trees
    # is grown in full
    law1, law2 = g2_laws()
    config = CellTreeConfig(n=8, law1=law1, law2=law2, c=1.5, seed=0, replicas=BLOCK)
    tracemalloc.start()
    try:
        res = simulate_cell_tree(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(res.below == 2**8)
    assert peak <= 100 * TREE_LEAVES


def step_laws():
    # a parasite stays single or leaps to 30: a tree's cells settle at
    # random depths, and most leaves sit far above e^{cn}
    return build_offspring({1: 0.8, 30: 0.2}), build_offspring({2: 0.7, 30: 0.3})


@pytest.mark.parametrize("laws, n, c", [(g2_laws(), 8, 0.4), (jump_laws(), 6, 1.2),
                                        (step_laws(), 5, 0.9), (g2_laws(), 6, math.log(16) / 6)],
                         ids=["g2", "jump", "step", "integer-bound"])
def test_mean_above_matches_upper_tail(laws, n, c):
    # E(number of leaves >= e^{cn}) = 2^n P(Z_n >= e^{cn}): the count that
    # settled cells fill in, against the exact law of the two-environment
    # process; at an integer e^{cn} = 16 a leaf on it counts on both sides
    law1, law2 = laws
    config = CellTreeConfig(n=n, law1=law1, law2=law2, c=c, seed=40, replicas=600)
    res = simulate_cell_tree(config)
    k = math.ceil(event_bound(n, c, "upper"))
    prob = population_distribution(config.env, n, cap=k).prob_ge(k)
    assert 0.0 < prob < 1.0 and res.stderr_above > 0.0
    assert abs(res.mean_above - 2**n * prob) <= 6 * res.stderr_above
    if math.exp(c * n) == pytest.approx(16, rel=1e-12):
        assert k == 16 and np.any(res.below + res.above > 2**n)
        assert abs(expected_count_identity(config, res).z_score) <= 6
    else:
        assert np.all(res.below + res.above == 2**n)


def test_config_validation():
    law1, law2 = g2_laws()
    with pytest.raises(BudgetExceededError):
        CellTreeConfig(n=21, law1=law1, law2=law2, c=0.4)
    with pytest.raises(ValueError):
        CellTreeConfig(n=0, law1=law1, law2=law2, c=0.4)
    with pytest.raises(ValueError):
        CellTreeConfig(n=3, law1=law1, law2=law2, c=0.4, replicas=0)
