import concurrent.futures
import math
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from bpre import (
    BudgetExceededError,
    InvalidArgumentError,
    SimConfig,
    build_environment,
    build_offspring,
    final_states,
    replica_stream,
)
from bpre import rare_event, rng, simulate
from bpre.cells import tree_steps
from bpre.simulate import (BLOCK, EXACT_LIMIT, POOL_STEPS, RUN_BLOCKS, Populations, branch,
                            branch_step, draw_env_index, map_replicas, processes, run)
from bpre.rng import STREAM_TILT, STREAM_TWO_PHASE, Stream
from conftest import event_threshold, exact_lower, naive_sample


def test_branch_step_trivial():
    d = build_offspring({2: 1.0})
    rng = replica_stream(0, 0)
    assert branch_step(0, d, rng) == 0
    assert branch_step(5, d, rng) == 10
    assert branch_step(1 << 70, d, rng) == 1 << 71   # a one-point law stays exact
    with pytest.raises(ValueError):
        branch_step(-1, d, rng)


def test_branch_step_mean_band():
    d = build_offspring({1: 0.5, 2: 0.5})
    rng = replica_stream(123, 0)
    z = 1_000_000
    reps = 2_000
    vals = np.array([branch_step(z, d, rng) / z for _ in range(reps)])
    se = math.sqrt(0.25 / z / reps)
    assert abs(vals.mean() - 1.5) <= 3.0 * se


def test_branch_step_huge_population_moment_match():
    d = build_offspring({1: 0.5, 2: 0.5})
    rng = replica_stream(0, 1)
    # past EXACT_LIMIT // 2 the lane is log z, like the engine's
    for z in (1 << 62, 1 << 63):
        out = branch_step(z, d, rng)
        assert z <= out <= 2 * z
        # relative fluctuation is ~sqrt(z)/z, invisible at this scale
        assert abs(out / z - 1.5) <= 1e-6
    # past float range (2^1024) the step still returns an int
    out = branch_step(1 << 1100, d, rng)
    assert abs(math.log(out) - math.log(1.5) - 1100 * math.log(2.0)) <= 1e-9


def take_off_step(traj, threshold):
    """First generation of a run's path with population above threshold, None if never."""
    return next((k for k, zk in enumerate(traj.z) if zk > threshold), None)


def test_run_deterministic_law(dirac2):
    config = SimConfig(env=dirac2, n=10, z0=1, seed=5)
    traj = run(config)
    assert traj.z == [2**k for k in range(11)]
    assert traj.env_idx == [0] * 10
    assert traj.z[-1] == 1024
    for k, s in enumerate(traj.s):
        assert s == pytest.approx(k * math.log(2.0), abs=1e-12)
    assert take_off_step(traj, 1) == 1
    assert take_off_step(traj, 10**9) is None


def test_run_shapes_and_monotone(g2):
    config = SimConfig(env=g2, n=15, z0=3, seed=9)
    traj = run(config, replica=4)
    assert len(traj.z) == 16 and len(traj.s) == 16 and len(traj.env_idx) == 15
    assert traj.z[0] == 3 and traj.s[0] == 0.0
    assert all(b >= a for a, b in zip(traj.z, traj.z[1:]))
    assert set(traj.env_idx) <= {0, 1}


def test_run_is_deterministic_per_replica(g2):
    config = SimConfig(env=g2, n=10, z0=1, seed=77)
    a = run(config, replica=3)
    b = run(config, replica=3)
    assert a.z == b.z and a.s == b.s and a.env_idx == b.env_idx
    c = run(config, replica=4)
    assert a.z != c.z or a.env_idx != c.env_idx


def test_hold_probability_matches_exact(g2):
    # z stays at 1 only while every generation draws a single child
    config = SimConfig(env=g2, n=3, z0=1, seed=2024, replicas=100_000)
    estimate = naive_sample(config, workers=4).hit(1, "lower").mean()
    exact = 0.25**3
    se = math.sqrt(exact * (1.0 - exact) / config.replicas)
    assert abs(estimate - exact) <= 3.0 * se


def test_walk_mean_matches_env_average(g2):
    config = SimConfig(env=g2, n=12, z0=1, seed=31, replicas=10_000)
    ss = final_states(config, workers=4).s
    step_var = 0.25 * (g2.log_means[1] - g2.log_means[0]) ** 2
    se = math.sqrt(step_var / (config.n * config.replicas))
    assert abs(np.mean(ss) / config.n - g2.mean_log_mean) <= 3.0 * se


def test_normalized_population_martingale(g2):
    config = SimConfig(env=g2, n=8, z0=2, seed=44, replicas=20_000)
    zs, ss, _, _ = final_states(config, workers=4)
    w = np.array([z * math.exp(-s) for z, s in zip(zs, ss)])
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(w.mean() - 2.0) <= 3.0 * se


def test_one_step_conditional_mean(g2):
    for comp in g2.components:
        env1 = build_environment([(1.0, comp.pmf_dict())])
        config = SimConfig(env=env1, n=1, z0=50, seed=7, replicas=5_000)
        zs = final_states(config).z
        se = math.sqrt(comp.variance * 50 / config.replicas)
        assert abs(np.mean(zs) - 50 * comp.mean) <= 3.0 * se


def test_final_states_match_individual_runs(g2):
    config = SimConfig(env=g2, n=6, z0=1, seed=3, replicas=500)
    zs, ss, taus, _ = final_states(config, threshold=5)
    assert len(zs) == len(ss) == len(taus) == 500
    for r in (0, 17, 499):
        traj = run(config, replica=r)
        assert traj.z[-1] == zs[r]
        assert ss[r] == pytest.approx(traj.s[-1], abs=1e-12)
        assert ss[r] == sum(g2.log_means[i] for i in traj.env_idx)
        tk = take_off_step(traj, 5)
        assert taus[r] == (config.n if tk is None else tk)


def test_run_batch_agrees_with_final_states(g2, fig_law, pool_per_block):
    # both reduce one sampled run; fig2 at n = 40 ends in the log-z lane,
    # and 2 BLOCK + 50 replicas end in a partial block
    for env, n in ((g2, 6), (fig_law, 40)):
        config = SimConfig(env=env, n=n, z0=1, seed=11, replicas=2 * BLOCK + 50)
        zs = final_states(config).z
        distinct = sorted(set(zs))
        for q in (0.1, 0.5, 0.9):
            a, b = distinct[int(q * len(distinct)):][:2]
            t = math.sqrt(a * b)   # strictly between neighbouring populations
            below = sum(z <= t for z in zs)
            assert 0 < below < config.replicas
            for workers in (1, 3):
                s = naive_sample(config, workers=workers)
                assert s.hit(t, "lower").sum() == below
                assert s.hit(t, "upper").sum() == config.replicas - below
    with pytest.raises(InvalidArgumentError):
        naive_sample(config).hit(1.0, "middle")


def test_final_states_worker_invariance(g2, fig_law, pool_per_block):
    # BLOCK + 144 and 2 BLOCK + BLOCK // 2 replicas end in partial blocks;
    # fig2 at n = 40 uses the log-z lane
    for env, n, reps in ((g2, 6, BLOCK + 144), (g2, 8, 2 * BLOCK + BLOCK // 2),
                         (fig_law, 40, 2 * BLOCK + BLOCK // 2)):
        config = SimConfig(env=env, n=n, z0=1, seed=11, replicas=reps)
        a = final_states(config, threshold=8, workers=1)
        assert len(a.z) == reps
        for w in (2, 3, 8):
            b = final_states(config, threshold=8, workers=w)
            assert list(a[0]) == list(b[0])
            assert np.array_equal(a[1], b[1])
            assert np.array_equal(a[2], b[2])
            assert a.normal_steps == b.normal_steps


def test_run_batch_sure_and_rare(dirac2, g2):
    config = SimConfig(env=dirac2, n=5, z0=3, seed=0, replicas=64)
    s = naive_sample(config)
    assert s.hit(3 * 2**5, "upper").all()
    assert not s.hit(2, "lower").any()

    n, c = 5, 0.4
    k = event_threshold(n, c)
    exact = exact_lower(g2, n, c)
    config = SimConfig(env=g2, n=n, z0=1, seed=99, replicas=20_000)
    estimate = naive_sample(config, workers=4).hit(k, "lower").mean()
    se = math.sqrt(exact * (1.0 - exact) / config.replicas)
    assert abs(estimate - exact) <= 3.0 * se

    # exact lanes compare as ints: 2^60 + 1 > 2^60, though both are the
    # same float; log-z lanes (z0 = 2^62 here) compare in log space
    same = build_environment([(1.0, {1: 1.0})])
    s = naive_sample(SimConfig(env=same, n=1, z0=2**60 + 1, seed=0, replicas=4))
    assert not s.hit(float(2**60), "lower").any()
    assert s.hit(float(2**60), "upper").all()
    s = naive_sample(SimConfig(env=dirac2, n=2, z0=2**62, seed=0, replicas=4))
    assert s.hit(2.0**64 * (1 - 1e-12), "upper").all() and s.normal_steps.sum() == 8
    assert not s.hit(2.0**64 * (1 - 1e-12), "lower").any()
    # an int bound past the float range is still finite
    assert s.hit(10**400, "lower").all()


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("side", ["lower", "upper"])
def test_run_batch_rejects_non_finite_bound(g2, bound, side):
    s = naive_sample(SimConfig(env=g2, n=3, z0=1, seed=0, replicas=8))
    with pytest.raises(InvalidArgumentError, match="finite"):
        s.hit(bound, side)


def test_sim_config_validation(g2):
    with pytest.raises(ValueError):
        SimConfig(env=g2, n=0, z0=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(env=g2, n=3, z0=0, seed=0)
    with pytest.raises(ValueError):
        SimConfig(env=g2, n=3, z0=1, seed=0, replicas=0)
    with pytest.raises(ValueError, match="workers=0"):
        final_states(SimConfig(env=g2, n=3, z0=1, seed=0, replicas=5), workers=0)


def test_final_states_without_threshold_has_no_tau(g2):
    config = SimConfig(env=g2, n=5, z0=1, seed=4, replicas=300)
    res = final_states(config)
    assert res.tau is None
    with_tau = final_states(config, threshold=10**9)
    assert np.all(with_tau.tau == config.n)
    assert res.z == with_tau.z and np.array_equal(res.s, with_tau.s)


def recording_pool(monkeypatch):
    """Pool sizes started and the run of blocks of each task submitted."""
    started, runs = [], []

    class Pool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

        def submit(self, fn, *args):
            runs.append(args[-2:])
            return super().submit(fn, *args)

    # map_replicas imports the pool class only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return started, runs


def assert_whole_runs(spans, replicas):
    """Contiguous runs of whole blocks, in order, covering range(replicas)."""
    assert spans[0].start == 0 and spans[-1].stop == replicas
    for run, after in zip(spans, spans[1:]):
        assert run.stop == after.start
    for run in spans:
        assert run.start % BLOCK == 0 and (run.stop % BLOCK == 0 or run.stop == replicas)
        assert 0 < run.stop - run.start <= RUN_BLOCKS * BLOCK


def test_map_replicas_hands_out_whole_blocks(monkeypatch, pool_per_block):
    started, runs = recording_pool(monkeypatch)
    reps = 2 * BLOCK + BLOCK // 2
    # in process: one call for the one run of all three blocks
    assert map_replicas(slice, (), reps, 1, 8) == [slice(0, reps)]
    spans = [slice(0, BLOCK), slice(BLOCK, 2 * BLOCK), slice(2 * BLOCK, reps)]
    assert map_replicas(slice, (), reps, 8, 8) == spans
    assert map_replicas(slice, (), BLOCK, 8, 8) == spans[:1]
    # three blocks: at most three processes, one pool for the whole map,
    # each task a contiguous run of whole blocks
    assert started == [3]
    assert runs == [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, reps)]


def test_pool_takes_a_process_per_pool_steps(monkeypatch):
    started, runs = recording_pool(monkeypatch)
    monkeypatch.setattr(simulate, "POOL_STEPS", 2)
    # seven blocks of one generation: three processes of at most two blocks
    # each would leave one over, so each run takes three, the last the
    # remainder; seven blocks of two generations take a process each
    reps = 6 * BLOCK + 7
    assert processes(reps, 8, 1) == 3 and processes(reps, 2, 1) == 2
    assert processes(reps, 8, 2) == 7 and processes(reps, 9, 5) == 7
    spans = map_replicas(slice, (), reps, 8, 1)
    assert spans == [slice(0, 3 * BLOCK), slice(3 * BLOCK, 6 * BLOCK), slice(6 * BLOCK, reps)]
    assert started == [3]
    assert runs == [(0, 3 * BLOCK), (3 * BLOCK, 6 * BLOCK), (6 * BLOCK, reps)]
    # no run holds more than RUN_BLOCKS blocks
    monkeypatch.setattr(simulate, "RUN_BLOCKS", 2)
    runs.clear()
    spans = map_replicas(slice, (), reps, 3, 1)
    assert_whole_runs(spans, reps)
    assert started == [3, 3]
    assert runs == [(0, 2 * BLOCK), (2 * BLOCK, 4 * BLOCK), (4 * BLOCK, 6 * BLOCK),
                    (6 * BLOCK, reps)]


def test_small_maps_start_no_pool(monkeypatch):
    started, _ = recording_pool(monkeypatch)
    # g2 at n = 8 and fig2 at n = 40: the pool rule counts blocks x n
    for n in (8, 40):
        below = -(-2 * POOL_STEPS // n) - 1
        assert processes(below * BLOCK, 8, n) == 1
        assert processes((below + 1) * BLOCK, 8, n) == 2
        spans = map_replicas(slice, (), below * BLOCK, 8, n)
        assert_whole_runs(spans, below * BLOCK)
        assert len(spans) == -(-below // RUN_BLOCKS)
    assert processes(10**9, 3, 8) == 3 and processes(10**9, 1, 8) == 1
    assert started == []


def test_pool_rule_sits_between_the_measured_break_evens():
    # on 2 cores a 2-process pool pays for fig2 paths at n = 40 from 3-4
    # blocks, for g2 paths at n = 8 from 24-28, for g2 trees at n = 6 from
    # 7 (it breaks even at 6 and loses at 4) and at n = 8 and 10 from 2
    assert processes(10_000, 2, 40) == 2
    assert processes(1_000, 2, 8) == 1 and processes(20 * BLOCK, 2, 8) == 1
    assert processes(32 * BLOCK, 2, 8) == 2
    assert processes(6 * BLOCK, 2, tree_steps(6)) == 1
    assert processes(8 * BLOCK, 2, tree_steps(6)) == 2
    for n in (8, 10):
        assert processes(600, 2, tree_steps(n)) == 1
        assert processes(2 * BLOCK, 2, tree_steps(n)) == 2


def test_replica_budget(monkeypatch):
    # refused before any run is planned; the bound itself still runs
    monkeypatch.setattr(simulate, "REPLICAS_MAX", 2 * BLOCK)
    assert map_replicas(lambda lo, hi: (lo, hi), (), 2 * BLOCK, 1, 1) == [(0, 2 * BLOCK)]
    with pytest.raises(BudgetExceededError, match=f"{2 * BLOCK} replicas"):
        map_replicas(lambda lo, hi: pytest.fail("ran"), (), 2 * BLOCK + 1, 1, 1)


def test_run_matches_lanes_of_every_block(fig_law):
    # fig2 at n = 40 passes 2^62, so the log-z lane is checked too
    config = SimConfig(env=fig_law, n=40, z0=1, seed=6, replicas=2 * BLOCK + BLOCK // 2)
    res = final_states(config, threshold=10)
    assert res.normal_steps > 0
    for r in (3, BLOCK + 44, config.replicas - 1):
        traj = run(config, replica=r)
        assert traj.z[-1] == res.z[r]
        assert traj.s[-1] == res.s[r]
        tk = take_off_step(traj, 10)
        assert res.tau[r] == (config.n if tk is None else tk)
        assert all(b >= a for a, b in zip(traj.z, traj.z[1:]))


def reference_block(env, n, z0, proposal, seed, block, threshold):
    """One whole block run alone, drawing in the documented order: per
    generation k, from counter (0, k, 0, 0), BLOCK uniforms for the
    components, then per component i one multinomial over its exact lanes
    from (0, k, 1 + 2i, 0) and one normal per log-z lane from (0, k, 2 + 2i, 0).

    Returns its lanes, llr, tau, log paths and per-lane log-z generations.
    """
    stream = Stream(seed, proposal.stream + block)
    limit = EXACT_LIMIT // max(d.max_offspring for d in env.components)
    lanes = Populations.start(z0, limit, BLOCK)
    llr, tau, steps, paths = np.zeros(BLOCK), np.full(BLOCK, n), np.zeros(BLOCK, int), []
    for k in range(n + 1):
        if k > 0:
            idx = draw_env_index(proposal, stream.at(k, 0), BLOCK)
            llr += proposal.step_log_lr[idx]
            lanes.promote(limit)
            steps += lanes.big
            for i, dist in enumerate(env.components):
                exact, normal = (idx == i) & ~lanes.big, (idx == i) & lanes.big
                if exact.any():
                    lanes.z[exact] = (stream.at(k, 1 + 2 * i).multinomial(
                        lanes.z[exact], dist.probs_arr) @ dist.support_arr)
                if normal.any():
                    g = stream.at(k, 2 + 2 * i).standard_normal(int(normal.sum()))
                    lanes.logz[normal] += simulate._log_step(dist, lanes.logz[normal], g)
        if threshold is not None:
            tau[(tau == n) & ~lanes.hit(threshold, "lower")] = k
        paths.append(lanes.log())
    return lanes, llr, tau, np.stack(paths, axis=1), steps


SAMPLE_CASES = {   # law, n, c, proposal, take-off threshold, capture
    "tilt-only": ("g2", 20, 0.38, "tilt_only", None, False),
    "two-phase": ("g2", 20, 0.38, "two_phase", None, False),
    "threshold": ("g2", 8, 0.4, "two_phase", 10, False),
    "capture": ("g2", 10, 0.4, "tilt_only", None, True),
    "fig2-log-lane": ("fig2", 40, 1.1, "naive", 10, True),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_equals_blocks_run_alone(g2, fig_law, case):
    # a lockstep pass over three blocks and a partial fourth gives each
    # block's own draws: the whole one-block runs of the documented order,
    # cut at the replica count, though the fourth block draws 77 rows; a two_phase plan samples the n - m generations
    # after its hold
    law, n, c, method, threshold, capture = SAMPLE_CASES[case]
    env = g2 if law == "g2" else fig_law
    if method == "naive":
        proposal = simulate.Proposal.naive(env)
    else:
        ldr = rare_event._check_env(env, n, c, "lower", 1)
        proposal, m, _ = rare_event._plan(env, n, c, 1, "lower", method,
                                          0.3 if method == "two_phase" else None, ldr)
        assert (m > 0) == (method == "two_phase")
        assert proposal.stream == (STREAM_TWO_PHASE if m > 0 else STREAM_TILT)
        n -= m
    reps = 3 * BLOCK + 77
    s = simulate.sample(env, n, 1, proposal, 5, reps, threshold=threshold, capture=capture)
    blocks = [reference_block(env, n, 1, proposal, 5, b, threshold) for b in range(4)]
    lanes, llr, tau, paths, steps = (
        [part[j] for part in blocks] for j in range(5))
    for name, got in (("z", s.z), ("logz", s.logz), ("big", s.big)):
        ref = np.concatenate([getattr(part, name) for part in lanes])[:reps]
        assert np.array_equal(got, ref), name
    assert np.array_equal(s.llr, np.concatenate(llr)[:reps])
    assert np.array_equal(s.tau, np.concatenate(tau)[:reps])
    assert np.array_equal(s.normal_steps, np.concatenate(steps)[:reps])
    assert (s.normal_steps.sum() > 0) == (law == "fig2")
    if capture:
        np.testing.assert_array_equal(s.paths, np.concatenate(paths)[:reps])
    else:
        assert s.paths is None


def test_captured_extinct_lane_logs_minus_inf_quietly():
    # the log of a dead lane once raised numpy's divide-by-zero RuntimeWarning
    env = build_environment([(1.0, {0: 0.2, 1: 0.3, 5: 0.5})])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = simulate.sample(env, 30, 2, simulate.Proposal.naive(env), 4, 700,
                            threshold=10, capture=True)
    dead = s.z == 0
    assert dead.any() and not dead.all()
    assert np.all(s.paths[dead, -1] == -math.inf)
    assert np.all(np.isfinite(s.paths[~dead]))


def test_replica_paths_do_not_depend_on_replica_count(g2):
    small = final_states(SimConfig(env=g2, n=6, seed=8, replicas=100))
    large = final_states(SimConfig(env=g2, n=6, seed=8, replicas=BLOCK + 50))
    assert large.z[:100] == small.z
    assert np.array_equal(large.s[:100], small.s)


class RecordingGenerator:
    """A stream's generator that records (call, rows) of each draw call."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size):
        self._calls.append(("random", size))
        return self._rng.random(size)

    def multinomial(self, n, pvals):
        self._calls.append(("multinomial", len(n)))
        return self._rng.multinomial(n, pvals)

    def standard_normal(self, size):
        self._calls.append(("standard_normal", size))
        return self._rng.standard_normal(size)


@pytest.mark.parametrize("law, n", [("g2", 8), ("fig2", 40)])
def test_small_run_draws_only_its_lanes(monkeypatch, g2, fig_law, law, n):
    # 100 < BLOCK replicas: each generation draws 100 uniforms, and its
    # multinomials and normals share out the same 100 rows; no call pads the
    # run to a whole block.  fig2 at n = 40 passes to the log-z lane
    env = g2 if law == "g2" else fig_law
    calls, make = [], rng.replica_stream
    monkeypatch.setattr(rng, "replica_stream",
                        lambda seed, stream: RecordingGenerator(make(seed, stream), calls))
    s = simulate.sample(env, n, 1, simulate.Proposal.naive(env), 3, 100)
    starts = [j for j, (name, _) in enumerate(calls) if name == "random"]
    assert len(starts) == n
    for lo, hi in zip(starts, starts[1:] + [len(calls)]):
        assert calls[lo] == ("random", 100)
        assert sum(rows for _, rows in calls[lo + 1:hi]) == 100
    assert (s.normal_steps.sum() > 0) == (law == "fig2")


@pytest.mark.parametrize("law, n", [("g2", 8), ("fig2", 40)])
def test_fewer_replicas_are_a_prefix_of_more(g2, fig_law, pool_per_block, law, n):
    # 100 and 1,000 replicas cut the first block, 2,500 end in a partial
    # third; on 1 or 2 workers every lane is the same lane of the longest run
    env = g2 if law == "g2" else fig_law
    runs = {(reps, workers): simulate.sample(env, n, 1, simulate.Proposal.naive(env), 3, reps,
                                             workers=workers, threshold=10, capture=True)
            for reps in (100, 1_000, 2_500) for workers in (1, 2)}
    longest = runs[2_500, 1]
    assert (longest.normal_steps.sum() > 0) == (law == "fig2")
    for (reps, workers), s in runs.items():
        for name in simulate._PER_REPLICA + ("paths",):
            assert np.array_equal(getattr(s, name), getattr(longest, name)[:reps]), \
                (reps, workers, name)


def test_each_law_draws_from_its_own_counter(g2):
    # law 1's draws in a generation are the same whether law 0 drew a
    # multinomial, normals only (no exact lanes) or nothing at all; law 1
    # itself has exact and log-z lanes
    limit = EXACT_LIMIT // g2.max_offspring
    law1_z = np.concatenate([np.arange(1, 91), np.full(10, limit + 1)])
    cases = {"exact": np.arange(1, 101), "log-z": np.full(100, limit + 5), "none": None}
    out = {}
    for name, law0_z in cases.items():
        if law0_z is None:
            z, idx = law1_z, np.ones(100, dtype=np.int64)
        else:
            z, idx = np.column_stack([law0_z, law1_z]).ravel(), np.arange(200) % 2
        pop = Populations(z.astype(np.int64), np.zeros(z.size), np.zeros(z.size, dtype=bool))
        branch(pop, idx, g2.components, [Stream(3, 0)], limit, 5)
        on = idx == 1
        out[name] = pop.z[on], pop.logz[on], pop.big[on]
        assert pop.big[on].sum() == 10 and pop.big[~on].any() == (name == "log-z")
    for name in ("log-z", "none"):
        for got, ref in zip(out[name], out["exact"]):
            assert np.array_equal(got, ref), name


def test_log_lane_one_generation_moments():
    # max offspring 4 keeps the exact lane below 2^60, so 2^61 starts in the
    # log-z lane; the normal step must carry the component's mean and variance
    comp = build_offspring({2: 0.5, 4: 0.5})
    env = build_environment([(1.0, comp.pmf_dict())])
    z0 = 1 << 61
    reps = 20_000
    res = final_states(SimConfig(env=env, n=1, z0=z0, seed=5, replicas=reps))
    assert res.normal_steps == reps
    assert all(2 * z0 <= z <= 4 * z0 for z in res.z)
    x = np.array([(z - comp.mean * z0) / math.sqrt(comp.variance * z0)
                  for z in res.z])
    assert abs(x.mean()) <= 3.0 / math.sqrt(reps)
    assert abs(x.var(ddof=1) - 1.0) <= 3.0 * math.sqrt(2.0 / reps)
    exact = final_states(SimConfig(env=env, n=1, z0=z0 // 2, seed=5, replicas=50))
    assert exact.normal_steps == 0
