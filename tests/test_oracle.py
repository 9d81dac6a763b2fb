import itertools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bpre import (
    BudgetExceededError,
    CapTooSmallError,
    InvalidArgumentError,
    NotStronglySupercriticalError,
    SimConfig,
    TooManyComponentsError,
    build_environment,
    conditional_trajectory,
    environment_from_dict,
    population_distribution,
    walk_tail,
)
from bpre import oracle, ratefn
from bpre.oracle import BLOCK_ROWS, COMPOSITION_BUDGET, ENTRY_BUDGET
from bpre.simulate import Populations
from conftest import dense_kernel, event_threshold, g2_law, naive_sample

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("n", [1, 5, 8, 40])
def test_event_threshold_is_the_estimators_bound(n):
    # one e^{cn} rule: T is the largest population on the lower event of the
    # estimators' hit test, and at c = log(K) / n it is K itself wherever the
    # bound's relative slack is below one individual
    for k in (1, 2, 24, 1995, 1996, 10**6 + 3, 2**40 + 1):
        c = math.log(k) / n
        t = ratefn.event_threshold(n, c)
        assert t == k or (k > 10**9 and 0 <= t - k <= 1e-9 * k + 1)
        lanes = Populations.start(t, g2_law().components, 2)
        lanes.z[1] += 1
        assert lanes.hit(ratefn.event_bound(n, c), "lower").tolist() == [True, False]
    assert ratefn.event_threshold(8, 0.4) == 24


def test_point_mass_dynamics(dirac2):
    dist = population_distribution(dirac2, 4, z0=1, cap=32)
    assert dist.prob_eq(16) == pytest.approx(1.0, abs=1e-12)
    assert dist.prob_le(15) == 0.0
    assert dist.prob_le(16) == pytest.approx(1.0, abs=1e-12)
    assert dist.prob_ge(17) == 0.0
    assert dist.overflow == 0.0


def test_one_generation_mixture(g2):
    dist = population_distribution(g2, 1, z0=1, cap=8)
    assert dist.prob_eq(1) == pytest.approx(0.25, abs=1e-15)
    assert dist.prob_eq(2) == pytest.approx(0.5, abs=1e-15)
    assert dist.prob_eq(4) == pytest.approx(0.25, abs=1e-15)
    assert dist.prob_eq(3) == 0.0
    assert dist.prob_eq(-1) == dist.prob_eq(9) == 0.0   # outside the table 0..cap
    assert dist.prob_le(-1) == dist.prob_le(-2) == 0.0


def test_stay_at_one_probability(g2):
    for n in range(1, 11):
        dist = population_distribution(g2, n, z0=1, cap=40)
        assert dist.prob_eq(1) == pytest.approx(0.25**n, abs=1e-12)


def test_mass_conservation_and_growth_floor(g2):
    dist = population_distribution(g2, 6, z0=2, cap=100)
    assert float(np.sum(dist.probs)) + dist.overflow == pytest.approx(1.0, abs=1e-10)
    # populations never shrink under this law
    assert np.all(np.asarray(dist.probs[:2]) == 0.0)


def test_two_generations_brute_force(g2):
    # direct convolution over both environment draws
    cap = 20
    pmfs = []
    for comp in g2.components:
        arr = np.zeros(5)
        for k, p in comp.pmf_dict().items():
            arr[k] = p
        pmfs.append(arr)
    expect = np.zeros(cap + 1)
    for i1, i2 in itertools.product(range(2), repeat=2):
        w = 0.25
        gen1 = pmfs[i1]
        for z, pz in enumerate(gen1):
            if pz == 0.0:
                continue
            conv = np.array([1.0])
            for _ in range(z):
                conv = np.convolve(conv, pmfs[i2])
            for v, pv in enumerate(conv[: cap + 1]):
                expect[v] += w * pz * pv
    dist = population_distribution(g2, 2, z0=1, cap=cap)
    got = np.array([dist.prob_eq(v) for v in range(cap + 1)])
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_truncation_is_exact_below_cap(g2):
    small = population_distribution(g2, 8, z0=1, cap=24)
    big = population_distribution(g2, 8, z0=1, cap=500)
    assert small.overflow > 0.5
    # the law never shrinks, so mass below the cap is unaffected by truncation
    assert small.le_error_bound(24) == 0.0
    assert small.prob_le(24) == pytest.approx(big.prob_le(24), abs=1e-12)
    assert small.prob_le(24, tol=1e-12) == pytest.approx(0.012010430361483361, abs=1e-12)


def test_truncation_error_with_shrinking_law():
    env = build_environment([(1.0, {0: 0.5, 3: 0.5})])
    dist = population_distribution(env, 6, z0=1, cap=10)
    assert dist.overflow > 0.0
    assert dist.le_error_bound(5) == dist.overflow
    with pytest.raises(CapTooSmallError):
        dist.prob_le(5, tol=0.0)
    # a NaN tol would compare False against every bound and switch the check
    # off; NaN and negative tolerances are bad input
    for bad in (math.nan, -1.0):
        with pytest.raises(InvalidArgumentError):
            dist.prob_le(5, tol=bad)
        with pytest.raises(InvalidArgumentError):
            dist.prob_ge(6, tol=bad)
    # without a tolerance the truncated value is still a usable lower bound
    assert 0.5 <= dist.prob_le(0) <= 1.0


def test_cap_below_start_rejected(g2):
    with pytest.raises(CapTooSmallError):
        population_distribution(g2, 1, z0=5, cap=3)
    # a negative cap is bad input, whatever z0 is
    for z0 in (0, 1):
        with pytest.raises(InvalidArgumentError, match="cap=-1"):
            population_distribution(g2, 1, z0=z0, cap=-1)


def test_negative_start_rejected_and_extinct_start_allowed(g2):
    # z0 = -1 once read the pmf from v[-1], the cap state
    with pytest.raises(InvalidArgumentError, match="z0=-1"):
        population_distribution(g2, 3, z0=-1, cap=50)
    with pytest.raises(InvalidArgumentError, match="z0=-1"):
        conditional_trajectory(g2, 8, 0.4, z0=-1)
    # z0 = 0 is an extinct start: it stays at 0 with probability 1
    dist = population_distribution(g2, 3, z0=0, cap=50)
    assert dist.prob_eq(0) == 1.0 and dist.overflow == 0.0
    res = conditional_trajectory(g2, 8, 0.4, z0=0)
    assert res.probability == 1.0
    assert np.all(res.profile == 0.0)


@pytest.mark.parametrize("n", [0, -1])
def test_conditional_trajectory_refuses_a_horizon_below_one(g2, n):
    # n = 0 once returned profile [nan] after a divide warning, and n = -1
    # probability 0.0
    with pytest.raises(InvalidArgumentError, match=f"n={n} must be >= 1"):
        conditional_trajectory(g2, n, 0.4)


def test_population_budget(g2):
    # raised before the pmf is allocated
    with pytest.raises(BudgetExceededError):
        population_distribution(g2, 1, z0=1, cap=ENTRY_BUDGET)


def count_convolutions(monkeypatch):
    """Patches np.convolve to record the multiply-adds of each call."""
    done, convolve = [], np.convolve

    def counting(a, b):
        done.append(a.size * b.size)
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", counting)
    return done


@pytest.mark.parametrize("n, z0, cap", [(8, 1, 1000), (3, 900, 900), (5, 1, 40)])
def test_population_work_budget(g2, monkeypatch, n, z0, cap):
    # the bound covers the multiply-adds of every convolution the DP makes,
    # and a call past the budget raises before the first one
    work = oracle._dp_work(g2, n, z0, cap, min(BLOCK_ROWS, cap + 1))
    done = count_convolutions(monkeypatch)
    monkeypatch.setattr(oracle, "WORK_BUDGET", work)
    population_distribution(g2, n, z0=z0, cap=cap)
    assert 0 < sum(done) <= work
    done.clear()
    monkeypatch.setattr(oracle, "WORK_BUDGET", work - 1)
    with pytest.raises(BudgetExceededError, match="multiply-adds"):
        population_distribution(g2, n, z0=z0, cap=cap)
    assert done == []


def test_population_work_budget_refuses_a_large_start(g2):
    # bpre cells with --z0 2000000 sizes the DP's cap to 2 * 10^6, inside
    # the entry budget with one baby row; the shipped work budget refuses it
    # (checked on the bound: a missed refusal would run for hours)
    assert min(BLOCK_ROWS, ENTRY_BUDGET // 2_000_001) == 1
    assert oracle._dp_work(g2, 3, 2_000_000, 2_000_000, 1) > oracle.WORK_BUDGET


@st.composite
def composition_cases(draw):
    """Small laws (zero offspring allowed) with caps below, at and past a block.

    Each law's support is a multiple of a drawn g in {1, 2, 3}: Dirac laws,
    laws on a sublattice with and without zero offspring, and caps below g.
    """
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        g, top = draw(st.sampled_from([1, 1, 2, 3])), draw(st.integers(1, 9))
        keys = draw(st.sets(st.integers(0, top - 1), max_size=3)) | {top}
        mass = {g * k: draw(st.integers(1, 9)) for k in sorted(keys)}
        comps.append((draw(st.integers(1, 9)), {k: m / sum(mass.values()) for k, m in mass.items()}))
    env = build_environment([(w / sum(w for w, _ in comps), pmf) for w, pmf in comps])
    b = BLOCK_ROWS
    cap = draw(st.one_of(st.integers(1, b - 2), st.sampled_from([b - 1, b]),
                         st.integers(b + 1, 5 * b)))
    return env, cap, draw(st.integers(1, min(cap, 2 * b + 8))), draw(st.integers(1, 5))


def kernel_pmf(env, n, z0, cap):
    """pmf and overflow of Z_n by n products with the dense kernel on 0..cap.

    A generation adds its lost mass to the overflow only when a state above
    cap // max_offspring holds mass: below it the loss is rounding alone.
    """
    m = dense_kernel(env, cap)
    edge = cap // max(d.max_offspring for d in env.components) + 1
    v = np.zeros(cap + 1)
    v[z0] = 1.0
    overflow = 0.0
    for _ in range(n):
        new = v @ m
        if v[edge:].any():
            overflow += max(0.0, float(v.sum() - new.sum()))
        v = new
    return v, overflow


@settings(deadline=None, max_examples=80)
@given(case=composition_cases())
@example(case=(build_environment([(0.5, {0: 0.25, 2: 0.75}), (0.5, {1: 0.5, 3: 0.5})]),
               150, 70, 4))
@example(case=(build_environment([(1.0, {1: 0.5, 2: 0.5})]), 300, 1, 5))
# cap + 1 <= B low: G's nonzero tail is empty and only block 0 composes
@example(case=(build_environment([(1.0, {1: 0.5, 2: 0.5})]), 100, 50, 3))
@example(case=(build_environment([(0.5, {2: 0.5, 5: 0.5}), (0.5, {3: 1.0})]),
               2 * BLOCK_ROWS - 1, 3, 4))
# low >= 2 with several blocks: G's tail starts at 2B and 3B
@example(case=(build_environment([(0.5, {2: 0.5, 3: 0.5}), (0.5, {3: 0.5, 4: 0.5})]),
               7 * BLOCK_ROWS, 1, 5))
# on the lattice g = 2 at cap 1: Q is composed at cap 0 from a pmf on 0..1
@example(case=(build_environment([(1.0, {0: 0.5, 2: 0.5})]), 1, 1, 1))
# g2: its second law lives on the even states
@example(case=(g2_law(), 5 * BLOCK_ROWS, 1, 5))
# a law that cannot pass the cap: the overflow is 0, not the two passes'
# different rounding of the mass they keep
@example(case=(build_environment([(1.0, {0: 1 / 3, 1: 2 / 3})]), 217, 217, 3))
def test_blocked_composition_matches_kernel(case):
    # the blocked DP against n products with the dense kernel on 0..cap:
    # zero offspring (no early truncation), narrow and full-width baby
    # tables, z0 past one block, caps below, at and across BLOCK_ROWS, laws
    # composed on their lattice
    env, cap, z0, n = case
    dist = population_distribution(env, n, z0=z0, cap=cap)
    v, overflow = kernel_pmf(env, n, z0, cap)
    # atol only admits subnormal entries, which carry no relative precision
    np.testing.assert_allclose(dist.probs, v, rtol=1e-12, atol=1e-300)
    assert dist.overflow == pytest.approx(overflow, rel=0.0, abs=1e-15)
    # the transposed composition, one law at a time on its lattice, is the
    # backward step M @ beta on the same tables
    beta = np.random.default_rng(cap).random(cap + 1)
    tables = oracle._lattice_tables(env, cap, min(BLOCK_ROWS, cap + 1))
    back = sum(w * oracle._compose_t(beta[::g], baby, giant, low, cap + 1)
               for w, g, baby, giant, low in tables)
    np.testing.assert_allclose(back, dense_kernel(env, cap) @ beta, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("env, n, cap", [
    (g2_law(), 4, 4**4),                                    # every reachable state
    (build_environment([(1.0, {0: 0.5, 3: 0.5})]), 6, 10),  # truncated: overflow > 0
], ids=["g2-full", "shrinking-cut"])
def test_upper_tail_is_the_pmf_summed_from_k(env, n, cap):
    # P(Z_n >= k) against the dense kernel's tail sum plus its overflow, to
    # 1e-12 relative at every k: g2's top tail, 2^-89 at k = 256, has no
    # precision left in 1 - P(Z_n <= k - 1)
    dist = population_distribution(env, n, cap=cap)
    v, overflow = kernel_pmf(env, n, 1, cap)
    for k in range(1, cap + 2):
        assert dist.prob_ge(k) == pytest.approx(math.fsum(v[k:]) + overflow, rel=1e-12,
                                                abs=1e-15 if overflow else 0.0), k
    assert dist.prob_ge(0) == dist.prob_ge(-3) == 1.0
    assert max(dist.prob_ge(k) for k in range(1, cap + 2)) <= 1.0
    assert dist.prob_ge(cap + 1) == dist.overflow
    if dist.overflow:   # the truncation bound of P(Z_n <= k - 1) still refuses a tol
        with pytest.raises(CapTooSmallError):
            dist.prob_ge(6, tol=0.0)
    else:
        assert 0.0 < dist.prob_ge(cap) < 1e-26


def count_calls(monkeypatch, name):
    """Patches oracle.<name> to record each call; returns the record."""
    calls, fn = [], getattr(oracle, name)

    def counting(*args):
        calls.append(1)
        return fn(*args)

    monkeypatch.setattr(oracle, name, counting)
    return calls


def _compose_full_giant(v, baby, giant, low, cap):
    """Reference Horner pass: convolves with all of G = F^B, leading zeros too."""
    rows, nz = baby.shape[0], np.flatnonzero(v)
    top = int(nz[-1]) // rows if nz.size else -1
    if low:
        top = min(top, cap // (rows * low))
    out = np.zeros(1)
    for b in range(top, -1, -1):
        keep = cap + 1 - b * rows * low
        block = v[b * rows: (b + 1) * rows]
        out = np.convolve(out, giant)[:keep]
        out[: baby.shape[1]] += block @ baby[: block.size, :keep]
    return out


@pytest.mark.parametrize("config", ["g2", "fig2", "subcrit"])
@pytest.mark.parametrize("n, cap", [(8, 1000), (20, 2000), (40, 2000)])
def test_trimmed_giant_step_matches_full(monkeypatch, config, n, cap):
    # convolving with G's nonzero tail only reorders the float sums: every
    # entry keeps its zero pattern and agrees within 1e-12 relative
    spec = json.loads((CONFIG_DIR / f"{config}.json").read_text())
    dist = population_distribution(environment_from_dict(spec), n, cap=cap)
    monkeypatch.setattr(oracle, "_compose", _compose_full_giant)
    calls = count_calls(monkeypatch, "_compose")
    # a distinct, equal env: the reference must not resume from dist's state
    ref = population_distribution(environment_from_dict(spec), n, cap=cap)
    assert len(calls) == len(spec["environments"]) * n   # the reference ran
    np.testing.assert_array_equal(dist.probs == 0.0, ref.probs == 0.0)
    np.testing.assert_allclose(dist.probs, ref.probs, rtol=1e-12, atol=0.0)
    assert dist.overflow == pytest.approx(ref.overflow, rel=1e-12, abs=1e-15)


def fresh_g2(n, z0=1, cap=200):
    """The DP from e_{z0}: a new, equal g2 object never matches the kept state."""
    return population_distribution(g2_law(), n, z0=z0, cap=cap)


def assert_same_dp(got, ref):
    assert np.array_equal(got.probs, ref.probs)
    assert got.overflow == ref.overflow


@pytest.fixture
def compose_calls(monkeypatch):
    """Counts _compose calls: one per law and generation the DP runs."""
    return count_calls(monkeypatch, "_compose")


@pytest.mark.parametrize("ns", [(3, 8, 20), (20, 8, 3), (8, 8, 8), (5, 12, 5, 12, 12)],
                         ids=["ascending", "descending", "repeated", "mixed"])
def test_resumed_dp_matches_fresh(monkeypatch, compose_calls, ns):
    # a call resumes from the last one when n has not gone down, runs only
    # the missing generations, and gives the fresh call's bytes; the tables
    # are built once for the key, by its first call, and kept with the slot
    refs = {n: fresh_g2(n) for n in ns}
    built = count_calls(monkeypatch, "_lattice_tables")
    env, done = g2_law(), 0
    for n in ns:
        compose_calls.clear()
        assert_same_dp(population_distribution(env, n, cap=200), refs[n])
        ran = n - done if n >= done else n
        assert len(compose_calls) == env.k * ran
        assert len(built) == 1
        done = n


def test_interleaved_keys_resume_only_their_own(compose_calls):
    # the kept state is one slot: a call on another env object, z0 or cap
    # replaces it, and a call only resumes from a state of its own key
    env, other = g2_law(), g2_law()
    calls = [(env, 6, 1, 200), (env, 6, 2, 200), (env, 9, 1, 200), (env, 9, 1, 150),
             (other, 12, 1, 150), (env, 12, 1, 150), (env, 15, 1, 150),
             (other, 15, 1, 150), (env, 15, 2, 200), (env, 18, 2, 200)]
    refs = {(n, z0, cap): fresh_g2(n, z0, cap) for _, n, z0, cap in calls}
    ran = []
    for law, n, z0, cap in calls:
        compose_calls.clear()
        assert_same_dp(population_distribution(law, n, z0=z0, cap=cap), refs[n, z0, cap])
        ran.append(len(compose_calls) // law.k)
    assert ran == [6, 6, 9, 9, 12, 12, 3, 15, 15, 3]


def test_caller_cannot_change_the_kept_state():
    env = g2_law()
    ref5, ref9 = fresh_g2(5, cap=100), fresh_g2(9, cap=100)
    first = population_distribution(env, 5, cap=100)
    first.probs[:] = np.nan
    again = population_distribution(env, 5, cap=100)
    assert_same_dp(again, ref5)
    assert again.probs is not first.probs
    again.probs[:] = 7.0
    assert_same_dp(population_distribution(env, 9, cap=100), ref9)


def test_work_budget_counts_every_generation_of_a_resumed_call(monkeypatch):
    # the 4 generations a resume would run fit the budget, the 8 of the
    # call do not: the refusal does not depend on what ran before
    env = g2_law()
    population_distribution(env, 4, cap=1000)
    rows = min(BLOCK_ROWS, 1001)
    monkeypatch.setattr(oracle, "WORK_BUDGET", oracle._dp_work(env, 8, 1, 1000, rows) - 1)
    assert oracle._dp_work(env, 4, 1, 1000, rows) <= oracle.WORK_BUDGET
    with pytest.raises(BudgetExceededError, match="multiply-adds"):
        population_distribution(env, 8, cap=1000)
    with pytest.raises(BudgetExceededError, match="multiply-adds"):
        fresh_g2(8, cap=1000)


def test_no_resume_across_block_rows(monkeypatch, compose_calls):
    # other BLOCK_ROWS give other tables (and roundings): no resume across
    # them.  One baby row on a lattice law with zero offspring: Q composes
    # at cap // 2 = 4 from parents up to 9, every one of which can die out
    spec = [(0.5, {0: 0.5, 2: 0.5}), (0.5, {1: 0.5, 3: 0.5})]
    monkeypatch.setattr(oracle, "BLOCK_ROWS", 1)
    ref = population_distribution(build_environment(spec), 4, z0=9, cap=9)
    monkeypatch.setattr(oracle, "BLOCK_ROWS", BLOCK_ROWS)
    env = build_environment(spec)
    population_distribution(env, 2, z0=9, cap=9)
    monkeypatch.setattr(oracle, "BLOCK_ROWS", 1)
    compose_calls.clear()
    got = population_distribution(env, 4, z0=9, cap=9)
    assert len(compose_calls) == 2 * 4
    assert_same_dp(got, ref)
    v, overflow = kernel_pmf(env, 4, 9, 9)
    np.testing.assert_allclose(got.probs, v, rtol=1e-12, atol=1e-300)
    assert got.overflow == pytest.approx(overflow, rel=0.0, abs=1e-15)


@pytest.mark.parametrize("n, c, exact", [(20, 0.38, 1.336339507123755e-05),
                                         (40, 0.19, 1.2440291345366695e-17)],
                         ids=["n20", "n40"])
def test_population_golden(g2, n, c, exact):
    dist = population_distribution(g2, n, z0=1, cap=2000)
    assert dist.le_error_bound(1998) == 0.0
    assert dist.prob_le(event_threshold(n, c)) == pytest.approx(exact, rel=1e-12)


def test_block_tables_stay_in_budget(monkeypatch):
    # a cap at the budget with offspring counts up to 1000: a 128-row baby
    # table would hold 128 x 20000 entries (20 MB), so it shrinks to one row
    monkeypatch.setattr(oracle, "ENTRY_BUDGET", 20_000)
    law = build_environment([(1.0, {1: 0.5, 1000: 0.5})])
    tracemalloc.start()
    try:
        dist = population_distribution(law, 2, z0=1, cap=19_999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 20_000 * 8
    # from 1000 parents the law starts at 1000 with mass 0.5^1001
    assert dist.prob_eq(1) == 0.25
    assert dist.prob_eq(1000) == pytest.approx(0.25 + 0.5 ** 1001, rel=1e-12)
    assert float(dist.probs.sum()) + dist.overflow == pytest.approx(1.0, abs=1e-12)


class Recording(np.ndarray):
    """A table that records the entries of every product it takes part in."""

    products: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)
        if ufunc is np.matmul:
            Recording.products.append(out.size)
        return out


def test_heads_product_splits_within_budget(monkeypatch):
    # at cap 400 and a 4000-entry budget the baby tables keep 9 rows of 401
    # entries, so the 45 blocks' heads take 5 products of 9 blocks each
    env = build_environment([(0.5, {0: 0.2, 1: 0.3, 50: 0.5}), (0.5, {1: 0.5, 2: 0.5})])
    ref, overflow = kernel_pmf(env, 4, 1, 400)
    monkeypatch.setattr(oracle, "ENTRY_BUDGET", 4000)
    tables, build = [], oracle._lattice_tables

    def recording(*args):
        out = build(*args)
        tables.extend(a.size for _, _, baby, giant, _ in out for a in (baby, giant))
        return [(w, g, baby.view(Recording), giant, low) for w, g, baby, giant, low in out]

    monkeypatch.setattr(oracle, "_lattice_tables", recording)
    calls = count_calls(monkeypatch, "_compose")
    Recording.products = []
    dist = population_distribution(env, 4, cap=400)
    assert max(tables) <= 4000 and max(Recording.products) <= 4000
    assert len(Recording.products) > len(calls) and Recording.products.count(9 * 401) >= 4
    np.testing.assert_allclose(dist.probs, ref, rtol=1e-12, atol=1e-300)
    assert dist.overflow == pytest.approx(overflow, rel=0.0, abs=1e-15)


def test_query_above_cap(g2):
    dist = population_distribution(g2, 4, z0=1, cap=16)
    with pytest.raises(CapTooSmallError):
        dist.prob_le(30, tol=1e-6)


def test_walk_tail_corner(g2):
    assert walk_tail(g2, 10, math.log(1.5), "lower") == pytest.approx(2.0**-10, abs=1e-15)
    assert walk_tail(g2, 10, math.log(3.0), "upper") == pytest.approx(2.0**-10, abs=1e-15)


def test_walk_tail_full_mass(g2):
    assert walk_tail(g2, 7, g2.log_mean_max + 0.1, "lower") == 1.0
    assert walk_tail(g2, 7, g2.log_mean_min - 0.1, "upper") == 1.0
    assert walk_tail(g2, 7, g2.log_mean_min - 0.1, "lower") == 0.0


def test_walk_tail_matches_binomial(g2):
    g1, g2_ = g2.log_means
    n, c = 20, 0.6
    exact = sum(
        math.comb(n, j) * 0.5**n
        for j in range(n + 1)
        if n * g1 + j * (g2_ - g1) <= n * c + 1e-9
    )
    assert walk_tail(g2, n, c, "lower") == pytest.approx(exact, abs=1e-14)
    assert walk_tail(g2, n, c, "lower") + walk_tail(g2, n, c, "upper") == pytest.approx(
        1.0, abs=1e-12
    )


def test_walk_tail_three_components():
    env = build_environment([(0.3, {2: 1.0}), (0.4, {3: 1.0}), (0.3, {5: 1.0})])
    n, c = 6, 1.1
    weights = env.weights
    brute = 0.0
    for seq in itertools.product(range(3), repeat=n):
        s = sum(env.log_means[i] for i in seq)
        if s <= n * c + 1e-9:
            brute += math.prod(weights[i] for i in seq)
    assert walk_tail(env, n, c, "lower") == pytest.approx(brute, abs=1e-12)


def test_walk_tail_four_atoms_past_n_40():
    # 13,244 compositions, well inside the budget (a second rule once refused
    # every law of more than 3 atoms past n = 40); against a dict DP over the
    # path's product of means, which by unique factorization keys its atom counts
    atoms = ((2, 0.1), (3, 0.2), (5, 0.3), (7, 0.4))
    env = build_environment([(q, {m: 1.0}) for m, q in atoms])
    n, c = 41, 1.5
    dist = {1: 1.0}
    for _ in range(n):
        step = {}
        for prod, p in dist.items():
            for m, q in atoms:
                step[prod * m] = step.get(prod * m, 0.0) + p * q
        dist = step
    assert len(dist) == math.comb(n + 3, 3) == 13_244
    below = math.fsum(p for prod, p in dist.items() if math.log(prod) <= n * c)
    assert 0.01 < below < 0.99
    assert walk_tail(env, n, c, "lower") == pytest.approx(below, rel=1e-12)
    assert walk_tail(env, n, c, "upper") == pytest.approx(1.0 - below, rel=1e-12)


def test_walk_tail_budget_guard():
    # 5 atoms at n = 60 make C(64, 4) = 635,376 compositions, past the budget
    env = build_environment([(0.2, {k: 1.0}) for k in (2, 3, 5, 7, 11)])
    assert math.comb(64, 4) > COMPOSITION_BUDGET
    with pytest.raises(TooManyComponentsError, match="635376"):
        walk_tail(env, 60, 1.0, "lower")
    with pytest.raises(ValueError):
        walk_tail(env, 5, 1.0, "middle")


def test_conditional_trajectory_sure_event(dirac2):
    res = conditional_trajectory(dirac2, 6, math.log(2.0))
    assert res.probability == pytest.approx(1.0, abs=1e-12)
    assert res.threshold == 64
    for k in range(7):
        assert res.profile[k] == pytest.approx(k * math.log(2.0) / 6.0, abs=1e-12)


def test_conditional_trajectory_impossible(dirac2):
    res = conditional_trajectory(dirac2, 5, 0.5)
    assert res.probability == 0.0
    assert res.profile is None


def test_conditional_trajectory_matches_marginal(g2):
    res = conditional_trajectory(g2, 8, 0.4)
    dist = population_distribution(g2, 8, z0=1, cap=24)
    assert res.threshold == event_threshold(8, 0.4) == 24
    assert res.probability == pytest.approx(dist.prob_le(24), abs=1e-12)
    assert res.profile[0] == 0.0
    assert res.profile[-1] <= 0.4 + 1e-12
    assert all(b >= a - 1e-12 for a, b in zip(res.profile, res.profile[1:]))


def test_conditional_trajectory_guards(g2, subcrit, monkeypatch):
    # T = 13359 runs on the lattice tables; P is the population DP's
    # P(Z_25 <= T) at cap T
    res = conditional_trajectory(g2, 25, 0.38)
    assert res.threshold == 13359
    assert res.probability == pytest.approx(8.574736420216668e-07, rel=1e-12)
    # T = 3992786: the forward array would hold 41 (T + 1) = 1.6e8 entries,
    # refused before any table is built or allocated
    built = count_calls(monkeypatch, "_lattice_tables")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="entries"):
            conditional_trajectory(g2, 40, 0.38)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == [] and peak < 1e5
    with pytest.raises(NotStronglySupercriticalError):
        conditional_trajectory(subcrit, 4, 0.1)


@pytest.mark.parametrize("config, n, c", [("g2", 10, 0.4), ("fig2", 5, 1.0)])
def test_conditional_trajectory_work_budget(monkeypatch, config, n, c):
    # both passes' convolutions, the table build's too, fit twice one DP's
    # bound: the backward pass steps only the states the forward one reaches
    env = environment_from_dict(json.loads((CONFIG_DIR / f"{config}.json").read_text()))
    t = event_threshold(n, c)
    work = 2 * oracle._dp_work(env, n, 1, t, min(BLOCK_ROWS, t + 1))
    done = count_convolutions(monkeypatch)
    monkeypatch.setattr(oracle, "WORK_BUDGET", work)
    conditional_trajectory(env, n, c)
    assert 0 < sum(done) <= work
    done.clear()
    monkeypatch.setattr(oracle, "WORK_BUDGET", work - 1)
    with pytest.raises(BudgetExceededError, match="multiply-adds"):
        conditional_trajectory(env, n, c)
    assert done == []


def test_conditional_trajectory_keeps_the_dp_slot(compose_calls):
    # the trajectory neither reads nor replaces the population DP's kept state
    env = g2_law()
    population_distribution(env, 6, cap=200)
    kept = oracle._last
    conditional_trajectory(env, 6, 0.4)
    assert oracle._last is kept
    compose_calls.clear()
    assert_same_dp(population_distribution(env, 9, cap=200), fresh_g2(9))
    assert len(compose_calls) == env.k * (3 + 9)   # the resumed call, then the fresh one


def test_conditional_trajectory_threshold_past_float_range(g2):
    # cn = 800: e^{cn} is no float, refused as a budget, not an OverflowError
    with pytest.raises(BudgetExceededError):
        conditional_trajectory(g2, 20, 40.0)


def test_conditional_trajectory_holds_one_dense_table(g2):
    # T = 1998: the one dense table is the forward array, 21 x 1999 floats
    # (0.34 MB), beside two 128 x 255 baby tables (0.52 MB); the peak
    # measured 1.0 MB
    tracemalloc.start()
    try:
        conditional_trajectory(g2, 20, 0.38)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_conditional_trajectory_golden(g2):
    res = conditional_trajectory(g2, 10, 0.4)
    assert res.threshold == 54
    assert res.probability == pytest.approx(0.004548628277750656, rel=1e-12)


def dense_trajectory(env, n, c, z0=1):
    """P(Z_n <= T) and the profile by n forward and n backward products with
    the dense kernel on 0..T."""
    t = event_threshold(n, c)
    m = dense_kernel(env, t)
    fwd = [np.eye(t + 1)[z0]]
    for _ in range(n):
        fwd.append(fwd[-1] @ m)
    logs = np.log(np.maximum(np.arange(t + 1), 1))
    beta, num = np.ones(t + 1), np.zeros(n + 1)
    for k in range(n, -1, -1):
        num[k] = fwd[k] @ (beta * logs)
        if k:
            beta = m @ beta
    return beta[z0], num / beta[z0] / n


@pytest.mark.parametrize("config, n, c", [("g2", 20, 0.38), ("fig2", 6, 1.1)])
def test_conditional_trajectory_matches_dense_kernel(config, n, c):
    # T = 1998 and 735: the lattice passes against the dense (T + 1)^2 kernel
    env = environment_from_dict(json.loads((CONFIG_DIR / f"{config}.json").read_text()))
    res = conditional_trajectory(env, n, c)
    prob, profile = dense_trajectory(env, n, c)
    assert res.probability == pytest.approx(prob, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(res.profile, profile, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n, c", [(13, 0.4), (20, 0.38)], ids=["n13", "n20"])
def test_conditional_trajectory_past_enumeration(g2, n, c):
    res = conditional_trajectory(g2, n, c)
    k = event_threshold(n, c)
    exact = population_distribution(g2, n, z0=1, cap=k).prob_le(k)
    assert res.threshold == k
    assert res.probability == pytest.approx(exact, rel=1e-12)
    assert res.profile[0] == 0.0
    assert np.all(np.diff(res.profile) >= -1e-12)
    assert res.profile[-1] <= c + 1e-12


def enumerated_trajectory(env, n, c, z0):
    """The per-sequence definition: sum over all k^n environment sequences.

    For each sequence a forward pass gives the law of Z_k and a backward
    pass the probability of ending at or below the threshold.  Transition
    rows come from one-generation population_distribution calls.
    """
    t = event_threshold(n, c)
    tables = []
    for comp in env.components:
        law = build_environment([(1.0, comp)])
        tables.append(np.array([population_distribution(law, 1, z0=z, cap=t).probs
                                for z in range(t + 1)]))
    logs = np.log(np.maximum(np.arange(t + 1), 1))
    num, den = np.zeros(n + 1), 0.0
    for seq in itertools.product(range(env.k), repeat=n):
        pseq = math.prod(env.weights[i] for i in seq)
        fwd = [np.eye(t + 1)[z0]]
        for i in seq:
            fwd.append(fwd[-1] @ tables[i])
        beta = np.ones(t + 1)
        for k in range(n, -1, -1):
            num[k] += pseq * (fwd[k] @ (beta * logs))
            if k:
                beta = tables[seq[k - 1]] @ beta
        den += pseq * beta[z0]
    return den, num / den / n if den > 0.0 else None


@st.composite
def no_extinction_laws(draw):
    pmf = st.dictionaries(st.integers(1, 6), st.integers(1, 9), min_size=1, max_size=4)
    comps = draw(st.lists(pmf, min_size=1, max_size=3))
    ws = draw(st.lists(st.integers(1, 9), min_size=len(comps), max_size=len(comps)))
    return build_environment([
        (w / sum(ws), {k: m / sum(p.values()) for k, m in p.items()})
        for w, p in zip(ws, comps)
    ])


@settings(deadline=None, max_examples=60)
@given(env=no_extinction_laws(), n=st.integers(1, 5), c=st.floats(0.0, 0.8),
       z0=st.integers(1, 3))
def test_conditional_trajectory_matches_enumeration(env, n, c, z0):
    res = conditional_trajectory(env, n, c, z0=z0)
    if res.threshold < z0:
        assert res.probability == 0.0 and res.profile is None
        return
    prob, profile = enumerated_trajectory(env, n, c, z0)
    assert res.probability == pytest.approx(prob, rel=1e-12, abs=0.0)
    if profile is None:
        assert res.profile is None
    else:
        np.testing.assert_allclose(res.profile, profile, rtol=0.0, atol=1e-12)


def test_small_population_cost_bounds(g2):
    # P(z[n] <= N) is pinched between holding every generation and holding
    # all but N of them
    ep1 = g2.mean_p1
    for threshold in (1, 2, 3):
        for n in range(threshold, 11):
            p = population_distribution(g2, n, z0=1, cap=50).prob_le(threshold)
            assert p >= ep1**n - 1e-15
            assert p <= (threshold + 1) * n**threshold * ep1 ** (n - threshold) + 1e-12


@pytest.mark.parametrize("n", [3, 5, 7], ids=["n3", "n5", "n7"])
def test_oracle_matches_naive_mc(g2, n):
    k = event_threshold(n, 0.45)
    exact = population_distribution(g2, n, z0=1, cap=k).prob_le(k)
    config = SimConfig(env=g2, n=n, z0=1, seed=137 + n, replicas=30_000)
    s = naive_sample(config, workers=4)
    se = math.sqrt(exact * (1.0 - exact) / config.replicas)
    assert abs(s.hit(k, "lower").mean() - exact) <= 3.0 * se

    ku = math.ceil(math.exp(n * (g2.mean_log_mean + 0.2)))
    dist_up = population_distribution(g2, n, z0=1, cap=ku)
    # never-shrinking law: the tail above the cap is exactly the overflow
    exact_up = 1.0 - dist_up.prob_le(ku - 1)
    se_up = math.sqrt(exact_up * (1.0 - exact_up) / config.replicas)
    assert abs(s.hit(ku, "upper").mean() - exact_up) <= 3.0 * se_up


def test_walk_tail_refuses_n_below_one(g2):
    with pytest.raises(InvalidArgumentError, match="n=0"):
        walk_tail(g2, 0, 0.4)
