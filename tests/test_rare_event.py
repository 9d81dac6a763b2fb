import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpre import (
    BudgetExceededError,
    CellTreeConfig,
    COutOfRangeError,
    InvalidArgumentError,
    Method,
    NoEventMassError,
    NoHoldingPossibleError,
    NotStronglySupercriticalError,
    ZeroEstimateError,
    build_environment,
    conditional_profile,
    conditional_trajectory,
    empirical_rate,
    estimate_lower_tail,
    estimate_upper_tail,
    limit_profile,
    log_mgf,
    lower_deviation_rate,
    population_distribution,
    rate_curve,
    replica_stream,
    take_off_statistics,
    tilt,
    tilt_toward,
    walk_rate,
    walk_tail,
)
from bpre import rare_event, simulate
from bpre.rng import Stream
from bpre.simulate import BLOCK, REPLICAS_MAX
from conftest import (event_threshold, exact_held, exact_lower, exact_mean_take_off,
                      naive_sample)


def tilt_weights(proposal):
    """Per-component sampling weights of a proposal's cdf."""
    return np.diff(proposal.cum_weights, prepend=0.0)


def test_tilt_identity_at_zero(g2):
    tl = tilt(g2, 0.0)
    np.testing.assert_allclose(tilt_weights(tl), g2.weights_arr, atol=1e-15)
    # each step's llr is log E(m^lam) - lam L_i, so log E(m^0) = 0 at every step
    np.testing.assert_allclose(tl.step_log_lr, 0.0, atol=1e-15)
    assert tl.lam == 0.0
    lam = 0.7
    np.testing.assert_allclose(tilt(g2, lam).step_log_lr + lam * g2.log_means_arr,
                               log_mgf(g2, lam)[0], atol=1e-15)


def test_tilt_toward_moves_the_mean(g2, fig_law):
    for env in (g2, fig_law):
        lo, hi = env.log_mean_min, env.log_mean_max
        for frac in (0.1, 0.5, 0.9):
            drift = lo + frac * (hi - lo)
            tl = tilt_toward(env, drift)
            assert tilt_weights(tl) @ env.log_means_arr == pytest.approx(drift, abs=1e-9)
    # targets at or beyond the hull edge clamp instead of failing
    edge = tilt_toward(g2, g2.log_mean_max + 1.0)
    assert tilt_weights(edge) @ g2.log_means_arr <= g2.log_mean_max


def test_tilt_degenerate_law_unchanged(dirac2):
    tl = tilt(dirac2, 3.7)
    np.testing.assert_allclose(tilt_weights(tl), [1.0], atol=1e-15)
    assert tilt_toward(dirac2, 5.0).lam == 0.0


def test_step_likelihood_ratio_identity(g2):
    # the product of per-step ratios telescopes to exp(n*phi - lam*walk)
    tl = tilt_toward(g2, 0.5)
    value, _, _ = log_mgf(g2, tl.lam)
    rng = replica_stream(1, 0)
    llr = 0.0
    s = 0.0
    n = 50
    for _ in range(n):
        i = int(np.searchsorted(tl.cum_weights, rng.random(), side="right"))
        llr += tl.step_log_lr[i]
        s += g2.log_means[i]
    assert llr == pytest.approx(n * value - tl.lam * s, abs=1e-9)


def test_upper_tail_matches_exact(g2):
    n = 5
    c = g2.mean_log_mean + 0.05
    ku = math.ceil(math.exp(n * c))
    dist = population_distribution(g2, n, z0=1, cap=ku)
    exact = 1.0 - dist.prob_le(ku - 1)
    res = estimate_upper_tail(g2, n, c, replicas=20_000, seed=5)
    assert abs(res.estimate - exact) <= 3.0 * res.stderr
    assert res.ess <= res.replicas
    assert res.method is Method.TILT_ONLY


def test_upper_tail_beats_naive_ess(g2):
    from bpre import SimConfig

    n = 20
    c = g2.mean_log_mean + 0.3
    res = estimate_upper_tail(g2, n, c, replicas=5_000, seed=1)
    # a naive run's ESS is its hit count
    hits = naive_sample(SimConfig(env=g2, n=n, z0=1, seed=1, replicas=5_000)).hit(
        math.exp(n * c), "upper").sum()
    assert res.ess > 10.0 * max(hits, 1.0)


def test_upper_tail_impossible_event(no_hold):
    # both components are deterministic and the target outruns the fastest one
    res = estimate_upper_tail(no_hold, 6, math.log(3.0) + 0.1, replicas=300, seed=2)
    assert res.zero_mass
    assert res.estimate == 0.0


def test_lower_tilt_only_matches_exact(g2):
    n, c = 8, 0.4
    exact = exact_lower(g2, n, c)
    res = estimate_lower_tail(g2, n, c, replicas=10_000, seed=7)
    t = res.tilt_only
    assert abs(t.estimate - exact) <= 3.0 * t.stderr
    assert t.stderr < exact
    assert t.ess <= t.replicas
    assert t.method is Method.TILT_ONLY


def test_lower_two_phase_partial_event_exact(g2):
    # holding for m generations factorizes: the partial event has an exact
    # value to test the weighting machinery against
    n, c = 8, 0.4
    res = estimate_lower_tail(g2, n, c, replicas=10_000, seed=13)
    tp = res.two_phase
    m = tp.hold_steps
    assert m == round(res.take_off * n)
    assert m >= 1
    assert abs(tp.estimate - exact_held(g2, n, c, m)) <= 3.0 * tp.stderr
    assert tp.method is Method.TWO_PHASE


def test_lower_two_phase_holds_a_mixture_exactly():
    # both components have single-offspring mass, so holding z0 = 2 is a
    # mixture over components; its weight was once sampled with the hold
    env = build_environment([(0.5, {1: 0.6, 3: 0.4}), (0.5, {1: 0.2, 2: 0.8})])
    tp = estimate_lower_tail(env, 8, 0.35, z0=2, replicas=4_000, seed=17,
                             phase_fraction=0.5).two_phase
    assert (tp.method, tp.hold_steps) == (Method.TWO_PHASE, 4)
    exact = exact_held(env, 8, 0.35, 4, 2)
    assert exact == pytest.approx(5.2493e-4, rel=1e-4)
    assert abs(tp.estimate - exact) <= 3.0 * tp.stderr
    assert tp.stderr < 0.1 * exact


_counts = st.lists(st.tuples(st.integers(1, 4), st.floats(0.1, 1.0)),
                   min_size=1, max_size=3, unique_by=lambda t: t[0])


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(0.2, 1.0), _counts), min_size=1, max_size=2),
       st.floats(0.1, 1.0), st.integers(3, 7), st.floats(0.2, 0.8), st.integers(1, 2),
       st.floats(0.2, 0.9))
def test_two_phase_matches_exact_held_on_laws_that_cannot_shrink(comps, p1, n, fraction,
                                                                  z0, drift):
    # the first component holds with mass p1; c keeps the free run's slope
    # c n / (n - m) inside the hull, and the held event is not too rare for
    # 4,000 replicas at desk scale
    comps[0][1].append((1, p1))
    laws = []
    for weight, counts in comps:
        pmf = dict(counts)   # the appended single-offspring mass wins
        total = sum(pmf.values())
        laws.append((weight, {k: v / total for k, v in pmf.items()}))
    total = sum(w for w, _ in laws)
    env = build_environment([(w / total, pmf) for w, pmf in laws])
    assume(env.mean_log_mean > 0.05)
    m = round(fraction * n)
    c = drift * env.mean_log_mean * (n - m) / n
    exact = exact_held(env, n, c, m, z0)
    assume(exact >= 1e-3)
    tp = estimate_lower_tail(env, n, c, z0=z0, replicas=4_000, seed=5,
                             phase_fraction=fraction).two_phase
    assert (tp.method, tp.hold_steps) == (Method.TWO_PHASE, m)
    assert abs(tp.estimate - exact) <= 4.0 * tp.stderr + 1e-12 * exact


def test_free_slope_past_the_hull_top_is_capped_at_the_typical_drift():
    # m = 2 of n = 3 leave a free slope of 1.8, past the top log-mean 1.139;
    # a tilt clamped at the hull top once drew only the fast component and
    # read 0.109 with stderr 0.  Capped at L-bar the tilt is 0, and every
    # free run ends below e^{1.8}, so each weight is the exact hold
    env = build_environment([(0.5, {1: .825, 2: .175}), (0.5, {1: .109, 2: .274, 4: .617})])
    assert 0.6 * 3 / (3 - 2) > env.log_mean_max > env.mean_log_mean
    tp = estimate_lower_tail(env, 3, 0.6, replicas=4_000, seed=0,
                             phase_fraction=0.6).two_phase
    assert (tp.hold_steps, tp.tilt) == (2, pytest.approx(0.0, abs=1e-12))
    assert tp.estimate == pytest.approx(exact_held(env, 3, 0.6, 2), rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.floats(0.2, 1.0), _counts), min_size=1, max_size=2),
       st.floats(0.1, 1.0), st.integers(3, 7), st.floats(0.4, 0.9), st.integers(1, 2),
       st.floats(1.05, 2.5))
def test_two_phase_matches_exact_held_past_the_typical_drift(comps, p1, n, fraction, z0,
                                                             past):
    # as above, but the free run's slope c n / (n - m) is past L-bar, up to
    # beyond the top log-mean; the free event must be rare enough that a
    # miss shows in 4,000 replicas, or a stderr of 0 hides a rare miss
    comps[0][1].append((1, p1))
    laws = []
    for weight, counts in comps:
        pmf = dict(counts)
        total = sum(pmf.values())
        laws.append((weight, {k: v / total for k, v in pmf.items()}))
    total = sum(w for w, _ in laws)
    env = build_environment([(w / total, pmf) for w, pmf in laws])
    assume(env.mean_log_mean > 0.05)
    m = round(fraction * n)
    assume(m < n)
    c = past * env.mean_log_mean * (n - m) / n
    assume(c < env.mean_log_mean)
    exact = exact_held(env, n, c, m, z0)
    assume(exact >= 1e-3)
    assume(exact / math.exp(m * rare_event._log_hold(env, z0)) <= 0.99)
    tp = estimate_lower_tail(env, n, c, z0=z0, replicas=4_000, seed=5,
                             phase_fraction=fraction).two_phase
    assert (tp.method, tp.hold_steps) == (Method.TWO_PHASE, m)
    assert abs(tp.estimate - exact) <= 4.0 * tp.stderr + 1e-12 * exact


def test_limit_slope_does_not_depend_on_c(g2, fig_law):
    # _plan steers a drift below the least log-mean to the slope of its own
    # c's rate solve, which serves any c below the slope
    for env in (g2, fig_law):
        slope = lower_deviation_rate(env, 0.05).slope
        assert 0.05 < slope <= env.mean_log_mean
        for c in np.linspace(0.0, slope, 52)[1:-1]:
            assert lower_deviation_rate(env, c).slope == slope


def test_drift_below_the_least_log_mean_tilts_as_its_own_rate_solve(g2, fig_law):
    # the plan reuses the call's rate solve where a second one at the free
    # drift c n / (n - m) gives the same slope
    for env, n, c, method, fraction in ((g2, 10, 0.1, "two_phase", 0.3),
                                        (g2, 8, 0.3, "tilt_only", None),
                                        (fig_law, 20, 0.3, "two_phase", 0.4),
                                        (fig_law, 20, 0.9, "two_phase", 0.0)):
        proposal, m, _ = rare_event._plan(rare_event._event(env, n, c, "lower", 1),
                                          method, fraction)
        drift = c * n / (n - m)
        assert 0.0 < drift <= env.log_mean_min
        old = tilt_toward(env, lower_deviation_rate(env, drift).slope)
        assert proposal.lam == old.lam
        assert np.array_equal(proposal.cum_weights, old.cum_weights)
        assert np.array_equal(proposal.step_log_lr, old.step_log_lr)


def test_hold_past_the_float_range_is_a_zero_estimate(g2):
    # (E p1^1500)^5 underflows; its log does not, and the estimate is an
    # honest zero (a log of the underflowed factor once raised)
    res = estimate_lower_tail(g2, 10, 0.75, z0=1500, replicas=300, seed=1,
                              phase_fraction=0.5)
    tp = res.two_phase
    assert (tp.method, tp.hold_steps, tp.estimate, tp.zero_mass) == (
        Method.TWO_PHASE, 5, 0.0, True)
    assert exact_held(g2, 10, 0.75, 5, 1500) == 0.0
    assert rare_event._log_hold(g2, 1500) == pytest.approx(1501 * math.log(0.5), rel=1e-15)


def test_held_zero_samples_nothing(g2, monkeypatch):
    # e^{cn} < z0: sample runs no generation, so every weight is 0 without a
    # draw, and the readers that condition on the event refuse it (they once
    # sampled first)
    def no_draw(*args, **kwargs):
        raise AssertionError("a held-zero horizon drew")

    monkeypatch.setattr(simulate, "branch", no_draw)
    monkeypatch.setattr(Stream, "at", no_draw)
    res = estimate_lower_tail(g2, 4, -0.5, replicas=3 * BLOCK, seed=0, workers=2)
    assert res.two_phase.zero_mass and res.tilt_only.zero_mass
    assert res.two_phase.processes == res.tilt_only.processes == 1
    with pytest.raises(NoEventMassError):
        take_off_statistics(g2, 4, -0.5, replicas=10, seed=0)
    for method in (None, "tilt_only"):
        with pytest.raises(NoEventMassError):
            conditional_profile(g2, 4, -0.5, replicas=10, seed=0, method=method)
    with pytest.raises(InvalidArgumentError, match="replicas=0"):
        estimate_lower_tail(g2, 4, -0.5, replicas=0)


def test_held_zero_keeps_the_replica_budget(g2):
    # the held-zero horizon once built its zero weights past REPLICAS_MAX
    with pytest.raises(BudgetExceededError, match=f"replicas={REPLICAS_MAX + 1}"):
        estimate_lower_tail(g2, 40, -0.5, replicas=REPLICAS_MAX + 1)


def test_lower_partial_below_full(g2):
    n, c = 8, 0.4
    res = estimate_lower_tail(g2, n, c, replicas=10_000, seed=7)
    spread = 3.0 * math.hypot(res.tilt_only.stderr, res.two_phase.stderr)
    assert res.two_phase.estimate <= res.tilt_only.estimate + spread


def test_lower_zero_phase_reduces_to_tilt_only(g2):
    # at n = 3, c * n / n is one ulp off c: the m = 0 plan must target c itself
    for n, c in ((8, 0.4), (3, 0.1)):
        res = estimate_lower_tail(g2, n, c, replicas=2_000, seed=3, phase_fraction=0.0)
        assert res.two_phase.hold_steps == 0
        assert res.two_phase.method is Method.TILT_ONLY
        assert res.two_phase.estimate == res.tilt_only.estimate
        assert res.two_phase.stderr == res.tilt_only.stderr
        assert res.two_phase.ess == res.tilt_only.ess
        assert res.two_phase.tilt == res.tilt_only.tilt
        # the readers weigh the same sample as the estimator's leg of their method
        default = estimate_lower_tail(g2, n, c, replicas=2_000, seed=3)
        for method, leg in (("tilt_only", res.tilt_only), (None, default.two_phase)):
            kw = {"replicas": 2_000, "seed": 3, **({"method": method} if method else {})}
            profile = conditional_profile(g2, n, c, **kw)
            for reader in (take_off_statistics(g2, n, c, **kw), profile):
                assert reader.result == leg
                assert reader.ess == leg.ess
                assert reader.result.method is leg.method
            assert profile.event_estimate == leg.estimate


def test_no_hold_plan_is_weighed_once(g2, no_hold, monkeypatch):
    # a two_phase plan that holds nothing is TiltOnly's run, the same proposal
    # on the same stream: the estimator samples it once; a hold samples twice
    calls = []
    sample = rare_event.sample
    monkeypatch.setattr(rare_event, "sample",
                        lambda *args: calls.append(args[1]) or sample(*args))
    for env, n, c, fraction, runs in ((g2, 20, 0.6, None, 1), (g2, 8, 0.4, 0.0, 1),
                                      (no_hold, 8, 0.75, None, 1), (g2, 8, 0.4, None, 2)):
        calls.clear()
        res = estimate_lower_tail(env, n, c, replicas=500, seed=4, phase_fraction=fraction)
        assert len(calls) == runs
        assert (res.two_phase.hold_steps == 0) == (runs == 1)
        assert (res.two_phase == res.tilt_only) == (runs == 1)
    # the reused leg is the run a second sample would make
    event = rare_event._event(g2, 20, 0.6, "lower", 1)
    plan = rare_event._plan(event, "two_phase", None)
    assert plan[1] == 0
    assert rare_event._sample_and_weigh(event, plan, 4, 500, 1)[2] == \
        estimate_lower_tail(g2, 20, 0.6, replicas=500, seed=4).two_phase


def test_event_take_off_and_slope(g2, fig_law):
    # the event's limit path f_c: the rate solve's take-off and slope below
    # with c > 0, held throughout at slope c below with c <= 0, c t above
    for env, c in ((g2, 0.4), (g2, 0.05), (g2, 0.6), (fig_law, 1.1)):
        r = lower_deviation_rate(env, c)
        event = rare_event._event(env, 8, c, "lower", 1)
        assert (event.take_off, event.slope) == (r.take_off, r.slope)
    for c in (0.0, -0.5):
        assert rare_event._event(g2, 8, c, "lower", 1)[5:] == (1.0, c)
    assert rare_event._event(g2, 8, 1.05, "upper", 1)[5:] == (0.0, 1.05)


def test_profile_reference_is_the_event_limit_path(g2):
    # bit for bit: c t above, 0 for a lower c <= 0, f_c for a lower c > 0
    r = lower_deviation_rate(g2, 0.4)
    for grid in (None, [0.0, r.take_off, 0.5, 0.9, 1.0]):
        upper = conditional_profile(g2, 8, 1.05, grid=grid, side="upper", replicas=300)
        assert upper.reference.tobytes() == (1.05 * upper.grid).tobytes()
        floor = conditional_profile(g2, 8, 0.0, grid=grid, replicas=300)
        assert floor.reference.tobytes() == np.zeros(floor.grid.size).tobytes()
        lower = conditional_profile(g2, 8, 0.4, grid=grid, replicas=300)
        assert lower.reference.tobytes() == limit_profile(r, lower.grid).tobytes()


def test_profile_reads_the_limit_path_twice(g2, monkeypatch):
    # one call for the n + 1 generations, one for the grid, whatever its size
    calls = []
    limit = rare_event.limit_profile
    monkeypatch.setattr(rare_event, "limit_profile",
                        lambda event, t: calls.append(np.size(t)) or limit(event, t))
    for grid in (None, [0.5], np.linspace(0.0, 1.0, 1001)):
        calls.clear()
        conditional_profile(g2, 8, 0.4, grid=grid, replicas=300)
        assert len(calls) == 2
    assert calls == [9, 1001]


def test_lower_two_phase_with_larger_start(g2):
    # c low enough that the planned holding phase is nonempty at n = 6
    n, c, z0 = 6, 0.3, 2
    res = estimate_lower_tail(g2, n, c, z0=z0, replicas=20_000, seed=21)
    tp = res.two_phase
    m = tp.hold_steps
    assert m >= 1
    k = event_threshold(n, c)
    # holding with two individuals costs the squared single-child mass
    step = 0.5 * 0.5**z0
    exact_partial = step**m * population_distribution(
        g2, n - m, z0=z0, cap=k
    ).prob_le(k)
    assert abs(tp.estimate - exact_partial) <= 3.0 * tp.stderr


def test_lower_full_hold_is_deterministic(g2):
    # c = 0 makes the event "never grow"; holding every step has a constant
    # likelihood ratio, so the estimator is exact with zero variance
    res = estimate_lower_tail(g2, 10, 0.0, replicas=50, seed=1, phase_fraction=1.0)
    assert res.two_phase.estimate == pytest.approx(0.25**10, rel=1e-12)
    assert res.two_phase.stderr == 0.0
    assert res.two_phase.hold_steps == 10


def test_lower_impossible_event_short_circuit(g2):
    res = estimate_lower_tail(g2, 4, -0.5, replicas=100, seed=0)
    assert res.two_phase.zero_mass
    assert res.two_phase.estimate == 0.0


@pytest.mark.parametrize("methods", [("tilt_only",), ("two_phase",),
                                     ("tilt_only", "two_phase")])
def test_held_zero_answers_the_legs_asked_for(g2, methods):
    # e^{cn} < z0 once answered a TwoPhase zero and take-off 1.0 for every
    # leg; each leg a caller reads is its exact zero, labelled by its own
    # plan, and the estimate carries both legs whichever are read
    res = estimate_lower_tail(g2, 4, -0.5, replicas=10, seed=0)
    legs = {"tilt_only": (res.tilt_only, Method.TILT_ONLY, 0),
            "two_phase": (res.two_phase, Method.TWO_PHASE, 4)}
    assert res.tilt_only is not None and res.two_phase is not None
    for leg, method, held in (legs[name] for name in methods):
        assert (leg.method, leg.estimate, leg.stderr, leg.ess) == (method, 0.0, 0.0, 0.0)
        assert leg.zero_mass and leg.replicas == 10 and leg.normal_steps == 0
        assert leg.hold_steps == held
    assert res.take_off == 1.0


def test_lower_no_holding_law(no_hold):
    # nothing to hold with: the planned hold length is zero and the second
    # leg collapses onto the plain tilted estimator, also at c = 0, whose
    # event asks for a hold throughout (that leg was once None, take-off 1.0),
    # and at the held-zero c = -0.5 (once labelled TwoPhase, n held steps)
    for c in (0.75, 0.0, -0.5):
        res = estimate_lower_tail(no_hold, 8, c, replicas=2_000, seed=2)
        assert res.take_off == 0.0
        assert res.two_phase.hold_steps == 0
        assert res.two_phase.method is Method.TILT_ONLY
        assert res.two_phase == res.tilt_only
    with pytest.raises(NoHoldingPossibleError):
        estimate_lower_tail(no_hold, 8, 0.75, replicas=10, seed=2, phase_fraction=0.5)
    with pytest.raises(NoHoldingPossibleError):
        take_off_statistics(no_hold, 8, 0.75, replicas=10, seed=2, phase_fraction=0.5)
    for method in (None, "two_phase"):
        with pytest.raises(NoHoldingPossibleError):
            conditional_profile(no_hold, 8, 0.75, replicas=10, seed=2,
                                phase_fraction=0.5, method=method)


def test_estimator_domain_guards(g2, subcrit):
    with pytest.raises(COutOfRangeError):
        estimate_lower_tail(g2, 5, g2.mean_log_mean + 0.1)
    with pytest.raises(COutOfRangeError):
        estimate_upper_tail(g2, 5, 0.4)
    with pytest.raises(NotStronglySupercriticalError):
        estimate_lower_tail(subcrit, 5, 0.1)


@pytest.mark.parametrize("z0", [0, -1])
@pytest.mark.parametrize("fn, c", [(estimate_lower_tail, 0.4), (estimate_upper_tail, 1.05),
                                   (take_off_statistics, 0.4), (conditional_profile, 0.4)])
def test_estimators_reject_start_below_one(g2, fn, c, z0):
    # z0 = 0 once gave a TiltOnly lower-tail "probability" of 1.16
    with pytest.raises(InvalidArgumentError, match=f"z0={z0}"):
        fn(g2, 8, c, z0=z0, replicas=10)


@pytest.mark.parametrize("fn", [
    estimate_lower_tail, estimate_upper_tail, take_off_statistics, conditional_profile,
    conditional_trajectory, lambda env, n, c: CellTreeConfig(n, *env.components, c),
    walk_tail,
], ids=["lower", "upper", "takeoff", "profile", "trajectory", "cells", "walk_tail"])
def test_nan_c_is_invalid_argument(g2, fn):
    # NaN compares False against every bound: it once ended in an
    # AttributeError, a BudgetExceeded "past the float range" or a COutOfRange
    with pytest.raises(InvalidArgumentError, match="c is not a number"):
        fn(g2, 8, math.nan)


@pytest.mark.parametrize("c", [0.4, -0.5], ids=["sampled", "impossible"])
def test_lower_tail_rejects_unknown_method(g2, c):
    # the readers' method goes to the one planner, which refuses a bad name
    # before anything is sampled, at a held-zero horizon too
    for reader in (take_off_statistics, conditional_profile):
        for method in ("tilt", "bogus"):
            with pytest.raises(InvalidArgumentError, match="unknown method"):
                reader(g2, 8, c, replicas=10, method=method)


@pytest.mark.parametrize("call", [
    lambda g2: take_off_statistics(g2, 8, 0.4, method="tilt_only", phase_fraction=0.5),
    lambda g2: conditional_profile(g2, 8, 1.05, side="upper", phase_fraction=0.5),
], ids=["takeoff", "profile"])
def test_phase_fraction_without_two_phase_is_refused(g2, call):
    # a hold fraction asked of TiltOnly was once dropped in silence
    with pytest.raises(InvalidArgumentError, match="phase_fraction=0.5"):
        call(g2)


def test_rate_curve_is_the_estimators(g2):
    # each lower point is estimate_lower_tail's two_phase leg, the last one
    # a held-zero horizon (e^{0.8} < z0 = 3), and each upper point is
    # estimate_upper_tail
    kw = dict(replicas=400, seed=6)
    lower = rate_curve(g2, 0.4, [6, 8, 2], z0=3, **kw)
    assert [p.result.zero_mass for p in lower] == [False, False, True]
    for point in lower:
        leg = estimate_lower_tail(g2, point.result.n, 0.4, z0=3, **kw).two_phase
        assert point.result == leg
        if not leg.zero_mass:
            assert (point.rate, point.rate_stderr) == empirical_rate(leg)
    assert (lower[-1].result.estimate, lower[-1].result.ess) == (0.0, 0.0)
    assert math.isinf(lower[-1].rate) and math.isnan(lower[-1].rate_stderr)
    upper = rate_curve(g2, 1.05, [4, 8], side="upper", **kw)
    assert len(upper) == 2
    for point in upper:
        res = estimate_upper_tail(g2, point.result.n, 1.05, **kw)
        assert point.result == res
        assert (point.rate, point.rate_stderr) == empirical_rate(res)
    with pytest.raises(InvalidArgumentError, match="side"):
        rate_curve(g2, 0.4, [8], side="middle", **kw)
    # every point is refused or weighed on its own: no horizon, no check
    assert rate_curve(g2, 0.4, [], side="middle", **kw) == []


def test_upper_profile_has_no_two_phase(g2):
    # it once ran TiltOnly in silence
    with pytest.raises(InvalidArgumentError, match="two_phase"):
        conditional_profile(g2, 8, g2.mean_log_mean + 0.3, side="upper",
                            method="two_phase", replicas=10)


def test_lower_unbiased_over_seed_batches(g2):
    n, c = 6, 0.45
    exact = exact_lower(g2, n, c)
    hits = 0
    for seed in range(40):
        r = estimate_lower_tail(g2, n, c, replicas=1_000, seed=seed).tilt_only
        if abs(r.estimate - exact) <= 3.0 * r.stderr:
            hits += 1
    assert hits >= 36


def test_empirical_rate(g2):
    res = estimate_lower_tail(g2, 8, 0.4, replicas=4_000, seed=9)
    rate, rate_se = empirical_rate(res.tilt_only)
    assert rate == pytest.approx(-math.log(res.tilt_only.estimate) / 8.0, abs=1e-12)
    assert rate_se > 0.0
    zero = estimate_lower_tail(g2, 4, -0.5, replicas=10, seed=0)
    with pytest.raises(ZeroEstimateError):
        empirical_rate(zero.two_phase)


def test_rate_curve_lower(g2):
    pts = rate_curve(g2, 0.4, [6, 8], replicas=4_000, seed=3)
    assert [p.result.n for p in pts] == [6, 8]
    for p in pts:
        assert p.result.method is Method.TWO_PHASE
        assert p.rate > 0.0 and not p.result.zero_mass
        assert p.rate_stderr > 0.0


def test_rate_curve_upper(g2):
    c = g2.mean_log_mean + 0.3
    pts = rate_curve(g2, c, [10, 20], replicas=4_000, seed=9, side="upper")
    psi = walk_rate(g2, c)
    assert pts[-1].rate == pytest.approx(psi, rel=0.5)
    with pytest.raises(ValueError):
        rate_curve(g2, c, [5], replicas=10, side="middle")


def test_rate_curve_truncates_on_zero_mass(dirac2):
    # deterministic doubling cannot stay below e^{0.3 n}
    pts = rate_curve(dirac2, 0.3, [3, 5], replicas=50, seed=0)
    assert len(pts) == 1
    assert pts[0].result.zero_mass
    assert math.isinf(pts[0].rate)


def test_take_off_statistics_posterior(g2):
    res = take_off_statistics(g2, 8, 0.4, replicas=5_000, seed=11)
    assert 0.0 < res.mean_fraction <= 1.0
    assert res.ess <= res.result.replicas
    assert res.result.method is Method.TWO_PHASE
    assert res.fractions.shape == res.weights.shape
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(res.weights >= 0.0)


def test_take_off_matches_exact_conditional(g2):
    n, c, threshold = 8, 0.4, 10
    exact = exact_mean_take_off(g2, n, c, threshold)
    res = take_off_statistics(
        g2, n, c, pop_threshold=threshold, replicas=20_000, seed=17, method="tilt_only"
    )
    assert abs(res.mean_fraction - exact) <= 3.0 * res.stderr
    assert res.result.method is Method.TILT_ONLY


def test_take_off_no_hold_law(no_hold):
    n, c, threshold = 8, 0.75, 10
    exact = exact_mean_take_off(no_hold, n, c, threshold)
    res = take_off_statistics(
        no_hold, n, c, pop_threshold=threshold, replicas=5_000, seed=4, method="tilt_only"
    )
    # growth is at least geometric, so the threshold falls by generation 4
    assert res.mean_fraction <= 0.5 + 1e-12
    assert abs(res.mean_fraction - exact) <= 3.0 * res.stderr


def test_take_off_after_the_hold(g2):
    # a held path takes off after its m held steps, or at 0 from z0 above
    # the threshold; held throughout, it reads 1.0 with the exact weight
    res = take_off_statistics(g2, 8, 0.4, pop_threshold=2, z0=3, replicas=500, seed=1)
    assert res.result.hold_steps == 2
    assert np.all(res.fractions == 0.0) and res.mean_fraction == 0.0
    low = take_off_statistics(g2, 8, 0.4, pop_threshold=10, replicas=500, seed=1)
    assert low.result.hold_steps == 2 and np.all(low.fractions >= 2 / 8)
    full = take_off_statistics(g2, 8, 0.4, replicas=200, seed=1, phase_fraction=1.0)
    assert full.result.hold_steps == 8 and full.fractions.size == 200
    assert np.all(full.fractions == 1.0) and full.mean_fraction == 1.0
    assert full.result.estimate == pytest.approx(exact_held(g2, 8, 0.4, 8), rel=1e-12)


def test_profile_sits_at_z0_through_the_hold(g2):
    # the m held columns are log z0 on every path
    prof = conditional_profile(g2, 8, 0.4, z0=3, replicas=500, seed=1)
    assert prof.result.hold_steps == 2 and prof.grid.size == 9
    np.testing.assert_allclose(prof.values[:3], math.log(3) / 8, rtol=1e-12)
    np.testing.assert_allclose(prof.stderr[:3], 0.0, atol=1e-12)
    assert prof.values[3] > prof.values[2]


def test_take_off_requires_event_mass(dirac2):
    with pytest.raises(NoEventMassError):
        take_off_statistics(dirac2, 5, 0.6, pop_threshold=1, replicas=100, seed=0, method="tilt_only")


def test_profile_matches_oracle_pointwise(g2):
    tr = conditional_trajectory(g2, 8, 0.4)
    prof = conditional_profile(g2, 8, 0.4, replicas=10_000, seed=5, method="tilt_only")
    assert prof.grid.size == 9
    assert prof.values[0] == 0.0
    for i in range(9):
        gap = abs(prof.values[i] - tr.profile[i])
        assert gap <= 3.0 * max(prof.stderr[i], 1e-12)
    assert prof.result.method is Method.TILT_ONLY


def test_profile_two_phase_reference_is_limit_shape(g2):
    prof = conditional_profile(g2, 8, 0.4, replicas=3_000, seed=2)
    assert prof.result.method is Method.TWO_PHASE
    r = lower_deviation_rate(g2, 0.4)
    for t, ref in zip(prof.grid, prof.reference):
        assert ref == pytest.approx(limit_profile(r, float(t)), abs=1e-12)
    assert prof.reference[-1] == pytest.approx(0.4, abs=1e-12)
    assert prof.sup_distance >= 0.0
    assert prof.ess <= prof.result.replicas


def test_profile_upper_reference_is_line(g2):
    c = g2.mean_log_mean + 0.3
    prof = conditional_profile(g2, 10, c, side="upper", replicas=4_000, seed=8)
    np.testing.assert_allclose(prof.reference, c * prof.grid, atol=1e-12)
    assert prof.values[-1] >= c - 3.0 * max(float(prof.stderr[-1]), 1e-9)


def test_profile_custom_grid(g2):
    prof = conditional_profile(g2, 6, 0.4, grid=[0.0, 0.5, 1.0], replicas=2_000, seed=1)
    assert prof.grid.tolist() == [0.0, 0.5, 1.0]
    assert prof.values.shape == (3,)
    for grid in ([-0.1, 0.5], [], [0.5, math.nan]):
        with pytest.raises(ValueError):
            conditional_profile(g2, 6, 0.4, grid=grid, replicas=10)


def test_profile_grid_reads_its_generation(g2, monkeypatch):
    # a grid point t reads generation floor(t n): an unsorted grid that repeats
    # a point gets the default grid's statistics bit for bit, from n + 1
    # reductions and the sup distance's, whatever its size
    calls = []
    ratio_stats = rare_event._ratio_stats
    monkeypatch.setattr(rare_event, "_ratio_stats",
                        lambda w, g: calls.append(g.size) or ratio_stats(w, g))
    full = conditional_profile(g2, 8, 0.4, replicas=1_500, seed=5)
    grid = [0.9, 0.125, 0.5, 0.5, 0.0, 1.0, 0.33, 0.999]
    prof = conditional_profile(g2, 8, 0.4, grid=grid, replicas=1_500, seed=5)
    idx = [7, 1, 4, 4, 0, 8, 2, 7]
    assert prof.values.tobytes() == full.values[idx].tobytes()
    assert prof.stderr.tobytes() == full.stderr[idx].tobytes()
    assert prof.sup_distance == full.sup_distance
    assert len(calls) == 2 * (8 + 2)


def test_profile_memory_does_not_grow_with_replicas_times_grid(g2):
    # 20,001 grid points once copied every path per point, a 320x larger peak
    # than the default grid's; now the excess is a few grid-length arrays (the
    # grid, its indices, the reference, values and stderr) at any replicas
    dense = np.linspace(0.0, 1.0, 20_001)
    peaks = []
    for grid in (None, dense):
        conditional_profile(g2, 8, 0.4, grid=grid, replicas=2_000, seed=1)   # warm-up
        tracemalloc.start()
        try:
            conditional_profile(g2, 8, 0.4, grid=grid, replicas=2_000, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 8 * dense.nbytes


def test_profile_path_budget(g2, monkeypatch):
    # R (n + 1) path entries are refused before any path is sampled; the
    # bound itself still runs, and the acceptance suite's largest profile,
    # 20,000 paths at n = 80, stays far below the shipped bound
    assert 20_000 * 81 < rare_event.PATH_ENTRIES_MAX
    monkeypatch.setattr(rare_event, "PATH_ENTRIES_MAX", 100 * 9)
    assert conditional_profile(g2, 8, 0.4, replicas=100, seed=1).result.replicas == 100
    monkeypatch.setattr(rare_event, "sample", lambda *a, **k: pytest.fail("sampled"))
    with pytest.raises(BudgetExceededError, match="101 paths of 9 entries"):
        conditional_profile(g2, 8, 0.4, replicas=101, seed=1)


def test_estimators_worker_invariant(g2, pool_per_block):
    a = estimate_lower_tail(g2, 8, 0.4, replicas=3_000, seed=42, workers=1)
    b = estimate_lower_tail(g2, 8, 0.4, replicas=3_000, seed=42, workers=5)
    assert a.tilt_only.estimate == b.tilt_only.estimate
    assert a.tilt_only.stderr == b.tilt_only.stderr
    assert a.two_phase.estimate == b.two_phase.estimate

    p1 = conditional_profile(g2, 8, 0.4, replicas=2_000, seed=9, workers=1)
    p2 = conditional_profile(g2, 8, 0.4, replicas=2_000, seed=9, workers=4)
    assert np.array_equal(p1.values, p2.values)
    assert p1.sup_distance == p2.sup_distance

    # two and a half blocks: the last block is partial
    reps = 2 * BLOCK + BLOCK // 2
    lower, off, prof = [], [], []
    for w in (1, 2, 3):
        lower.append(estimate_lower_tail(g2, 8, 0.4, replicas=reps, seed=4, workers=w))
        off.append(take_off_statistics(g2, 8, 0.4, replicas=reps, seed=4, workers=w))
        prof.append(conditional_profile(g2, 8, 0.4, replicas=reps, seed=4, workers=w))
    for k in (1, 2):
        # processes is the one field that depends on workers: k + 1 processes
        # ran each leg, one per block
        for leg, first in zip(lower[k][:2], lower[0][:2]):
            assert leg.processes == k + 1 and first.processes == 1
            assert leg._replace(processes=1) == first
        assert lower[k].take_off == lower[0].take_off
        assert off[k].mean_fraction == off[0].mean_fraction
        assert np.array_equal(off[k].fractions, off[0].fractions)
        assert np.array_equal(off[k].weights, off[0].weights)
        assert np.array_equal(prof[k].values, prof[0].values)
        assert np.array_equal(prof[k].stderr, prof[0].stderr)
        assert prof[k].sup_distance == prof[0].sup_distance
        assert prof[k].ess == prof[0].ess


def test_lower_rate_solved_once_per_call(g2, fig_law, monkeypatch):
    calls = []

    def counting(env, c):
        calls.append(c)
        return lower_deviation_rate(env, c)

    monkeypatch.setattr(rare_event, "lower_deviation_rate", counting)
    for env, n, c in ((g2, 8, 0.4), (fig_law, 40, 1.1)):
        for fn in (conditional_profile, estimate_lower_tail, take_off_statistics):
            calls.clear()
            fn(env, n, c, replicas=50, seed=1)
            assert calls == [c], fn.__name__


def test_refusals_before_any_draw(g2, monkeypatch):
    # a bad side or phase_fraction is refused before a path is sampled
    with monkeypatch.context() as patch:
        patch.setattr(rare_event, "_sample_and_weigh", lambda *a: pytest.fail("sampled"))
        with pytest.raises(InvalidArgumentError, match="side must be"):
            conditional_profile(g2, 8, 0.4, side="middle")
        with pytest.raises(InvalidArgumentError, match=r"outside \[0, 1\]"):
            estimate_lower_tail(g2, 8, 0.4, phase_fraction=1.5)
    with pytest.raises(InvalidArgumentError, match="replicas=0"):
        estimate_upper_tail(g2, 8, 1.05, replicas=0)


# at n = 2000 every threshold e^{cn} below is past the float range: a call's
# own refusals come first, and the bound is refused only by its weighing
PAST_FLOAT_RANGE = {
    "phase-fraction": (lambda env: estimate_lower_tail(env, 2000, 0.4, phase_fraction=1.5),
                       InvalidArgumentError, r"outside \[0, 1\]"),
    "method": (lambda env: take_off_statistics(env, 2000, 0.4, method="bogus"),
               InvalidArgumentError, "unknown method"),
    "path-budget": (lambda env: conditional_profile(env, 2000, 0.4, replicas=2**15),
                    BudgetExceededError, "32768 paths of 2001 entries"),
    "upper": (lambda env: estimate_upper_tail(env, 2000, 1.05),
              BudgetExceededError, "past the float range"),
    "lower": (lambda env: estimate_lower_tail(env, 2000, 0.4),
              BudgetExceededError, "past the float range"),
}


@pytest.mark.parametrize("case", sorted(PAST_FLOAT_RANGE))
def test_refusal_order_past_the_float_range(g2, case):
    call, error, message = PAST_FLOAT_RANGE[case]
    with pytest.raises(error, match=message):
        call(g2)
