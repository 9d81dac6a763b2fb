import math

import numpy as np
import pytest

from bpre import (
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
)
from bpre import rare_event
from bpre.simulate import BLOCK
from conftest import event_threshold, exact_lower, exact_mean_take_off, naive_sample


def test_tilt_identity_at_zero(g2):
    tl = tilt(g2, 0.0)
    np.testing.assert_allclose(tl.weights, g2.weights_arr, atol=1e-15)
    np.testing.assert_allclose(tl.step_log_lr, 0.0, atol=1e-15)
    assert tl.log_norm == pytest.approx(0.0, abs=1e-15)
    assert tl.lam == 0.0


def test_tilt_toward_moves_the_mean(g2, fig_law):
    for env in (g2, fig_law):
        lo, hi = env.log_mean_min, env.log_mean_max
        for frac in (0.1, 0.5, 0.9):
            drift = lo + frac * (hi - lo)
            tl = tilt_toward(env, drift)
            assert tl.mean_log_mean == pytest.approx(drift, abs=1e-9)
    # targets at or beyond the hull edge clamp instead of failing
    edge = tilt_toward(g2, g2.log_mean_max + 1.0)
    assert edge.mean_log_mean <= g2.log_mean_max


def test_tilt_degenerate_law_unchanged(dirac2):
    tl = tilt(dirac2, 3.7)
    np.testing.assert_allclose(tl.weights, [1.0], atol=1e-15)
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
    k = event_threshold(n, c)
    exact_partial = g2.mean_p1**m * population_distribution(
        g2, n - m, z0=1, cap=k
    ).prob_le(k)
    assert abs(tp.estimate - exact_partial) <= 3.0 * tp.stderr
    assert tp.method is Method.TWO_PHASE


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
            for reader in (take_off_statistics(g2, n, c, **kw),
                           conditional_profile(g2, n, c, **kw)):
                assert reader.event_estimate == leg.estimate
                assert reader.ess == leg.ess
                assert reader.normal_steps == leg.normal_steps
                assert reader.method is leg.method


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


def test_lower_no_holding_law(no_hold):
    # nothing to hold with: the planned hold length is zero and the second
    # leg collapses onto the plain tilted estimator, also at c = 0, whose
    # event asks for a hold throughout (that leg was once None, take-off 1.0)
    for c in (0.75, 0.0):
        res = estimate_lower_tail(no_hold, 8, c, replicas=2_000, seed=2)
        assert res.take_off == 0.0
        assert res.two_phase.hold_steps == 0
        assert res.two_phase.method is Method.TILT_ONLY
        assert res.two_phase == res.tilt_only
    with pytest.raises(NoHoldingPossibleError):
        estimate_lower_tail(no_hold, 8, 0.75, replicas=10, seed=2, phase_fraction=0.5)
    with pytest.raises(NoHoldingPossibleError):
        take_off_statistics(no_hold, 8, 0.75, replicas=10, seed=2, phase_fraction=0.5)
    with pytest.raises(NoHoldingPossibleError):
        rate_curve(no_hold, 0.75, [8], phase_fraction=0.5)
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
], ids=["lower", "upper", "takeoff", "profile", "trajectory", "cells"])
def test_nan_c_is_invalid_argument(g2, fn):
    # NaN compares False against every bound: it once ended in an
    # AttributeError, a BudgetExceeded "past the float range" or a COutOfRange
    with pytest.raises(InvalidArgumentError, match="c is not a number"):
        fn(g2, 8, math.nan)


@pytest.mark.parametrize("c", [0.4, -0.5], ids=["sampled", "impossible"])
def test_lower_tail_rejects_unknown_method(g2, c):
    # ("tilt",) once returned no estimate at all, and a bad name next to a
    # good one was dropped
    for methods in (("tilt",), ("tilt_only", "bogus")):
        with pytest.raises(InvalidArgumentError, match="unknown method"):
            estimate_lower_tail(g2, 8, c, replicas=10, methods=methods)


@pytest.mark.parametrize("call", [
    lambda g2: take_off_statistics(g2, 8, 0.4, method="tilt_only", phase_fraction=0.5),
    lambda g2: conditional_profile(g2, 8, 1.05, side="upper", phase_fraction=0.5),
    lambda g2: rate_curve(g2, 1.05, [8], side="upper", phase_fraction=0.5),
    lambda g2: estimate_lower_tail(g2, 8, 0.4, methods=("tilt_only",), phase_fraction=0.5),
], ids=["takeoff", "profile", "rate", "lower"])
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
    assert [p.zero_mass for p in lower] == [False, False, True]
    for point in lower:
        leg = estimate_lower_tail(g2, point.n, 0.4, z0=3, methods=("two_phase",), **kw).two_phase
        assert (point.estimate, point.ess, point.method) == (leg.estimate, leg.ess, leg.method)
        if not point.zero_mass:
            assert (point.rate, point.rate_stderr) == empirical_rate(leg)
    upper = rate_curve(g2, 1.05, [4, 8], side="upper", **kw)
    assert len(upper) == 2
    for point in upper:
        res = estimate_upper_tail(g2, point.n, 1.05, **kw)
        assert (point.estimate, point.ess, point.method) == (res.estimate, res.ess, res.method)
        assert (point.rate, point.rate_stderr) == empirical_rate(res)
    with pytest.raises(InvalidArgumentError, match="side"):
        rate_curve(g2, 0.4, [8], side="middle", **kw)


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
        res = estimate_lower_tail(
            g2, n, c, replicas=1_000, seed=seed, methods=("tilt_only",)
        )
        r = res.tilt_only
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
    assert [p.n for p in pts] == [6, 8]
    for p in pts:
        assert p.method is Method.TWO_PHASE
        assert p.rate > 0.0 and not p.zero_mass
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
    assert pts[0].zero_mass
    assert math.isinf(pts[0].rate)


def test_take_off_statistics_posterior(g2):
    res = take_off_statistics(g2, 8, 0.4, replicas=5_000, seed=11)
    assert 0.0 < res.mean_fraction <= 1.0
    assert res.ess <= res.replicas
    assert res.method is Method.TWO_PHASE
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
    assert res.method is Method.TILT_ONLY


def test_take_off_no_hold_law(no_hold):
    n, c, threshold = 8, 0.75, 10
    exact = exact_mean_take_off(no_hold, n, c, threshold)
    res = take_off_statistics(
        no_hold, n, c, pop_threshold=threshold, replicas=5_000, seed=4, method="tilt_only"
    )
    # growth is at least geometric, so the threshold falls by generation 4
    assert res.mean_fraction <= 0.5 + 1e-12
    assert abs(res.mean_fraction - exact) <= 3.0 * res.stderr


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
    assert prof.method is Method.TILT_ONLY


def test_profile_two_phase_reference_is_limit_shape(g2):
    prof = conditional_profile(g2, 8, 0.4, replicas=3_000, seed=2)
    assert prof.method is Method.TWO_PHASE
    r = lower_deviation_rate(g2, 0.4)
    for t, ref in zip(prof.grid, prof.reference):
        assert ref == pytest.approx(limit_profile(r, float(t)), abs=1e-12)
    assert prof.reference[-1] == pytest.approx(0.4, abs=1e-12)
    assert prof.sup_distance >= 0.0
    assert prof.ess <= prof.replicas


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
        assert lower[k] == lower[0]
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
