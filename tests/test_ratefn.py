import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bpre import (
    COutOfRangeError,
    DegenerateLawError,
    InvalidArgumentError,
    NotStronglySupercriticalError,
    OutOfHullError,
    SideMismatchError,
    TOutOfRangeError,
    build_environment,
    chernoff_bound,
    limit_profile,
    log_mgf,
    lower_deviation_rate,
    tilt_parameter,
    two_env_walk_rate,
    walk_rate,
)
from bpre import rare_event, ratefn
from conftest import g2_law, reference_lower_rate, two_mean_law


def test_log_mgf_dirac(dirac2):
    for lam in (-3.0, 0.0, 1.7, 10.0):
        value, d1, d2 = log_mgf(dirac2, lam)
        assert value == pytest.approx(lam * math.log(2.0), abs=1e-12)
        assert d1 == pytest.approx(math.log(2.0), abs=1e-12)
        assert d2 == pytest.approx(0.0, abs=1e-12)


def test_log_mgf_at_zero(g2, fig_law):
    for env in (g2, fig_law):
        value, d1, d2 = log_mgf(env, 0.0)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert d1 == pytest.approx(env.mean_log_mean, abs=1e-12)
        assert d2 > 0.0


def test_log_mgf_direct_sum(fig_law):
    value, _, _ = log_mgf(fig_law, 1.0)
    m1, m2 = (math.exp(g) for g in fig_law.log_means)
    assert value == pytest.approx(math.log(0.5 * (m1 + m2)), abs=1e-12)
    # the calibrated law has log-means 1 and 2, so this is log((e + e^2)/2)
    assert value == pytest.approx(math.log((math.e + math.e**2) / 2.0), abs=1e-9)


def test_tilt_parameter_recovers_drift(g2, fig_law):
    for env in (g2, fig_law):
        lo, hi = env.log_mean_min, env.log_mean_max
        for frac in (0.03, 0.25, 0.5, 0.75, 0.97):
            c = lo + frac * (hi - lo)
            lam = tilt_parameter(env, c)
            _, d1, _ = log_mgf(env, lam)
            assert d1 == pytest.approx(c, abs=1e-10)
        assert abs(tilt_parameter(env, env.mean_log_mean)) < 1e-9


def test_tilt_parameter_closed_form(fig_law):
    # two equal-weight environments: the tilt that moves the mean to the
    # z-quantile point is log(z/(1-z)) divided by the log-mean gap
    g1, g2_ = fig_law.log_means
    z = 0.1
    c = g1 + z * (g2_ - g1)
    lam = tilt_parameter(fig_law, c)
    assert lam == pytest.approx(math.log(z / (1.0 - z)) / (g2_ - g1), abs=1e-9)
    assert lam == pytest.approx(-2.1972245773362196, abs=1e-9)
    # log-means 0 and 0.001 at z = 1 - 1e-4: the root, 1000 log 9999, lies
    # past the solver's first bracket [-64, 64]
    p = math.expm1(0.001)
    env = build_environment([(0.5, {1: 1.0}), (0.5, {1: 1.0 - p, 2: p})])
    lam = tilt_parameter(env, 0.001 * (1.0 - 1e-4))
    assert lam == pytest.approx(1000.0 * math.log(9999.0), rel=1e-6)


def test_tilt_parameter_errors(dirac2, g2, monkeypatch):
    assert tilt_parameter(dirac2, math.log(2.0)) == 0.0
    with pytest.raises(DegenerateLawError):
        tilt_parameter(dirac2, 1.0)
    with pytest.raises(OutOfHullError):
        tilt_parameter(g2, 10.0)
    with pytest.raises(OutOfHullError):
        tilt_parameter(g2, g2.log_mean_min)
    # two log-mean atoms 3e-12 apart: one ulp inside the low edge phi' stays
    # above c until the bracket's low end passes -2^40, one ulp inside the
    # high edge below c until its high end passes 2^40
    near = build_environment([(0.5, {2: 3.0 - m, 3: m - 2.0})
                              for m in (math.e, math.exp(1.0 + 3e-12))])
    lo, hi = near.log_mean_min, near.log_mean_max
    assert 0.0 < hi - lo <= 3.1e-12
    for c in (math.nextafter(lo, hi), math.nextafter(hi, lo)):
        with pytest.raises(OutOfHullError, match="numerically at the hull edge"):
            tilt_parameter(near, c)
    # no residual meets a negative tolerance: the solve runs out of iterations
    monkeypatch.setattr(ratefn, "DRIFT_TOL", -1.0)
    with pytest.raises(OutOfHullError, match="200 iterations"):
        tilt_parameter(g2, 0.5)


def test_walk_rate_zero_at_mean(g2, fig_law):
    for env in (g2, fig_law):
        assert walk_rate(env, env.mean_log_mean) == pytest.approx(0.0, abs=1e-12)


def test_walk_rate_closed_form_value(fig_law):
    g1, g2_ = fig_law.log_means
    z = 0.1
    c = g1 + z * (g2_ - g1)
    expected = z * math.log(z / 0.5) + (1.0 - z) * math.log((1.0 - z) / 0.5)
    assert walk_rate(fig_law, c) == pytest.approx(expected, abs=1e-10)
    assert walk_rate(fig_law, c) == pytest.approx(0.36806420716849697, abs=1e-9)


def test_walk_rate_corners_and_outside(g2):
    assert walk_rate(g2, g2.log_mean_min) == pytest.approx(math.log(2.0), abs=1e-12)
    assert walk_rate(g2, g2.log_mean_max) == pytest.approx(math.log(2.0), abs=1e-12)
    assert math.isinf(walk_rate(g2, g2.log_mean_min - 1e-6))
    assert math.isinf(walk_rate(g2, g2.log_mean_max + 1e-6))


def test_walk_rate_corner_is_tilt_limit(g2):
    # the corner value equals the limit of c*lam - phi(lam) as lam -> -inf
    c = g2.log_mean_min
    lam = -40.0
    value, _, _ = log_mgf(g2, lam)
    assert walk_rate(g2, c) == pytest.approx(c * lam - value, abs=1e-6)


def test_walk_rate_single_atom(dirac2):
    assert walk_rate(dirac2, math.log(2.0)) == 0.0
    assert math.isinf(walk_rate(dirac2, 0.5))


def test_two_env_closed_form_endpoints():
    assert two_env_walk_rate(1.0, 2.0, 0.5, 1.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert two_env_walk_rate(1.0, 2.0, 0.5, 2.0) == pytest.approx(math.log(2.0), abs=1e-12)
    assert two_env_walk_rate(1.0, 2.0, 0.5, 1.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "args",
    [(2.0, 1.0, 0.5, 1.5), (1.0, 1.0, 0.5, 1.0), (1.0, 2.0, 0.0, 1.5), (1.0, 2.0, 1.0, 1.5)],
    ids=["reversed", "equal", "q0", "q1"],
)
def test_two_env_degenerate(args):
    with pytest.raises(DegenerateLawError):
        two_env_walk_rate(*args)


def test_two_env_out_of_hull():
    with pytest.raises(OutOfHullError):
        two_env_walk_rate(1.0, 2.0, 0.5, 2.5)
    with pytest.raises(OutOfHullError):
        two_env_walk_rate(1.0, 2.0, 0.5, 0.5)


def test_closed_form_matches_numeric(g2):
    g1, g2_ = g2.log_means
    for c in np.linspace(g1, g2_, 41):
        closed = two_env_walk_rate(g1, g2_, 0.5, float(c))
        assert closed == pytest.approx(walk_rate(g2, float(c)), abs=1e-10)


def test_closed_form_asymmetric_weights():
    env = build_environment([(0.3, {2: 1.0}), (0.7, {5: 1.0})])
    g1, g2_ = env.log_means
    for c in np.linspace(g1 + 1e-6, g2_ - 1e-6, 31):
        closed = two_env_walk_rate(g1, g2_, 0.3, float(c))
        assert closed == pytest.approx(walk_rate(env, float(c)), abs=1e-10)


def test_transform_duality(g2, fig_law):
    for env in (g2, fig_law):
        lo, hi = env.log_mean_min, env.log_mean_max
        for c in np.linspace(lo + 1e-3, hi - 1e-3, 60):
            lam = tilt_parameter(env, float(c))
            value, _, _ = log_mgf(env, lam)
            assert value == pytest.approx(c * lam - walk_rate(env, float(c)), abs=1e-9)


def test_walk_rate_shape(g2):
    lbar = g2.mean_log_mean
    grid = np.linspace(g2.log_mean_min + 1e-6, g2.log_mean_max - 1e-6, 200)
    vals = np.array([walk_rate(g2, float(c)) for c in grid])
    assert vals.min() >= 0.0
    assert np.diff(vals, 2).min() >= -1e-9
    left = vals[grid <= lbar]
    right = vals[grid >= lbar]
    assert np.all(np.diff(left) <= 1e-12)
    assert np.all(np.diff(right) >= -1e-12)


def test_lower_rate_frozen_values(fig_law):
    r = lower_deviation_rate(fig_law, 1.1)
    assert r.take_off == pytest.approx(0.18162747993919764, abs=1e-6)
    assert r.rate == pytest.approx(0.20685894110554984, abs=1e-6)
    assert r.slope == pytest.approx(1.344131154255123, abs=1e-6)
    assert isinstance(r.rate, float) and isinstance(r.slope, float)
    # optimal value matches the hold-then-grow decomposition at the optimum
    v = fig_law.hold_cost * r.take_off + (1.0 - r.take_off) * walk_rate(fig_law, r.slope)
    assert r.rate == pytest.approx(v, abs=1e-9)
    assert r.c <= r.slope <= fig_law.mean_log_mean + 1e-12
    assert 0.0 <= r.take_off <= 1.0 - r.c / fig_law.mean_log_mean + 1e-12


def test_lower_rate_slope_consistency(fig_law):
    r = lower_deviation_rate(fig_law, 1.1)
    assert r.slope == pytest.approx(r.c / (1.0 - r.take_off), abs=1e-9)


def test_lower_rate_fixed_law_closed_form():
    # one environment, mean 2, single-offspring mass 1/2: the optimum holds
    # until growth at full speed exactly covers c
    env = build_environment([(1.0, {1: 0.5, 3: 0.5})])
    c = 0.5 * math.log(2.0)
    r = lower_deviation_rate(env, c)
    assert r.take_off == pytest.approx(0.5, abs=1e-12)
    assert r.slope == pytest.approx(math.log(2.0), abs=1e-12)
    assert r.rate == pytest.approx(0.5 * math.log(2.0), abs=1e-12)


@pytest.mark.parametrize("components, take_off", [
    # two components with one log-mean: a single walk atom
    ([(0.5, {1: 0.5, 3: 0.5}), (0.5, {2: 1.0})], None),
    # the {1: 1} component holds all of E p1: phi(lam) > -rho for every lam
    ([(0.3, {1: 1.0}), (0.7, {2: 0.5, 3: 0.5})], 0.0),
], ids=["single-atom", "all-hold-mass-at-L0"])
def test_lower_rate_edge_laws(components, take_off):
    env = build_environment(components)
    for c in (0.05, 0.3, 0.6):
        r = lower_deviation_rate(env, c)
        rate, t_c, slope = reference_lower_rate(env, c)
        assert r.take_off == pytest.approx(t_c if take_off is None else take_off, abs=1e-12)
        assert r.rate == pytest.approx(rate, abs=1e-12)
        assert r.slope == pytest.approx(slope, abs=1e-12)
        if take_off == 0.0:
            assert r.slope == c and r.rate == walk_rate(env, c)


def test_lower_rate_affine_below_take_off_slope(g2, fig_law):
    # below y*, every c shares one slope and chi(c) = rho + lam* c, phi(lam*) = -rho
    for env in (g2, fig_law):
        y = lower_deviation_rate(env, 0.01).slope
        cs = np.linspace(0.01, y, 12, endpoint=False)[1:]
        rs = [lower_deviation_rate(env, float(c)) for c in cs]
        assert all(r.slope == y and r.take_off > 0.0 for r in rs)
        lam = (rs[-1].rate - rs[0].rate) / (cs[-1] - cs[0])
        value, d1, _ = log_mgf(env, lam)
        assert value == pytest.approx(-env.hold_cost, abs=1e-11)
        assert d1 == pytest.approx(y, abs=1e-10)
        for c1, r1 in zip(cs, rs):
            for c2, r2 in zip(cs, rs):
                assert r1.rate - r2.rate == pytest.approx(lam * (c1 - c2), abs=1e-12)


@st.composite
def no_extinction_laws(draw):
    """One to three components on offspring 1..9, a {1: 1} component allowed."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.sets(st.integers(1, 9), min_size=1, max_size=3))
        mass = {k: draw(st.integers(1, 9)) for k in sorted(keys)}
        comps.append((draw(st.integers(1, 9)),
                      {k: m / sum(mass.values()) for k, m in mass.items()}))
    return build_environment([(w / sum(w for w, _ in comps), pmf) for w, pmf in comps])


@settings(max_examples=60, deadline=None)
@given(no_extinction_laws(), st.floats(0.02, 0.98))
def test_lower_rate_matches_bisection_reference(env, frac):
    c = frac * env.mean_log_mean
    assume(0.0 < c < env.mean_log_mean and env.mean_p1 > 0.0)
    r = lower_deviation_rate(env, c)
    rate, t_c, slope = reference_lower_rate(env, c)
    assert r.rate == pytest.approx(rate, abs=1e-10)
    assert r.take_off == pytest.approx(t_c, abs=1e-9)
    assert r.slope == pytest.approx(slope, rel=1e-8)


def test_lower_rate_no_hold_regime(no_hold):
    r = lower_deviation_rate(no_hold, 0.8)
    assert r.take_off == 0.0
    assert r.rate == pytest.approx(walk_rate(no_hold, 0.8), abs=1e-12)
    assert r.slope == 0.8


def test_lower_rate_errors(g2, subcrit):
    with pytest.raises(COutOfRangeError):
        lower_deviation_rate(g2, 0.0)
    with pytest.raises(COutOfRangeError):
        lower_deviation_rate(g2, g2.mean_log_mean)
    with pytest.raises(COutOfRangeError):
        lower_deviation_rate(g2, -0.3)
    with pytest.raises(NotStronglySupercriticalError):
        lower_deviation_rate(subcrit, 0.1)


def test_lower_rate_never_above_walk_rate(g2):
    for c in np.linspace(0.05, g2.mean_log_mean - 1e-3, 25):
        r = lower_deviation_rate(g2, float(c))
        psi = walk_rate(g2, float(c))
        assert r.rate <= psi + 1e-9
        if r.take_off == 0.0:
            assert r.rate == pytest.approx(psi, abs=1e-9)
        else:
            assert math.isinf(psi) or r.rate < psi - 1e-12


def test_lower_rate_grid_minimizer(fig_law):
    c = 1.1
    r = lower_deviation_rate(fig_law, c)
    rho = fig_law.hold_cost
    t_hi = 1.0 - c / fig_law.mean_log_mean
    ts = np.arange(0.0, t_hi, 1e-3)
    vals = [rho * t + (1.0 - t) * walk_rate(fig_law, c / (1.0 - t)) for t in ts]
    best = float(ts[int(np.argmin(vals))])
    assert abs(best - r.take_off) <= 2e-3
    assert min(vals) >= r.rate - 1e-9


def test_limit_profile_shape(fig_law):
    r = lower_deviation_rate(fig_law, 1.1)
    assert limit_profile(r, 0.0) == 0.0
    assert limit_profile(r, r.take_off) == pytest.approx(0.0, abs=1e-12)
    assert limit_profile(r, 1.0) == pytest.approx(1.1, abs=1e-12)
    mid = 0.5 * (1.0 + r.take_off)
    assert limit_profile(r, mid) == pytest.approx(0.55, abs=1e-12)
    t1, t2 = r.take_off + 0.1, r.take_off + 0.3
    slope = (limit_profile(r, t2) - limit_profile(r, t1)) / (t2 - t1)
    assert slope == pytest.approx(r.slope, rel=1e-9)


def test_limit_profile_domain(fig_law):
    r = lower_deviation_rate(fig_law, 1.1)
    with pytest.raises(TOutOfRangeError):
        limit_profile(r, -0.01)
    with pytest.raises(TOutOfRangeError):
        limit_profile(r, 1.01)
    with pytest.raises(TOutOfRangeError):   # NaN once returned nan
        limit_profile(r, math.nan)
    for bad in ([0.5, math.nan], [0.0, -0.01], [1.01, 0.5]):   # an array: any point
        with pytest.raises(TOutOfRangeError):
            limit_profile(r, np.array(bad))


def test_limit_profile_over_an_array_is_the_scalar_call(g2, fig_law):
    # point by point, bit for bit, and bit for bit the flat-then-linear
    # formula in Python floats; a float in gives a float out.  The event of
    # a lower c <= 0 holds throughout, take_off 1: it is 0 everywhere and
    # divides by nothing (a RuntimeWarning is an error in this suite)
    held = rare_event._event(g2, 8, 0.0, "lower", 1)
    for r in (lower_deviation_rate(fig_law, 1.1), lower_deviation_rate(g2, 0.4),
              lower_deviation_rate(g2, 0.05), held):
        t = np.concatenate([np.linspace(0.0, 1.0, 1001), [r.take_off, 0.0, 1.0]])
        scalar = [limit_profile(r, float(x)) for x in t]
        formula = [0.0 if x <= r.take_off else r.c * (x - r.take_off) / (1.0 - r.take_off)
                   for x in t.tolist()]
        assert all(type(v) is float for v in scalar)
        assert limit_profile(r, t).tobytes() == np.array(scalar).tobytes() \
            == np.array(formula).tobytes()
    assert not limit_profile(held, t).any()


def test_chernoff_trivial_cases(g2):
    lbar = g2.mean_log_mean
    assert chernoff_bound(g2, 0, 0.2, "lower") == 1.0
    for n in (1, 7):
        assert chernoff_bound(g2, n, lbar, "lower") == pytest.approx(1.0, abs=1e-12)
        assert chernoff_bound(g2, n, lbar, "upper") == pytest.approx(1.0, abs=1e-12)
    assert chernoff_bound(g2, 5, g2.log_mean_min - 0.5, "lower") == 0.0


def test_chernoff_side_mismatch(g2):
    lbar = g2.mean_log_mean
    with pytest.raises(SideMismatchError):
        chernoff_bound(g2, 5, lbar - 0.1, "upper")
    with pytest.raises(SideMismatchError):
        chernoff_bound(g2, 5, lbar + 0.1, "lower")
    with pytest.raises(SideMismatchError):
        chernoff_bound(g2, 5, 0.2, "sideways")
    with pytest.raises(COutOfRangeError):
        chernoff_bound(g2, -1, 0.2, "lower")


def test_chernoff_dominates_exact_tail(fig_law):
    g1, g2_ = fig_law.log_means
    n, c = 10, 1.1
    exact = sum(
        math.comb(n, j) * 0.5**n
        for j in range(n + 1)
        if n * g1 + j * (g2_ - g1) <= n * c + 1e-9
    )
    assert exact <= chernoff_bound(fig_law, n, c, "lower") + 1e-12
    up = 1.65
    exact_up = sum(
        math.comb(n, j) * 0.5**n
        for j in range(n + 1)
        if n * g1 + j * (g2_ - g1) >= n * up - 1e-9
    )
    assert exact_up <= chernoff_bound(fig_law, n, up, "upper") + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(0.02, 0.98))
def test_tilted_mean_matches_target_property(frac):
    env = g2_law()
    c = env.log_mean_min + frac * (env.log_mean_max - env.log_mean_min)
    lam = tilt_parameter(env, c)
    _, d1, _ = log_mgf(env, lam)
    assert d1 == pytest.approx(c, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.95))
def test_lower_rate_bounds_property(frac):
    env = two_mean_law()
    c = frac * env.mean_log_mean
    if c <= 0.0 or c >= env.mean_log_mean:
        return
    r = lower_deviation_rate(env, c)
    assert 0.0 <= r.take_off < 1.0
    assert r.rate >= 0.0
    assert c - 1e-12 <= r.slope <= env.mean_log_mean + 1e-9


NAN_C_CALLS = {
    "event_bound": lambda env: ratefn.event_bound(5, math.nan),
    "tilt_parameter": lambda env: tilt_parameter(env, math.nan),
    "walk_rate": lambda env: walk_rate(env, math.nan),
    "two_env_walk_rate": lambda env: two_env_walk_rate(0.0, 1.0, 0.5, math.nan),
    "lower_deviation_rate": lambda env: lower_deviation_rate(env, math.nan),
    "chernoff_bound": lambda env: chernoff_bound(env, 5, math.nan, "lower"),
}


@pytest.mark.parametrize("side", ["middle", "Lower", None])
def test_event_bound_refuses_a_side_other_than_lower_or_upper(side):
    # any side but "lower" once got the upper bound: event_bound(5, 0.4,
    # "middle") was e^2 less its slack
    with pytest.raises(InvalidArgumentError, match="side must be 'lower' or 'upper'"):
        ratefn.event_bound(5, 0.4, side)


@pytest.mark.parametrize("law", ["g2", "one_atom"])
@pytest.mark.parametrize("name", list(NAN_C_CALLS))
def test_nan_c_is_invalid_argument(name, law):
    # NaN compares False against every bound: it once came back as log 2 (a
    # clamp to the hull edge), inf or 0.0, or as an OutOfHull or COutOfRange
    env = g2_law() if law == "g2" else build_environment([(1, {2: 1})])
    with pytest.raises(InvalidArgumentError, match="c is not a number"):
        NAN_C_CALLS[name](env)
