import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpre import (
    DuplicateKeyError,
    InvalidArgumentError,
    MassNotOneError,
    NegativeProbError,
    WeightsNotOneError,
    ZeroMeanComponentError,
    build_environment,
    build_offspring,
    environment_from_dict,
    environment_to_dict,
    estimate_lower_tail,
    population_distribution,
)
from bpre.envmodel import EnvironmentLaw, OffspringDistribution, reject_duplicate_keys


def to_json(env):
    return json.dumps(environment_to_dict(env), indent=2)


def from_json(text):
    return environment_from_dict(json.loads(text, object_pairs_hook=reject_duplicate_keys))


def test_offspring_two_point():
    d = build_offspring({1: 0.5, 2: 0.5})
    assert d.mean == pytest.approx(1.5, abs=1e-15)
    assert d.second_moment == pytest.approx(2.5, abs=1e-15)
    assert d.variance == pytest.approx(0.25, abs=1e-15)
    assert d.p0 == 0.0
    assert d.p1 == 0.5
    assert d.support == (1, 2)


def test_offspring_dirac():
    d = build_offspring({2: 1.0})
    assert d.mean == 2.0
    assert d.p1 == 0.0
    assert d.min_offspring == d.max_offspring == 2


def test_offspring_subcritical_component():
    d = build_offspring({0: 0.5, 1: 0.5})
    assert d.mean == pytest.approx(0.5)
    assert d.p0 == 0.5
    assert d.prob(3) == 0.0


def test_offspring_pairs_sorted():
    d = build_offspring([(4, 0.25), (1, 0.75)])
    assert d.support == (1, 4)
    assert d.probs == (0.75, 0.25)
    assert d.pmf_dict() == {1: 0.75, 4: 0.25}


def test_offspring_renormalizes_tiny_drift():
    d = build_offspring({1: 0.5, 2: 0.5 + 5e-10})
    assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "pmf, err",
    [
        ({1: -0.1, 2: 1.1}, NegativeProbError),
        ({-1: 0.5, 1: 0.5}, NegativeProbError),
        ([(1, 0.5), (1, 0.5)], DuplicateKeyError),
        ({1: 0.7}, MassNotOneError),
        ({}, MassNotOneError),
        # a NaN mass once failed an internal assert, a boolean was read as 1.0
        # and the count 1.5 quietly became 1
        ({1: math.nan, 2: 1.0}, InvalidArgumentError),
        ({1: True}, InvalidArgumentError),
        ({1: 1.0, 2: False}, InvalidArgumentError),
        ({1: "half", 2: 0.5}, InvalidArgumentError),
        ({1.5: 1.0}, InvalidArgumentError),
        ({True: 1.0}, InvalidArgumentError),
        ({"two": 1.0}, InvalidArgumentError),
        ({None: 1.0}, InvalidArgumentError),
    ],
    ids=["neg-prob", "neg-count", "dup-key", "short-mass", "empty", "nan-prob",
         "true-prob", "false-prob", "text-prob", "half-count", "bool-count",
         "text-count", "none-count"],
)
def test_offspring_rejects(pmf, err):
    with pytest.raises(err):
        build_offspring(pmf)


def test_offspring_accepts_whole_counts_in_any_form():
    d = build_offspring([(1.0, 0.5), (np.int64(2), 0.25), ("4", np.float64(0.25))])
    assert d.support == (1, 2, 4) and d.probs == (0.5, 0.25, 0.25)


def test_constructors_derive_their_fields(g2):
    d = OffspringDistribution((0, 1, 3), (0.25, 0.25, 0.5))
    assert (d.mean, d.second_moment, d.p0, d.p1) == (1.75, 4.75, 0.25, 0.25)
    assert d.variance == pytest.approx(4.75 - 1.75**2, abs=1e-15)
    env = EnvironmentLaw(g2.weights, g2.components)
    for name in ("log_means", "mean_log_mean", "mean_p1", "log_mean_min",
                 "log_mean_max", "strongly_supercritical", "max_offspring"):
        assert getattr(env, name) == getattr(g2, name), name
    assert env.max_offspring == 4
    assert env.cum_weights.tolist() == [0.5, 1.0]


def test_g2_summary_stats(g2):
    assert g2.k == 2
    assert g2.log_means[0] == pytest.approx(math.log(1.5), abs=1e-15)
    assert g2.log_means[1] == pytest.approx(math.log(3.0), abs=1e-15)
    lbar = 0.5 * (math.log(1.5) + math.log(3.0))
    assert g2.mean_log_mean == pytest.approx(lbar, abs=1e-15)
    assert g2.mean_p1 == pytest.approx(0.25, abs=1e-15)
    assert g2.hold_cost == pytest.approx(math.log(4.0), abs=1e-15)
    assert g2.strongly_supercritical


def test_single_env_reduces_to_fixed_law():
    env = build_environment([(1.0, {1: 0.7, 2: 0.3})])
    assert env.mean_log_mean == pytest.approx(math.log(1.3), abs=1e-15)
    assert env.mean_p1 == pytest.approx(0.7)
    assert env.log_mean_min == env.log_mean_max == env.mean_log_mean


def test_subcrit_flags(subcrit):
    assert not subcrit.strongly_supercritical
    assert subcrit.mean_log_mean < 0.0


def test_no_hold_law(no_hold):
    assert no_hold.mean_p1 == 0.0
    assert math.isinf(no_hold.hold_cost)
    assert no_hold.strongly_supercritical


def test_zero_mass_counts_are_dropped():
    d = build_offspring({0: 0.0, 1: 0.5, 2: 0.5, 5: 0.0})
    assert d.support == (1, 2) and d.probs == (0.5, 0.5)
    assert (d.p0, d.min_offspring, d.max_offspring) == (0.0, 1, 2)
    env = build_environment([(0.5, {0: 0.0, 1: 0.5, 2: 0.5}), (0.5, {2: 0.5, 4: 0.5})])
    assert env.strongly_supercritical and env.max_offspring == 4
    with pytest.raises(DuplicateKeyError):
        build_offspring([(1, 1.0), (1, 0.0)])
    with pytest.raises(NegativeProbError):
        build_offspring({-1: 0.0, 1: 1.0})


pmfs = st.lists(st.tuples(st.integers(1, 6), st.floats(0.05, 1.0)),
                min_size=1, max_size=3, unique_by=lambda t: t[0])


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(pmfs, st.integers(0, 1), st.integers(1, 3)), min_size=1, max_size=2),
       st.booleans())
def test_zero_mass_counts_change_nothing(laws, shrink):
    # zero-mass counts below and above a support describe the same law:
    # support, wire form, exact pmf, the error bound (0 when p0 = 0) and
    # a seeded estimate all agree with the law written without them
    plain, padded = [], []
    for pairs, low, high in laws:
        total = math.fsum(p for _, p in pairs)
        pmf = {k: p / total for k, p in pairs}
        if shrink:   # give the first law mass at 0, so it can shrink
            shrink, pmf = False, {0: 0.5, **{k: p / 2 for k, p in pmf.items()}}
        zeros = {k: 0.0 for k in range(low if 0 not in pmf else 0, min(pmf))}
        zeros.update({max(pmf) + j: 0.0 for j in range(1, high + 1)})
        plain.append((1.0 / len(laws), pmf))
        padded.append((1.0 / len(laws), {**zeros, **pmf}))
    a, b = build_environment(plain), build_environment(padded)
    assert [d.support for d in a.components] == [d.support for d in b.components]
    assert environment_to_dict(a) == environment_to_dict(b)
    assert b.strongly_supercritical == all(d.min_offspring >= 1 for d in b.components)
    da, db = (population_distribution(env, 4, cap=60) for env in (a, b))
    assert np.array_equal(da.probs, db.probs) and da.overflow == db.overflow
    for k in (5, 60):
        assert da.le_error_bound(k) == db.le_error_bound(k)
        if b.strongly_supercritical:
            assert db.le_error_bound(k) == 0.0
    if b.strongly_supercritical and b.mean_log_mean > 0.0:
        c = b.mean_log_mean / 2
        assert (estimate_lower_tail(a, 5, c, replicas=64, seed=3)
                == estimate_lower_tail(b, 5, c, replicas=64, seed=3))


def test_hull_ordering(g2):
    assert g2.log_mean_min < g2.mean_log_mean < g2.log_mean_max


@pytest.mark.parametrize(
    "entries, err",
    [
        ([], WeightsNotOneError),
        ([(0.6, {1: 1.0}), (0.6, {2: 1.0})], WeightsNotOneError),
        ([(0.0, {1: 1.0}), (1.0, {2: 1.0})], WeightsNotOneError),
        ([(1.0, {0: 1.0})], ZeroMeanComponentError),
        # a NaN weight once built a law whose rates were all inf and nan
        ([(math.nan, {1: 1.0})], InvalidArgumentError),
        ([(True, {1: 1.0})], InvalidArgumentError),
        ([("heavy", {1: 1.0})], InvalidArgumentError),
        ([(None, {1: 1.0})], InvalidArgumentError),
    ],
    ids=["empty", "bad-sum", "zero-weight", "zero-mean", "nan-weight", "true-weight",
         "text-weight", "none-weight"],
)
def test_environment_rejects(entries, err):
    with pytest.raises(err):
        build_environment(entries)


def test_round_trip_exact(g2):
    again = environment_from_dict(environment_to_dict(g2))
    assert again.weights == g2.weights
    assert again.log_means == g2.log_means
    assert again.mean_log_mean == g2.mean_log_mean
    for a, b in zip(again.components, g2.components):
        assert a.support == b.support
        assert a.probs == b.probs


def test_json_round_trip(fig_law):
    again = from_json(to_json(fig_law))
    assert again.mean_log_mean == fig_law.mean_log_mean
    assert again.mean_p1 == fig_law.mean_p1


@pytest.mark.parametrize("pmf", ['{"1": 0.3, "1": 0.5, "2": 0.5}',
                                 '{"1": 0.5, "01": 0.2, "2": 0.5}'],
                         ids=["same-text", "same-count"])
def test_json_rejects_duplicate_pmf_keys(pmf):
    with pytest.raises(DuplicateKeyError):
        from_json('{"environments": [{"weight": 1.0, "pmf": %s}]}' % pmf)


def test_json_schema_shape(g2):
    data = json.loads(to_json(g2))
    assert list(data) == ["environments"]
    entry = data["environments"][0]
    assert set(entry) == {"weight", "pmf"}
    assert all(key == str(int(key)) for key in entry["pmf"])


def test_from_dict_requires_environments_key():
    with pytest.raises(MassNotOneError):
        environment_from_dict({})


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.floats(0.01, 1.0)),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    )
)
def test_offspring_moments_consistent(pairs):
    total = math.fsum(p for _, p in pairs)
    pmf = {k: p / total for k, p in pairs}
    d = build_offspring(pmf)
    assert d.mean == pytest.approx(sum(k * p for k, p in pmf.items()), abs=1e-12)
    assert 0.0 <= d.p1 <= 1.0
    assert d.variance >= -1e-12


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.0, 1.0))
def test_mean_p1_is_mixture_average(q, p1a):
    comp_a = {1: p1a, 2: 1.0 - p1a} if p1a < 1.0 else {1: 1.0}
    env = build_environment([(q, comp_a), (1.0 - q, {2: 0.5, 3: 0.5})])
    assert env.mean_p1 == pytest.approx(q * p1a, abs=1e-12)
    assert 0.0 <= env.mean_p1 <= 1.0
    assert env.log_mean_min <= env.mean_log_mean <= env.log_mean_max
