import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpre import (
    DuplicateKeyError,
    MassNotOneError,
    NegativeProbError,
    WeightsNotOneError,
    ZeroMeanComponentError,
    build_environment,
    build_offspring,
    environment_from_dict,
    environment_from_json,
    environment_to_dict,
    environment_to_json,
)


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
    ],
    ids=["neg-prob", "neg-count", "dup-key", "short-mass", "empty"],
)
def test_offspring_rejects(pmf, err):
    with pytest.raises(err):
        build_offspring(pmf)


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


def test_hull_ordering(g2):
    assert g2.log_mean_min < g2.mean_log_mean < g2.log_mean_max


@pytest.mark.parametrize(
    "entries, err",
    [
        ([], WeightsNotOneError),
        ([(0.6, {1: 1.0}), (0.6, {2: 1.0})], WeightsNotOneError),
        ([(0.0, {1: 1.0}), (1.0, {2: 1.0})], WeightsNotOneError),
        ([(1.0, {0: 1.0})], ZeroMeanComponentError),
    ],
    ids=["empty", "bad-sum", "zero-weight", "zero-mean"],
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
    again = environment_from_json(environment_to_json(fig_law))
    assert again.mean_log_mean == fig_law.mean_log_mean
    assert again.mean_p1 == fig_law.mean_p1


@pytest.mark.parametrize("pmf", ['{"1": 0.3, "1": 0.5, "2": 0.5}',
                                 '{"1": 0.5, "01": 0.2, "2": 0.5}'],
                         ids=["same-text", "same-count"])
def test_json_rejects_duplicate_pmf_keys(pmf):
    with pytest.raises(DuplicateKeyError):
        environment_from_json('{"environments": [{"weight": 1.0, "pmf": %s}]}' % pmf)


def test_json_schema_shape(g2):
    data = json.loads(environment_to_json(g2))
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
