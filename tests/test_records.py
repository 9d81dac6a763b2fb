import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import bpre
from bpre import (
    CellTreeConfig,
    EstimatorResult,
    Method,
    conditional_profile,
    conditional_trajectory,
    environment_from_dict,
    environment_to_dict,
    estimate_lower_tail,
    expected_count_identity,
    lower_deviation_rate,
    population_distribution,
    rate_curve,
    simulate_cell_tree,
    take_off_statistics,
    tilt,
)
from bpre import cli
from bpre.simulate import Proposal, SimConfig, run


def bpre_modules():
    return [importlib.import_module(f"bpre.{m.name}")
            for m in pkgutil.iter_modules(bpre.__path__)]


def test_no_bpre_class_is_a_dataclass():
    # each dataclass execs generated methods at import, on every CLI run
    classes = [obj for mod in bpre_modules() for obj in vars(mod).values()
               if inspect.isclass(obj) and obj.__module__.startswith("bpre")]
    assert len(classes) > 20
    assert [c.__name__ for c in classes if dataclasses.is_dataclass(c)] == []


def records(g2):
    cells = CellTreeConfig(n=3, law1=g2.components[0], law2=g2.components[1], c=0.4,
                           replicas=4)
    lower = estimate_lower_tail(g2, 6, 0.4, replicas=20, seed=1)
    tree = simulate_cell_tree(cells)
    return [
        lower_deviation_rate(g2, 0.4),
        lower,
        lower.two_phase,
        Proposal.naive(g2),
        population_distribution(g2, 3, cap=50),
        conditional_trajectory(g2, 6, 0.4),
        tilt(g2, 0.5),
        rate_curve(g2, 0.4, [6], replicas=20, seed=1)[0],
        take_off_statistics(g2, 6, 0.4, replicas=20, seed=1),
        conditional_profile(g2, 6, 0.4, replicas=20, seed=1),
        tree,
        expected_count_identity(cells, tree),
        cli._Ctx(out_dir=".", cfg_hash="0" * 64, workers=1),
        run(SimConfig(env=g2, n=4, seed=1)),
    ]


def test_record_fields_stay_read_only(g2):
    kinds = set()
    for rec in records(g2):
        kinds.add(type(rec).__name__)
        for name in type(rec)._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
    assert len(kinds) == 13   # tilt and Proposal.naive share one type


def test_records_build_by_keyword_and_position():
    fields = dict(estimate=0.5, stderr=0.1, ess=3.0, method=Method.TILT_ONLY, n=4, c=0.2,
                  replicas=10, seed=7)
    by_name = EstimatorResult(**fields)
    assert by_name == EstimatorResult(*fields.values())
    assert (by_name.zero_mass, by_name.tilt, by_name.hold_steps, by_name.normal_steps) == (
        False, None, 0, 0)
    assert repr(by_name).startswith("EstimatorResult(estimate=0.5, stderr=0.1,")
    naive = Proposal.naive(bpre.build_environment([(1.0, {2: 1.0})]))
    assert naive._fields == ("cum_weights", "step_log_lr", "lam", "stream")
    assert naive.lam is None and naive.stream == 0
    assert np.array_equal(naive.cum_weights, [1.0])
    assert np.array_equal(naive.step_log_lr, [math.log(2.0)])


def test_laws_equal_and_hash_by_identity(g2):
    # the population DP resumes its last call on the same law object
    twin = environment_from_dict(environment_to_dict(g2))
    assert g2 == g2 and twin != g2 and len({g2, twin}) == 2
    assert hash(g2) == object.__hash__(g2)
    for mine, theirs in zip(g2.components, twin.components):
        assert mine.pmf_dict() == theirs.pmf_dict()
        assert mine != theirs and hash(mine) == object.__hash__(mine)
