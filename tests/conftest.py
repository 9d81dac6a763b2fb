import math

import numpy as np
import pytest

from bpre import (build_environment, log_mgf, population_distribution, simulate,
                  tilt_parameter, walk_rate)
from bpre.ratefn import walk_atoms


def g2_law():
    return build_environment([(0.5, {1: 0.5, 2: 0.5}), (0.5, {2: 0.5, 4: 0.5})])


def two_mean_law():
    # calibrated so the two log-means are 1 and 2 up to float rounding
    e = math.e
    comp1 = {1: 0.7, 6: 2.8 - e, 7: e - 2.5}
    comp2 = {1: 0.1, 8: 8.2 - e * e, 9: e * e - 7.3}
    return build_environment([(0.5, comp1), (0.5, comp2)])


def subcrit_law():
    return build_environment([(0.5, {0: 0.5, 1: 0.5}), (0.5, {1: 1.0})])


@pytest.fixture
def pool_per_block(monkeypatch):
    """One pool process per block, so that any workers > 1 run starts a pool."""
    monkeypatch.setattr(simulate, "POOL_STEPS", 1)


@pytest.fixture
def g2():
    return g2_law()


@pytest.fixture
def fig_law():
    return two_mean_law()


@pytest.fixture
def subcrit():
    return subcrit_law()


@pytest.fixture
def dirac2():
    return build_environment([(1.0, {2: 1.0})])


@pytest.fixture
def no_hold():
    # strongly supercritical with no single-offspring mass anywhere
    return build_environment([(0.5, {2: 1.0}), (0.5, {3: 1.0})])


def naive_sample(config, workers=1):
    """config's replicas under the environment law itself; an event's hit
    fraction is its naive Monte Carlo estimate."""
    return simulate.sample(config.env, config.n, config.z0,
                           simulate.Proposal.naive(config.env), config.seed,
                           config.replicas, workers)


def event_threshold(n: int, c: float) -> int:
    return int(math.floor(math.exp(c * n) + 1e-12))


def exact_lower(env, n, c, z0=1, cap=None):
    k = event_threshold(n, c)
    if k < z0:
        return 0.0
    if cap is None:
        cap = max(k, z0)
    return population_distribution(env, n, z0=z0, cap=cap).prob_le(k)


def exact_mean_take_off(env, n, c, pop_threshold, z0=1):
    """Conditional mean of tau/n given the lower event, by exact enumeration.

    Populations never shrink here, so tau > j exactly when z[j] is still at or
    below the threshold, and E[tau; event] telescopes over j.
    """
    k = event_threshold(n, c)
    if k < z0:
        return None
    den = population_distribution(env, n, z0=z0, cap=k).prob_le(k)
    if den <= 0.0:
        return None
    num = 0.0
    for j in range(n):
        dj = population_distribution(env, j, z0=z0, cap=max(pop_threshold, z0))
        for z in range(z0, pop_threshold + 1):
            pz = dj.prob_eq(z)
            if pz > 0.0:
                num += pz * population_distribution(env, n - j, z0=z, cap=k).prob_le(k)
    return num / den / n


def dense_kernel(env, cap):
    """The annealed one-generation kernel M = sum_i w_i T_i on 0..cap, as
    (cap + 1)^2 floats: row z of T_i is law i's pmf convolved z times."""
    m = np.zeros((cap + 1, cap + 1))
    for w, d in zip(env.weights, env.components):
        f = np.zeros(d.max_offspring + 1)
        f[list(d.support)] = d.probs
        power = np.ones(1)
        for row in m:
            row[: power.size] += w * power
            power = np.convolve(power, f)[: cap + 1]
    return m


def reference_lower_rate(env, c):
    """(rate, take_off, slope) of P(Z_n <= e^{cn}) by bisection over the hold
    fraction t, each step a tilt solve: v(t) = rho t + (1 - t) walk_rate(c/(1 - t))
    is convex with v'(t) = rho + phi(lam(c/(1 - t))), so the sign of v' pins
    the minimizer to 1e-12.  Needs 0 < c < mean log-mean and mean_p1 > 0.
    """
    rho, lbar = env.hold_cost, env.mean_log_mean
    atoms = walk_atoms(env)
    t_hi = 1.0 - c / lbar
    if len(atoms) == 1:
        return rho * t_hi, t_hi, lbar
    t_lo = 1.0 - c / atoms[0][0] if c < atoms[0][0] else 0.0

    def dv(t):
        return rho + log_mgf(env, tilt_parameter(env, c / (1.0 - t)))[0]

    if t_lo == 0.0 and dv(min(1e-13, 0.5 * t_hi)) >= 0.0:
        t_c = 0.0
    else:
        lo, hi = t_lo, t_hi
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if hi - lo <= 1e-12:
                break
            if dv(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        t_c = 0.5 * (lo + hi)
    slope = c / (1.0 - t_c)
    return rho * t_c + (1.0 - t_c) * walk_rate(env, slope), t_c, slope
