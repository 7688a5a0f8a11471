import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import nbinom

from sipspectra.configspace import enumerate_configs
from sipspectra.graphs import WeightedGraph, h_shape, path_graph
from sipspectra.measures import (
    log_mu_rows,
    log_partition,
    mu,
    negbin_tail_cutoff,
    varsigma_rows,
)


def single_site(alpha=1.0):
    return WeightedGraph(("a",), np.zeros((1, 1)), np.array([float(alpha)]))


def test_uniform_on_two_sites():
    g = path_graph(2)
    m = mu(g, enumerate_configs(g, 2))
    np.testing.assert_allclose(m.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)


def test_partition_ratio():
    # Z_{a,1}/Z_{a,2} = 2/(|a|+1); with |a| = 2 the ratio is 2/3
    g = path_graph(2)
    ratio = math.exp(log_partition(g, 1) - log_partition(g, 2))
    assert abs(ratio - 2 / 3) < 1e-14


def test_normalization_small_alpha():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    m = mu(g, enumerate_configs(g, 3))
    assert abs(m.weights.sum() - 1.0) < 1e-12


def test_negbin_tail_cutoff_certifies_the_tail():
    # the single-site law at density rho is negative binomial(alpha, 1/(1+rho))
    cutoff = negbin_tail_cutoff(1.0, 0.5, tol=1e-12)
    assert nbinom.sf(cutoff, 1.0, 1 / 1.5) < 1e-12


def test_varsigma():
    np.testing.assert_allclose(varsigma_rows(path_graph(3).alpha, [(3, 0, 0), (1, 0, 1)]),
                               [1 / 3, 1.0], rtol=1e-15)
    assert varsigma_rows(h_shape().alpha, (2, 0, 1, 1, 0, 1))[0] == pytest.approx(0.5)


def test_inner_product_basics():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    m = mu(g, enumerate_configs(g, 2))
    ones = np.ones(m.size)
    assert abs(m.inner(ones, ones) - 1.0) < 1e-14
    f = 3.5 * ones
    assert m.norm_sq(f - m.inner(f, ones)) < 1e-14
    with pytest.raises(ValueError):
        m.inner(np.ones(m.size + 1), ones)


def test_norm_decomposes_over_particle_removal():
    # |f|^2 at level k splits as a mixture over level k-1 with shifted weights
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    k = 2
    space_k = enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    m_k = mu(g, space_k)
    m_prev = mu(g, space_prev)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(space_k.size)
    lhs = m_k.norm_sq(f)
    rhs = 0.0
    for i in range(space_prev.size):
        xi = np.array(space_prev.config(i))
        shifted = g.alpha + xi
        site_w = shifted / shifted.sum()
        raised = np.tile(xi, (g.n, 1)) + np.eye(g.n, dtype=int)
        vals = f[space_k.rank_rows(raised)]
        rhs += m_prev.weights[i] * float(np.dot(site_w, vals**2))
    assert abs(lhs - rhs) < 1e-12


@given(st.floats(min_value=0.1, max_value=3.7), st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_pi_recursion_in_log_space(alpha_x, m):
    # pi_x(m+1)(m+1) = pi_x(m)(alpha_x + m), exactly as a log identity
    def log_pi(mm):
        return gammaln(alpha_x + mm) - gammaln(alpha_x) - gammaln(mm + 1.0)

    lhs = log_pi(m + 1) + math.log(m + 1)
    rhs = log_pi(m) + math.log(alpha_x + m)
    assert abs(lhs - rhs) < 1e-12


def test_detailed_balance_seed_identity():
    graphs = [path_graph(3, alpha=(0.5, 1.0, 2.0)), h_shape(alpha=0.3),
              path_graph(4, alpha=2.0)]
    for g in graphs:
        for k in (2, 3, 4):
            space = enumerate_configs(g, k)
            lw = log_mu_rows(g.alpha, space.occupations, k)
            worst = 0.0
            for i in range(space.size):
                eta = space.config(i)
                for x in range(g.n):
                    if eta[x] == 0:
                        continue
                    for y in range(g.n):
                        if y == x:
                            continue
                        moved = list(eta)
                        moved[x] -= 1
                        moved[y] += 1
                        j = space.index_of(tuple(moved))
                        lhs = math.exp(lw[i]) * eta[x] * (g.alpha[y] + eta[y])
                        rhs = (math.exp(lw[j]) * (eta[y] + 1)
                               * (g.alpha[x] + eta[x] - 1))
                        worst = max(worst, abs(lhs - rhs))
            assert worst < 1e-12


def test_scaling_keeps_probability():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    for eps in (1.0, 0.1, 0.01):
        m = mu(g.scaled_alpha(eps), enumerate_configs(g, 3))
        assert abs(m.weights.sum() - 1.0) < 1e-12
        assert np.all(m.weights > 0)
