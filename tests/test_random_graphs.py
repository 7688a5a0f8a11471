"""Property tests of the particle-addition table and the generators built on it.

Random connected graphs with up to five vertices, conductances in [0.5, 2],
site weights log-uniform on [0.05, 3] and up to three particles.  The rates of
``build_sip`` are compared with ``==`` against a brute-force assembly that
enumerates, indexes and applies every jump with plain tuples and a dict.  The
dense and sparse routes of ``symmetrized`` must agree bit for bit, and the
iterative bottom of the spectrum must match the dense one.
"""

import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipspectra import spectral
from sipspectra.configspace import enumerate_configs
from sipspectra.generators import CertificationError, build_killed, build_sip
from sipspectra.graphs import WeightedGraph
from sipspectra.intertwiners import adjointness_residual, consistency_residual
from sipspectra.spectral import bottom_eigenpairs, spectral_gap, spectrum, symmetrized


@st.composite
def _graphs(draw):
    n = draw(st.integers(2, 5))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # spanning tree
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())}
    c = np.zeros((n, n))
    for u, v in sorted(edges):
        c[u, v] = c[v, u] = draw(st.floats(0.5, 2.0))
    log_alpha = [draw(st.floats(math.log(0.05), math.log(3.0))) for _ in range(n)]
    return WeightedGraph(tuple(f"v{i}" for i in range(n)), c, np.exp(log_alpha))


def _reference_rates(g, k):
    states = sorted(s for s in product(range(k + 1), repeat=g.n) if sum(s) == k)
    index = {s: i for i, s in enumerate(states)}
    dense = np.zeros((len(states), len(states)))
    for i, eta in enumerate(states):
        for x, y, c in g.directed_edges:
            if eta[x] == 0:
                continue
            zeta = list(eta)
            zeta[x] -= 1
            zeta[y] += 1
            dense[i, index[tuple(zeta)]] += c * eta[x] * (g.alpha[y] + eta[y])
    return states, dense


@given(_graphs(), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_addition_table_and_generator_on_random_graphs(g, k):
    space = enumerate_configs(g, k)
    lower = enumerate_configs(g, k - 1).occupations
    assert space.up.shape == (g.n, lower.shape[0])
    for x in range(g.n):
        for i, row in enumerate(lower):
            raised = row.copy()
            raised[x] += 1
            assert space.up[x, i] == space.index_of(raised)

    states, dense = _reference_rates(g, k)
    assert [space.config(i) for i in range(space.size)] == states
    L = build_sip(g, k, space)
    assert np.array_equal(L.rates.toarray(), dense)
    assert L.row_sum_residual() < 1e-12
    assert L.detailed_balance_residual() < 1e-12
    assert adjointness_residual(g, k) < 1e-12
    if k >= 2:
        assert consistency_residual(g, k) < 1e-11
        gap_prev = spectrum(build_sip(g, k - 1)).gap
        assert spectrum(L).gap <= gap_prev + 1e-10 * max(gap_prev, 1.0)


@given(_graphs(), st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_dense_and_sparse_symmetrization_agree_on_random_graphs(g, k, data):
    omega = np.array([data.draw(st.sampled_from((0.0, 0.3, 1.7))) for _ in range(g.n)])
    for L in (build_sip(g, k), build_killed(g, omega, k)):
        S, resid = symmetrized(L, True)
        S_sparse, resid_sparse = symmetrized(L, False)
        assert np.array_equal(S, S_sparse.toarray())
        assert resid == resid_sparse
        if L.rates.nnz == 0:
            continue
        bad = dataclasses.replace(L, rates=L.rates.copy())
        bad.rates.data[data.draw(st.integers(0, L.rates.nnz - 1))] *= 1.5
        for dense in (True, False):
            with pytest.raises(CertificationError, match="asymmetry"):
                symmetrized(bad, dense)


@given(_graphs(), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_iterative_bottom_matches_dense_on_random_graphs(g, k, data):
    omega = np.array([data.draw(st.sampled_from((0.0, 0.3, 1.7))) for _ in range(g.n)])
    for L in (build_sip(g, k), build_killed(g, omega, k)):
        dense_gap = spectral_gap(L)
        dense_vals, _ = bottom_eigenpairs(L, 2)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(spectral, "BOTTOM_DENSE_CAP", 0)
            iter_gap = spectral_gap(L)
            iter_vals, _ = bottom_eigenpairs(L, 2)
        assert abs(iter_gap - dense_gap) <= 1e-10 * max(1.0, abs(dense_gap))
        assert np.all(np.abs(iter_vals - dense_vals)
                      <= 1e-10 * np.maximum(1.0, np.abs(dense_vals)))
