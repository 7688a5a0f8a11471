"""Property tests of the particle-addition table and the generators built on it.

Random connected graphs with up to five vertices, conductances in [0.5, 2],
site weights log-uniform on [0.05, 3] and up to three particles.  The rates of
``build_sip`` are compared with ``==`` against a brute-force assembly that
enumerates, indexes and applies every jump with plain tuples and a dict.  The
dense and sparse routes of ``symmetrized`` must agree bit for bit, a block
``dirichlet_form`` call must equal its one-column calls bit for bit, both
must reject a one-way perturbed generator, and the iterative bottom of the
spectrum must match the dense one.  The array
eigen-lift residual must match a pointwise one built from ``lift_F`` and
``open_generator_apply``, with the true drift and with a perturbed one.  Every
field of a ``bounds_report_rows`` row must equal, with ``==``, the sandwich
and linear bound computed inline from one gap solve per particle number.
"""

import dataclasses
import math
from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sipspectra import nonconservative, spectral
from sipspectra.configspace import enumerate_configs
from sipspectra.experiments import (
    CROSSOVER_EPS_MAX,
    _linear_bound,
    bounds_report_rows,
    quadratic_crossover,
    unit_walk_gap,
)
from sipspectra.generators import (
    CertificationError,
    _sip_rate,
    build_killed,
    build_sip,
    build_slow_fast,
    dirichlet_form,
    open_generator_apply,
)
from sipspectra.graphs import WeightedGraph, metrics
from sipspectra.intertwiners import adjointness_residual, consistency_residual
from sipspectra.spectral import bottom_eigenpairs, spectral_gap, spectrum, symmetrized


@st.composite
def _graphs(draw, max_n=5, min_n=2):
    n = draw(st.integers(min_n, max_n))
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
        F = np.random.default_rng(0).uniform(-1.0, 1.0, (L.size, 4))
        assert dirichlet_form(L, F).tolist() == [dirichlet_form(L, F[:, j]) for j in range(4)]
        if L.rates.nnz == 0:
            continue
        bad = dataclasses.replace(L, rates=L.rates.copy())
        bad.rates.data[data.draw(st.integers(0, L.rates.nnz - 1))] *= 1.5
        for dense in (True, False):
            with pytest.raises(CertificationError, match="asymmetry"):
                symmetrized(bad, dense)
        with pytest.raises(CertificationError, match="not reversible"):
            dirichlet_form(bad, F)


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


def _pointwise_lift_residual(g, omega, theta, rho, k, lam, psi):
    """The lift residual on the same grid, one occupation tuple at a time."""
    space, space_prev = enumerate_configs(g, k), enumerate_configs(g, k - 1)
    b_psi = nonconservative.apply_b(g, omega, theta, rho, k, psi, space, space_prev)
    F = nonconservative.lift_F(g, rho, psi, space)
    F_b = (nonconservative.lift_F(g, rho, b_psi, space_prev) if k >= 2
           else nonconservative.lift_F(g, rho, float(b_psi[0]), 0))
    grid = [tuple(row) for j in range(k + 3)
            for row in enumerate_configs(g, j).occupations.tolist()]
    rng = np.random.default_rng(5)
    grid += [tuple(int(v) for v in rng.multinomial(2 * k, np.ones(g.n) / g.n))
             for _ in range(3)]
    worst = max(abs(open_generator_apply(g, omega, theta, F, eta)
                    + lam * F(eta) - F_b(eta)) for eta in grid)
    return worst / max(abs(F(eta)) for eta in grid)


@given(_graphs(max_n=4), st.integers(1, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_array_lift_residual_matches_pointwise_oracle(g, k, data):
    sites = st.lists(st.floats(0.0, 2.0), min_size=g.n, max_size=g.n)
    omega = np.array(data.draw(sites.filter(lambda w: max(w) > 0.1)))
    theta = np.array(data.draw(sites))
    rho = data.draw(st.floats(0.1, 1.0))
    vals, vecs, _ = nonconservative.killed_eigenpairs(g, omega, k)
    i = data.draw(st.integers(0, len(vals) - 1))
    apply_b = nonconservative.apply_b
    for drift in (1.0, 1.0 + 1e-3):  # a wrong drift makes the residuals large
        with mock.patch.object(nonconservative, "apply_b",
                               lambda *args: drift * apply_b(*args)):
            array = nonconservative.eigen_lift_residual(
                g, omega, theta, rho, k, vals[i], vecs[:, i])
            pointwise = _pointwise_lift_residual(
                g, omega, theta, rho, k, vals[i], vecs[:, i])
        assert array == pytest.approx(pointwise, rel=1e-12, abs=1e-12)


def _inline_bounds(g, k_max, eps, tol=1e-8):
    """One bounds row as the sandwich criterion once computed it inline."""
    ge = g.with_alpha(eps * g.alpha)
    gap_rw = spectral_gap(build_sip(ge, 1))
    gap_sip = min(spectral_gap(build_sip(ge, k)) for k in range(2, k_max + 1))
    lower = min(1.0, metrics(ge).alpha_min) * gap_rw
    linear = _linear_bound(metrics(ge), ge.n)
    return {"gap_rw": gap_rw, "gap_sip": gap_sip, "sandwich_lower": lower,
            "linear_lower": linear,
            "sandwich_ok": lower - tol <= gap_sip <= gap_rw + tol,
            "linear_ok": gap_sip >= linear - tol}


@given(_graphs(max_n=4), st.integers(2, 3),
       st.lists(st.sampled_from((1.0, 0.3, 0.1, 0.01)), min_size=1, max_size=3))
@settings(max_examples=30, deadline=None)
def test_bounds_rows_equal_the_inline_oracle(g, k_max, eps_grid):
    rows = bounds_report_rows(g, k_max, eps_grid)
    assert [row.eps for row in rows] == eps_grid
    for row in rows:
        got = {"gap_rw": row.scan.gaps[0], "gap_sip": row.scan.gap_sip,
               "sandwich_lower": row.sandwich_lower,
               "linear_lower": row.linear_lower,
               "sandwich_ok": row.sandwich_ok, "linear_ok": row.linear_ok}
        assert got == _inline_bounds(g, k_max, row.eps)


def _coo_assemble(g, space, edge_rate):
    """Rates through COO -> CSR, as assembled before the skeleton memo."""
    occ, up, size = space.occupations, space.up, space.size
    xs, ys = np.nonzero(g.conductances > 0)
    rows = up[xs]
    rate = edge_rate(occ[rows, xs[:, None]], occ[rows, ys[:, None]],
                     g.alpha[ys][:, None], g.conductances[xs, ys][:, None])
    rows, cols = rows.astype(np.int32), up[ys].astype(np.int32)
    hot = rate > 0
    if not hot.all():
        rows, cols, rate = rows[hot], cols[hot], rate[hot]
    rates = sp.coo_matrix((rate.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(size, size)).tocsr()
    return rates, -np.asarray(rates.sum(axis=1)).ravel()


def _assert_bits(L, rates, diagonal):
    for got, want in [(getattr(L.rates, name), getattr(rates, name))
                      for name in ("indptr", "indices", "data")] + [(L.diagonal, diagonal)]:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(st.data(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_skeleton_assembly_equals_the_coo_oracle(data, k):
    g = data.draw(_graphs(min_n=3, max_n=7))
    other = data.draw(_graphs(min_n=g.n, max_n=g.n))
    omega = np.array([data.draw(st.sampled_from((0.0, 0.3, 1.7))) for _ in range(g.n)])
    own = enumerate_configs(g, k)
    sip, walk, interaction = (_coo_assemble(g, own, rate) for rate in (
        _sip_rate, lambda ex, ey, ay, c: c * ex * ay, lambda ex, ey, ay, c: c * ex * ey))
    build_sip(other, k)  # the other edge set's skeleton enters the memo first
    # g's edges on the other graph's index space, which indexes like its own
    for space in (enumerate_configs(other, k), own):
        _assert_bits(build_sip(g, k, space), *sip)
        _assert_bits(build_killed(g, omega, k, space), sip[0],
                     sip[1] - own.occupations @ omega)
        A, B = build_slow_fast(g, k, space)
        _assert_bits(A, *walk)
        _assert_bits(B, *interaction)  # B drops its zero rates
    # writing into one generator leaves the next build of its structure intact
    for L in (build_sip(g, k), B):
        L.rates.indices[:] = 0
        L.rates.indptr[:] = 0
        L.rates.data[:] = -1.0
    _assert_bits(build_sip(g, k), *sip)
    _assert_bits(build_slow_fast(g, k)[1], *interaction)


def _crossover_200_steps(g, gap_hat):
    """quadratic_crossover with every one of its 200 bisection steps taken."""
    met = metrics(g)
    a_min, a_max = met.alpha_min, met.alpha_max

    def margin(eps):
        low, high = eps * a_min / a_min, eps * a_max / a_min
        scaled = replace(met, alpha_min=low, alpha_max=high, alpha_ratio=low / high)
        return _linear_bound(scaled, g.n) - low**2 * gap_hat

    if margin(CROSSOVER_EPS_MAX) > 0:
        return None
    lo = CROSSOVER_EPS_MAX
    while margin(lo) <= 0:
        lo /= 2.0
        if lo < 1e-12:
            raise RuntimeError("no crossover above eps = 1e-12")
    a, b = lo, min(2 * lo, CROSSOVER_EPS_MAX)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if margin(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


@given(_graphs(max_n=7), st.floats(math.log(1e-9), math.log(1e3)))
@settings(max_examples=60, deadline=None)
def test_crossover_stops_at_the_fixed_point_of_its_bisection(g, log_factor):
    gap_hat = unit_walk_gap(g) * math.exp(log_factor)
    assert quadratic_crossover(g, gap_hat) == _crossover_200_steps(g, gap_hat)
