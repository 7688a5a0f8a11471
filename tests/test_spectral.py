import dataclasses
import math

import numpy as np
import pytest

from sipspectra import spectral
from sipspectra.configspace import SpaceCapExceeded
from sipspectra.generators import CertificationError, build_killed, build_sip
from sipspectra.graphs import complete, h_shape, path_graph, torus
from sipspectra.metastable import build_chain, lambda_km
from sipspectra.nonconservative import killed_eigenpairs
from sipspectra.spectral import (
    bottom_eigenpairs,
    expm_action,
    gap_sip,
    rayleigh,
    spectral_gap,
    spectrum,
    symmetrized,
)


def test_two_site_spectrum():
    s = spectrum(build_sip(path_graph(2), 2))
    np.testing.assert_allclose(s.eigenvalues, [0.0, 2.0, 6.0], atol=1e-12)
    assert s.gap == pytest.approx(2.0)
    groups = s.groups()
    assert [mult for _, mult in groups] == [1, 1, 1]
    np.testing.assert_allclose([v for v, _ in groups], [0.0, 2.0, 6.0], atol=1e-12)


def test_killed_two_state_spectrum():
    s = spectrum(build_killed(path_graph(2), (1.0, 0.0), 1))
    golden = np.array([(3 - math.sqrt(5)) / 2, (3 + math.sqrt(5)) / 2])
    np.testing.assert_allclose(s.eigenvalues, golden, atol=1e-12)
    assert s.gap == pytest.approx(golden[0])
    assert np.all(s.eigenvalues > 0)


def test_spectrum_well_formed_check_can_fail():
    cons = spectrum(build_sip(path_graph(3, alpha=(0.5, 1.0, 2.0)), 2))
    killed = spectrum(build_killed(path_graph(2), (1.0, 0.0), 1))
    assert cons.well_formed() and killed.well_formed()
    ev = cons.eigenvalues
    for bad in (ev[::-1],                               # out of order
                ev + 1e-3,                              # bottom shifted off zero
                np.concatenate([ev[:1], ev[2:3], ev[1:2], ev[3:]])):  # one swap
        assert not dataclasses.replace(cons, eigenvalues=bad).well_formed()
    # a killed spectrum must sit strictly above zero
    shifted = killed.eigenvalues - killed.eigenvalues[0]
    assert not dataclasses.replace(killed, eigenvalues=shifted).well_formed()


@pytest.mark.parametrize("n", [4, 5, 8, 12])
def test_torus_walk_gap_fourier(n):
    # discrete Fourier modes diagonalize the cycle walk
    s = spectrum(build_sip(torus(n, 1), 1))
    expected = sorted(2.0 * (1.0 - math.cos(2.0 * math.pi * m / n))
                      for m in range(n))
    np.testing.assert_allclose(s.eigenvalues, expected, atol=1e-10)
    assert s.gap == pytest.approx(2.0 * (1.0 - math.cos(2.0 * math.pi / n)))


def test_symmetrization_residual_certificate():
    for g in (path_graph(3, alpha=(0.5, 1.0, 2.0)), h_shape(alpha=0.3)):
        for k in (2, 3):
            for dense in (True, False):
                _, resid = symmetrized(build_sip(g, k), dense)
                assert resid < 1e-12


def test_dense_symmetrization_matches_sparse_off_a_symmetric_pattern():
    L = build_sip(path_graph(3), 2)
    rates = L.rates.tolil()
    rates[0, 5] = 1e-12  # one-way rate, within the asymmetry tolerance
    L = dataclasses.replace(L, rates=rates.tocsr())
    S, resid = symmetrized(L, True)
    S_sparse, resid_sparse = symmetrized(L, False)
    assert 0.0 < resid == resid_sparse
    assert np.array_equal(S, S_sparse.toarray())
    assert S[0, 5] == S[5, 0] != 0.0


def test_one_symmetrization_per_eigensolve(monkeypatch):
    routes = []

    def counting(L, dense):
        routes.append(dense)
        return symmetrized(L, dense)

    monkeypatch.setattr(spectral, "symmetrized", counting)
    L = build_sip(path_graph(4), 2)  # 10 states
    chain = build_chain(path_graph(5), 3)
    block = chain.blocks[2].local.size
    requests = [(L.size, lambda: spectrum(L)),
                (L.size, lambda: spectral_gap(L)),
                (L.size, lambda: bottom_eigenpairs(L)),
                (block, lambda: lambda_km(chain, 2))]
    for size, request in requests:
        for cap, dense in ((size, True), (size - 1, False)):
            monkeypatch.setattr(spectral, "DENSE_CAP", cap)
            monkeypatch.setattr(spectral, "BOTTOM_DENSE_CAP", cap)
            routes.clear()
            request()
            assert routes == [dense]
    # every eigenpair is asked for, so the route is dense below any cap
    monkeypatch.setattr(spectral, "BOTTOM_DENSE_CAP", 0)
    routes.clear()
    killed_eigenpairs(path_graph(4), (1.0, 0.0, 0.0, 0.5), 2)
    assert routes == [True]


def test_all_but_one_eigenpairs_are_dense_at_any_size(monkeypatch):
    monkeypatch.setattr(spectral, "BOTTOM_DENSE_CAP", 0)
    L = build_killed(path_graph(4), (1.0, 0.0, 0.0, 0.5), 2)
    reference = spectrum(L).eigenvalues
    for count in (L.size - 1, L.size):
        vals, vecs = bottom_eigenpairs(L, count)
        assert vecs.shape == (L.size, count)
        np.testing.assert_allclose(vals, reference[:count], rtol=1e-12)
        assert np.abs(-L.as_dense() @ vecs - vecs * vals).max() < 1e-12


def test_spectrum_above_the_iterative_cap_is_a_budget_error(monkeypatch):
    L = build_sip(path_graph(3), 2)
    monkeypatch.setattr(spectral, "ITERATIVE_CAP", L.size - 1)
    with pytest.raises(SpaceCapExceeded, match="iterative-solver cap"):
        spectrum(L)


def test_asymmetry_between_the_old_and_new_tolerance_is_rejected(monkeypatch):
    L = build_sip(path_graph(3, alpha=(0.5, 1.0, 2.0)), 2)
    bad = dataclasses.replace(L, rates=L.rates.copy())
    bad.rates.data[np.argmax(bad.rates.data)] *= 1.0 + 5e-9  # one direction only
    for dense in (True, False):
        with pytest.raises(CertificationError, match="asymmetry"):
            symmetrized(bad, dense)
        with monkeypatch.context() as m:
            m.setattr(spectral, "ASYMMETRY_TOL", 1e-8)
            _, resid = symmetrized(bad, dense)
        assert 1e-10 < resid < 1e-8


def test_conservative_spectrum_without_zero_fails_its_certificate():
    L = build_sip(path_graph(3), 2)
    L.diagonal = L.diagonal - 1.0  # not a generator: rows no longer sum to zero
    with pytest.raises(CertificationError, match="no zero eigenvalue"):
        spectrum(L)


def test_iterative_matches_dense(monkeypatch):
    g = torus(5, 1, alpha=0.4)
    L = build_sip(g, 3)
    dense_gap = spectrum(L).gap
    monkeypatch.setattr(spectral, "BOTTOM_DENSE_CAP", 3)
    iter_gap = spectral_gap(L)
    assert abs(dense_gap - iter_gap) < 1e-10 * max(dense_gap, 1.0)


def test_gap_sip_scan():
    scan = gap_sip(path_graph(3), 4)
    assert scan.gaps[0] == pytest.approx(1.0)  # walk spectrum {0, 1, 3}
    assert scan.monotone
    assert scan.gap_sip == pytest.approx(min(scan.gaps[1:]))
    # log-concave weights saturate the one-particle identity
    for gk in scan.gaps[1:]:
        assert abs(gk - scan.gaps[0]) < 1e-8


def test_gap_scaling_in_alpha():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    base = spectral_gap(build_sip(g, 1))
    for eps in (1.0, 0.1, 0.01):
        scaled = spectral_gap(build_sip(g.scaled_alpha(eps), 1))
        assert abs(scaled - eps * base) < 1e-10 * max(base, 1.0)


def test_rayleigh_quotient():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    L = build_sip(g, 2)
    vals, vecs = bottom_eigenpairs(L, 2)
    gap = spectrum(L).gap
    assert rayleigh(L, vecs[:, 1]) == pytest.approx(gap, abs=1e-9)
    with pytest.raises(ValueError):
        rayleigh(L, np.ones(L.size))
    # indicator on the two-state symmetric chain: E = 1/2, Var = 1/4
    L2 = build_sip(path_graph(2), 1)
    assert rayleigh(L2, np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_rayleigh_dominates_gap_and_descent_approaches_it():
    g = path_graph(3)
    L = build_sip(g, 2)
    gap = spectrum(L).gap
    rng = np.random.default_rng(7)
    best = math.inf
    f = rng.standard_normal(L.size)
    for _ in range(100):
        quotient = rayleigh(L, f)
        assert quotient >= gap - 1e-9
        best = min(best, quotient)
        # coordinate-descent refinement toward the minimizer
        for _ in range(50):
            i = rng.integers(L.size)
            for step in (-0.1, 0.1):
                trial = f.copy()
                trial[i] += step
                if trial.std() > 0 and rayleigh(L, trial) < rayleigh(L, f):
                    f = trial
        f = rng.standard_normal(L.size) if rng.uniform() < 0.3 else f
    assert best < gap * 1.05


def test_expm_action_constant_and_closed_form():
    L = build_sip(path_graph(2), 1)
    ones = np.ones(2)
    np.testing.assert_allclose(expm_action(L, 3.0, ones), ones, atol=1e-12)
    f = np.array([1.0, 0.0])
    for t in (0.5, 2.0, 20.0):
        got = expm_action(L, t, f)
        exact = np.array([(1 + math.exp(-2 * t)) / 2, (1 - math.exp(-2 * t)) / 2])
        assert np.abs(got - exact).max() < 1e-8


def test_expm_action_killed_contraction():
    L = build_killed(path_graph(2), (1.0, 0.0), 2)
    ones = np.ones(L.size)
    previous = 1.0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        current = float(np.abs(expm_action(L, t, ones)).max())
        assert current <= previous + 1e-12
        previous = current


def test_expm_action_batch_matches_columns():
    L = build_sip(path_graph(3), 2)
    rng = np.random.default_rng(8)
    batch = rng.standard_normal((L.size, 4))
    joint = expm_action(L, 0.7, batch)
    for j in range(4):
        np.testing.assert_allclose(joint[:, j], expm_action(L, 0.7, batch[:, j]),
                                   atol=1e-12)


def test_lower_bound_certificate_on_suite():
    # explicit graph-feature lower bound holds on every instance
    from sipspectra.experiments import explicit_lower_bound
    for g in (path_graph(3, alpha=0.2), torus(4, 1, alpha=0.05),
              h_shape(alpha=0.5), complete(3, alpha=(0.3, 1.0, 2.0))):
        scan = gap_sip(g, 4)
        assert scan.gap_sip >= explicit_lower_bound(g) - 1e-8


def test_gap_monotone_in_particle_number_across_suite():
    for g in (path_graph(4, alpha=0.2), torus(5, 1, alpha=(0.3, 1.0, 0.5, 2.0, 0.7)),
              h_shape(alpha=0.4), complete(4, alpha=0.6)):
        scan = gap_sip(g, 4)
        assert scan.monotone
