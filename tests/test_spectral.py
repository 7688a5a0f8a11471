import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse

from sipspectra import spectral
from sipspectra.configspace import SpaceCapExceeded
from sipspectra.experiments import bounds_report_rows
from sipspectra.generators import CertificationError, build_killed, build_sip, dirichlet_form
from sipspectra.graphs import complete, h_shape, path_graph, torus
from sipspectra.metastable import build_chain, lambda_km
from sipspectra.nonconservative import killed_eigenpairs
from sipspectra.spectral import (
    bottom_eigenpairs,
    expm_action,
    gap_and_semigroup,
    gap_sip,
    spectral_gap,
    spectrum,
    symmetrized,
)


def test_two_site_spectrum():
    s = spectrum(build_sip(path_graph(2), 2))
    np.testing.assert_allclose(s.eigenvalues, [0.0, 2.0, 6.0], atol=1e-12)
    assert s.gap == pytest.approx(2.0)


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
    block = build_chain(path_graph(5), 3).blocks[2].local.size
    requests = [(L.size, lambda: spectrum(L)),
                (L.size, lambda: spectral_gap(L)),
                (L.size, lambda: bottom_eigenpairs(L)),
                # a fresh chain: a built one keeps its sector rates
                (block, lambda: lambda_km(build_chain(path_graph(5), 3), 2))]
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
    mixed = (0.3, 1.0, 0.05, 2.0, 0.7, 0.2, 1.5, 0.4, 0.9)
    omega = (0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.2)
    generators = [build_sip(torus(5, 1, alpha=0.4), 3),
                  build_sip(path_graph(12), 3),              # narrow band
                  build_sip(complete(8), 4),                 # wide band
                  build_sip(torus(3, 2, alpha=mixed), 4),    # mesh-like band
                  build_killed(torus(3, 2, alpha=mixed), omega, 4)]
    monkeypatch.setattr(spectral, "BOTTOM_DENSE_CAP", 0)
    for L in generators:
        S, _ = symmetrized(L, True)
        reference = np.linalg.eigvalsh(S)
        vals, vecs = bottom_eigenpairs(L, 2)
        # a conservative zero mode can only be compared absolutely
        nonzero = 1 if L.conservative else 0
        np.testing.assert_allclose(vals[nonzero:], reference[nonzero:2], rtol=1e-12, atol=0)
        if L.conservative:
            assert abs(vals[0]) < 1e-12
        assert abs(spectral_gap(L) - reference[nonzero]) <= 1e-12 * reference[nonzero]
        # eigen-residual in the symmetric coordinates, unit vectors
        unit = vecs * np.exp(0.5 * L.reference.log_weights)[:, None]
        unit /= np.linalg.norm(unit, axis=0)
        assert np.abs(S @ unit - unit * vals).max() <= 1e-10


def test_indefinite_form_fails_its_certificate_on_the_iterative_route():
    # shift-invert Lanczos would return the eigenvalues nearest the shift,
    # 0.986 and 0.990, and miss the bottom at -1.00005
    n = 1500
    diagonal = np.linspace(1.0, 3.0, n)
    diagonal[0] = -1.0
    off = np.full(n - 1, 0.01)
    S = scipy.sparse.diags([off, diagonal, off], [-1, 0, 1]).tocsr()
    assert n > spectral.BOTTOM_DENSE_CAP
    with pytest.raises(CertificationError, match="not positive definite"):
        spectral.symmetric_bottom(S, 2)
    assert np.linalg.eigvalsh(S.toarray())[0] == pytest.approx(-1.00005, abs=1e-5)


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


def _variance(m, f):
    return m.norm_sq(f - m.inner(f, np.ones(m.size)))


def _rayleigh(L, f):
    return dirichlet_form(L, f) / _variance(L.reference, f)


def test_rayleigh_quotient():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    L = build_sip(g, 2)
    vals, vecs = bottom_eigenpairs(L, 2)
    gap = spectrum(L).gap
    assert _rayleigh(L, vecs[:, 1]) == pytest.approx(gap, abs=1e-9)
    # indicator on the two-state symmetric chain: E = 1/2, Var = 1/4
    L2 = build_sip(path_graph(2), 1)
    f = np.array([1.0, 0.0])
    assert dirichlet_form(L2, f) == pytest.approx(0.5)
    assert _variance(L2.reference, f) == pytest.approx(0.25)


def test_rayleigh_dominates_gap_and_descent_approaches_it():
    g = path_graph(3)
    L = build_sip(g, 2)
    gap = spectrum(L).gap
    rng = np.random.default_rng(7)
    best = math.inf
    f = rng.standard_normal(L.size)
    for _ in range(100):
        quotient = _rayleigh(L, f)
        assert quotient >= gap - 1e-9
        best = min(best, quotient)
        # coordinate-descent refinement toward the minimizer: try -0.1, then
        # +0.1 from wherever the first trial left f.  f and both trials are
        # one dirichlet_form block, whose values equal one-column calls.
        for _ in range(50):
            i = rng.integers(L.size)
            block = np.column_stack([f, f, f])
            block[i, 1:] += (-0.1, 0.1)
            energies = dirichlet_form(L, block)
            quotients = [energies[j] / _variance(L.reference, block[:, j])
                         if block[:, j].std() > 0 else math.nan for j in range(3)]
            q_f, trial, q_trial = quotients[0], block[:, 2], quotients[2]
            if block[:, 1].std() > 0 and quotients[1] < q_f:
                f, q_f = block[:, 1], quotients[1]
                trial = f.copy()
                trial[i] += 0.1
                # the way back is usually f itself, whose quotient is known
                same = np.array_equal(trial, block[:, 0])
                q_trial = quotients[0] if same else _rayleigh(L, trial)
            if trial.std() > 0 and q_trial < q_f:
                f = trial
        f = rng.standard_normal(L.size) if rng.uniform() < 0.3 else f
    assert best < gap * 1.05


@pytest.mark.parametrize("shift, passes", [(5e-8, True), (1e-7, False)])
def test_zero_mode_verdict_is_the_same_on_every_route(shift, passes):
    # the largest |diagonal entry| is 5.5, so the check allows |lambda_0| <= 5.5e-8
    L = build_sip(path_graph(3, alpha=(0.5, 1.0, 2.0)), 2)
    lifted = dataclasses.replace(L, diagonal=L.diagonal + shift)
    routes = (lambda: spectrum(lifted).gap, lambda: spectral_gap(lifted),
              lambda: gap_and_semigroup(lifted, 0.01, np.ones(L.size))[0])
    for route in routes:
        if passes:
            assert route() == pytest.approx(1.0 - shift, abs=1e-12)
        else:
            with pytest.raises(CertificationError, match="no zero eigenvalue"):
                route()


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


def test_semigroup_certificate_fires_before_the_zero_mode_check():
    # a diagonal off by c keeps S symmetric and its bottom eigenvalue -c within
    # the zero-mode scale, but exp(tL) 1 = e^(ct) misses 1 by about ct
    L = build_sip(path_graph(3, alpha=(0.5, 1.0, 2.0)), 2)
    c, t = 2e-9, 10.0
    bad = dataclasses.replace(L, diagonal=L.diagonal + c)
    scale = spectrum(bad).eigenvalues[-1]
    assert c < 1e-8 * scale and c * t > spectral.SEMIGROUP_TOL
    _, resid = symmetrized(bad, True)
    assert resid < spectral.ASYMMETRY_TOL
    assert spectral_gap(bad) > 0.0  # the zero mode is accepted
    gap, evolved = gap_and_semigroup(L, t, np.ones(L.size))
    assert gap == pytest.approx(spectral_gap(L), rel=1e-12)
    assert evolved.shape == (L.size,)
    with pytest.raises(CertificationError, match="semigroup residual"):
        gap_and_semigroup(bad, t, np.ones(L.size))


def test_gap_and_semigroup_above_the_dense_cut_off_uniformizes(monkeypatch):
    monkeypatch.setattr(spectral, "BOTTOM_DENSE_CAP", 4)
    L = build_sip(path_graph(3, alpha=(0.5, 1.0, 2.0)), 3)
    F = np.random.default_rng(3).standard_normal((L.size, 2))
    gap, evolved = gap_and_semigroup(L, 0.7, F)
    assert gap == spectral_gap(L)
    np.testing.assert_array_equal(evolved, expm_action(L, 0.7, F))


def test_lower_bound_certificate_on_suite():
    # explicit graph-feature lower bound holds on every instance
    for g in (path_graph(3, alpha=0.2), torus(4, 1, alpha=0.05),
              h_shape(alpha=0.5), complete(3, alpha=(0.3, 1.0, 2.0))):
        row, = bounds_report_rows(g, 4, (1.0,))
        assert row.scan.gap_sip >= row.linear_lower - 1e-8


def test_gap_monotone_in_particle_number_across_suite():
    for g in (path_graph(4, alpha=0.2), torus(5, 1, alpha=(0.3, 1.0, 0.5, 2.0, 0.7)),
              h_shape(alpha=0.4), complete(4, alpha=0.6)):
        scan = gap_sip(g, 4)
        assert scan.monotone
