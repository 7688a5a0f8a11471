import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipspectra import cli, nonconservative
from sipspectra.configspace import enumerate_configs
from sipspectra.generators import CertificationError, build_killed
from sipspectra.graphs import WeightedGraph, path_graph
from sipspectra.nonconservative import (
    build_absorbing_chain,
    duality_eval,
    eigen_lift_residual,
    gap_identity_check,
    killed_eigenpairs,
    level_bottoms,
    lift_F,
    meixner_d,
    orthogonality_check,
    survival_domination,
)

GOLDEN_GAP = (3.0 - math.sqrt(5.0)) / 2.0


def single_site(alpha=1.0):
    return WeightedGraph(("a",), np.zeros((1, 1)), np.array([float(alpha)]))


def test_meixner_values():
    for n in range(5):
        assert meixner_d(1.3, 0.7, 0, n) == 1.0
    assert meixner_d(2.0, 0.0, 1, 5) == pytest.approx(5 / 2)
    assert meixner_d(2.0, 0.3, 1, 5) == pytest.approx(5 / 2 - 0.3)
    assert meixner_d(1.0, 0.0, 3, 2) == 0.0  # falling factorial support


@given(st.floats(min_value=0.2, max_value=3.0),
       st.floats(min_value=0.05, max_value=2.0),
       st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=80, deadline=None)
def test_meixner_matches_binomial_sum(alpha, rho, xi, eta):
    # the recursion agrees with the direct binomial-transform definition
    def d0(l, n):
        if l > n:
            return 0.0
        val = 1.0
        for j in range(l):
            val *= (n - j) / (alpha + j)
        return val

    direct = sum(math.comb(xi, l) * d0(l, eta) * (-rho) ** (xi - l)
                 for l in range(xi + 1))
    assert meixner_d(alpha, rho, xi, eta) == pytest.approx(direct, abs=1e-10)


def test_single_site_degree_and_leading_coefficient():
    # eta -> D(xi, eta) is a polynomial of degree xi with nonzero top term
    alpha, rho = 0.8, 0.6
    for xi in (1, 2, 3):
        pts = np.arange(xi + 1)
        vals = [meixner_d(alpha, rho, xi, int(n)) for n in pts]
        coeffs = np.polyfit(pts, vals, xi)
        assert abs(coeffs[0]) > 1e-12
        # and degree really is xi: an extra evaluation matches the fit
        extra = meixner_d(alpha, rho, xi, xi + 1)
        assert np.polyval(coeffs, xi + 1) == pytest.approx(extra, rel=1e-8)


def test_duality_product_and_empty_row():
    g = path_graph(2, (0.7, 1.4))
    for eta in ((0, 0), (2, 1), (0, 3)):
        assert duality_eval(g, 0.5, (0, 0), eta) == 1.0
    val = duality_eval(g, 0.5, (1, 1), (2, 3))
    assert val == pytest.approx(meixner_d(0.7, 0.5, 1, 2) * meixner_d(1.4, 0.5, 1, 3))


def test_lift_oracle_single_site():
    s = single_site(1.0)
    F = lift_F(s, 1.0, np.array([1.0]), enumerate_configs(s, 1))
    for n in range(5):
        assert F((n,)) == pytest.approx(n - 1.0)
    const = lift_F(s, 1.0, 2.5, 0)
    assert const((7,)) == 2.5


def test_lift_nonzero_on_low_levels():
    g = path_graph(2)
    space = enumerate_configs(g, 2)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(space.size)
    F = lift_F(g, 0.5, psi, space)
    grid = [space.config(i) for i in range(space.size)]
    grid += [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert any(abs(F(eta)) > 1e-10 for eta in grid)


def test_level_bottoms_increase_but_chain_gaps_collapse():
    g = path_graph(2)
    rep = gap_identity_check(g, (1.0, 0.0), 4)
    assert rep.level_bottoms[0] == pytest.approx(GOLDEN_GAP, abs=1e-12)
    # the per-level decay rates strictly dominate the one-particle one
    assert all(b > rep.level_bottoms[0] for b in rep.level_bottoms[1:])
    # while the absorbing-chain gaps all equal it
    assert rep.identity_holds
    assert rep.max_relative_deviation < 1e-12
    np.testing.assert_allclose(rep.chain_gaps, GOLDEN_GAP, atol=1e-12)


def test_gap_identity_small_weights_and_errors():
    rep = gap_identity_check(path_graph(3, alpha=0.2), (0.0, 0.0, 1.0), 4)
    assert rep.identity_holds
    with pytest.raises(ValueError):
        gap_identity_check(path_graph(3), np.zeros(3), 3)


def test_absorbing_chain_spectrum_is_union_of_levels():
    g = path_graph(2)
    omega = (1.0, 0.0)
    gen, alive, offsets = build_absorbing_chain(g, omega, 3)
    dense = gen.as_dense()
    vals = np.sort(np.linalg.eigvals(dense).real)
    bottoms = level_bottoms(g, omega, 3)
    assert abs(vals[-1]) < 1e-12  # empty state
    assert min(-vals[:-1]) == pytest.approx(min(bottoms), abs=1e-10)
    assert gen.row_sum_residual() < 1e-12


def test_eigen_lift_residuals():
    g = path_graph(3)
    omega = (1.0, 0.0, 0.0)
    # theta = rho reduces to the plain eigen-relation
    for k in (1, 2):
        vals, vecs, _ = killed_eigenpairs(g, omega, k)
        worst = max(eigen_lift_residual(g, omega, 0.2, 0.2, k, vals[i], vecs[:, i])
                    for i in range(len(vals)))
        assert worst < 1e-8
    # non-constant reservoir densities
    vals, vecs, _ = killed_eigenpairs(g, omega, 1)
    worst = max(eigen_lift_residual(g, omega, (0.5, 0.0, 0.0), 0.2, 1,
                                    vals[i], vecs[:, i])
                for i in range(len(vals)))
    assert worst < 1e-7
    with pytest.raises(ValueError, match="not an eigenvector"):
        eigen_lift_residual(g, omega, 0.2, 0.2, 2, vals[0] + 0.5,
                            np.ones(enumerate_configs(g, 2).size))


def test_killed_eigenpairs_certify_the_symmetrization(monkeypatch):
    def broken_killed(g, omega, k, space=None):
        L = build_killed(g, omega, k, space)
        L.rates.data[0] *= 1.5  # one rate off: the generator is not reversible
        return L

    monkeypatch.setattr(nonconservative, "build_killed", broken_killed)
    with pytest.raises(CertificationError, match="asymmetry"):
        killed_eigenpairs(path_graph(3), (1.0, 0.0, 0.0), 2)


def test_scalar_level_lift_is_exact():
    assert eigen_lift_residual(path_graph(2), (1.0, 0.0), 0.3, 0.3, 0, 0.0, 1.0) == 0.0


def test_orthogonality_single_site_oracle():
    s = single_site(1.0)
    rep = orthogonality_check(s, 1.0, 1, 1)
    # closed-form diagonal: rho^k (1+rho)^k / Z / mu = 2, cross-checked by the
    # geometric series sum_n (1/2)^{n+1} (n-1)^2 = 2
    assert rep.diagonal_deviation < 1e-7
    rep = orthogonality_check(s, 1.0, 1, 2)
    assert rep.off_diagonal < 1e-7
    rep = orthogonality_check(s, 1.0, 0, 0)
    # empty kernel against itself is one, up to the certified truncation tail
    assert rep.diagonal_deviation < 1e-9


def test_orthogonality_gram_structure():
    g = path_graph(2, (0.7, 1.4))
    for k in (1, 2):
        rep = orthogonality_check(g, 0.5, k, k)
        assert rep.diagonal_deviation < 1e-7
        assert rep.off_diagonal < 1e-7
    rep = orthogonality_check(g, 0.5, 1, 2)
    assert rep.off_diagonal < 1e-7


def test_survival_domination():
    g = path_graph(2)
    rep = survival_domination(g, (1.0, 0.0), 2, (0.5, 1.0, 2.0))
    assert rep.dominated
    assert rep.slope_deviation < 1e-3
    assert rep.slope_mismatch < 1e-3
    # one particle against itself is an equality
    rep1 = survival_domination(g, (1.0, 0.0), 1, (0.5, 1.0))
    assert rep1.dominated
    np.testing.assert_allclose(rep1.many_particle, rep1.one_particle, atol=1e-12)


def test_extinction_slope_when_the_killed_gap_is_small():
    # the slow transient decays at lambda_2 - lambda_1 ~ lambda_1 = 0.0024,
    # so the slope settles only at t in the thousands
    g = path_graph(5, np.linspace(0.3, 2.0, 5))
    rep = survival_domination(g, (0.05, 0.0, 0.0, 0.0, 0.0), 3, (0.5, 1.0, 2.0))
    assert rep.dominated
    assert rep.slope_deviation < 1e-3
    assert rep.slope_mismatch < 1e-3


def test_extinction_slope_under_fast_killing(capsys):
    # survival probabilities fall below e^-1000 long before the slope settles
    rep = survival_domination(path_graph(3), (50.0, 50.0, 50.0), 3, (0.5, 1.0, 2.0))
    assert rep.dominated
    assert rep.slope_deviation < 1e-3
    code = cli.main(["nonconservative", "--family", "path(3)",
                     "--omega", "50,50,50", "--k-max", "3"])
    assert code == cli.EXIT_PASS
    capsys.readouterr()


def test_lift_residual_detects_a_drift_mutant(monkeypatch):
    g = path_graph(3)
    omega, theta, rho = (1.0, 0.0, 0.0), (0.5, 0.0, 0.0), 0.2

    def worst(k):
        vals, vecs, _ = killed_eigenpairs(g, omega, k)
        return max(eigen_lift_residual(g, omega, theta, rho, k, vals[i], vecs[:, i])
                   for i in range(len(vals)))

    assert max(worst(k) for k in (1, 2, 3)) < 1e-12
    apply_b = nonconservative.apply_b
    monkeypatch.setattr(nonconservative, "apply_b",
                        lambda *args: (1.0 + 1e-5) * apply_b(*args))
    for k in (1, 2, 3):
        assert worst(k) > 1e-7


def test_lifted_spectrum_smallest_nonzero_is_the_walk_gap():
    # with constant reservoir density the open spectrum is the union of the
    # level blocks plus zero; its smallest non-zero element is the killed
    # walk gap
    g = path_graph(3, (0.5, 1.0, 2.0))
    omega = (1.0, 0.0, 0.5)
    lifted = [0.0]
    for k in (1, 2, 3):
        vals, _, _ = killed_eigenpairs(g, omega, k)
        lifted.extend(float(v) for v in vals)
    nonzero = sorted(v for v in lifted if v > 1e-12)
    walk_gap = level_bottoms(g, omega, 1)[0]
    assert nonzero[0] == pytest.approx(walk_gap, rel=1e-8)


def test_empty_kernel_orthogonal_to_higher_levels():
    g = path_graph(2, (0.7, 1.4))
    for l in (1, 2):
        rep = orthogonality_check(g, 0.5, 0, l)
        assert rep.off_diagonal < 1e-7
