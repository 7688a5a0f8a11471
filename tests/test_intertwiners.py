import numpy as np
import pytest

from sipspectra import intertwiners
from sipspectra.configspace import enumerate_configs
from sipspectra.generators import CertificationError, GeneratorMatrix, build_sip
from sipspectra.graphs import complete, path_graph, torus
from sipspectra.intertwiners import (
    adjointness_residual,
    annihilation,
    complete_graph_check,
    consistency_residual,
    contraction_map,
    gap_induction_check,
    kernel_basis,
)
from sipspectra.measures import mu
from sipspectra.spectral import spectrum


def test_annihilation_values():
    g = path_graph(2)
    a1 = annihilation(g, 1)
    # applied to the scalar 1 on the empty level: the constant |eta| = 1
    np.testing.assert_allclose((a1 @ np.ones(1)), np.ones(2))
    a2 = annihilation(g, 2)
    space2 = enumerate_configs(g, 2)
    space1 = enumerate_configs(g, 1)
    rng = np.random.default_rng(0)
    h = rng.standard_normal(space1.size)
    at_mid = (a2 @ h)[space2.index_of((1, 1))]
    assert at_mid == pytest.approx(h[space1.index_of((1, 0))]
                                   + h[space1.index_of((0, 1))])


def test_adjointness():
    assert adjointness_residual(path_graph(3, alpha=(0.5, 1, 2)), 3) < 1e-12
    assert adjointness_residual(complete(3, 0.3), 2) < 1e-12


@pytest.mark.parametrize("g,k,tol", [
    (path_graph(3, alpha=(0.5, 1.0, 2.0)), 2, 1e-12),
    (complete(3, 0.3), 3, 1e-12),
    (torus(4, 1), 4, 1e-11),
])
def test_consistency(g, k, tol):
    assert consistency_residual(g, k) < tol


def test_kernel_dimensions_and_orthogonality():
    g = path_graph(2)
    # one-particle kernel: mean-zero functions, dimension 1
    basis1 = kernel_basis(g, 1)
    assert basis1.shape == (2, 1)
    m1 = mu(g, enumerate_configs(g, 1))
    assert abs(m1.inner(basis1[:, 0], np.ones(2))) < 1e-12
    # two-particle kernel: 3 - 2 = 1
    assert kernel_basis(g, 2).shape == (3, 1)
    # kernel functions are orthogonal to every lifted function
    g3 = path_graph(3, alpha=(0.5, 1.0, 2.0))
    k = 3
    space_k = enumerate_configs(g3, k)
    basis = kernel_basis(g3, k, space_k)
    a = annihilation(g3, k)
    m_k = mu(g3, space_k)
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = rng.standard_normal(enumerate_configs(g3, k - 1).size)
        lifted = a @ h
        for j in range(basis.shape[1]):
            assert abs(m_k.inner(lifted, basis[:, j])) < 1e-10
    gram = np.array([[m_k.inner(basis[:, i], basis[:, j])
                      for j in range(basis.shape[1])]
                     for i in range(basis.shape[1])])
    np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-10)


def test_orthogonal_decomposition_dimensions():
    g = torus(4, 1, alpha=0.7)
    for k in (2, 3):
        space_k = enumerate_configs(g, k)
        space_prev = enumerate_configs(g, k - 1)
        basis = kernel_basis(g, k, space_k)
        assert basis.shape[1] == space_k.size - space_prev.size


def test_eigenvalue_lifting():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    for k in (2, 3):
        space_prev = enumerate_configs(g, k - 1)
        L_prev = build_sip(g, k - 1, space_prev)
        L_k = build_sip(g, k)
        a = annihilation(g, k)
        lw = L_prev.reference.log_weights
        half = np.exp(0.5 * lw)
        sym = half[:, None] * (-L_prev.as_dense()) / half[None, :]
        vals, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
        for i in range(len(vals)):
            f = vecs[:, i] / half
            lifted = a @ f
            resid = np.linalg.norm(-L_k.matvec(lifted) - vals[i] * lifted)
            assert resid < 1e-9 * max(np.linalg.norm(lifted), 1e-12)


def test_annihilation_injective():
    for g, k in ((path_graph(3, alpha=0.2), 2), (torus(4, 1), 3)):
        a = annihilation(g, k).toarray()
        smallest = np.linalg.svd(a, compute_uv=False)[-1]
        assert smallest > 1e-10


def test_gap_induction():
    # complete graph: kernel quotient equals k(|alpha| + k - 1)
    for k in (2, 3, 4):
        rep = gap_induction_check(complete(3), k)
        assert rep.kernel_rayleigh_min == pytest.approx(k * (3 + k - 1), rel=1e-10)
        assert rep.induction_residual < 1e-8
    # log-concave weights keep the walk gap at every level
    rep = gap_induction_check(path_graph(3), 3)
    assert rep.gap_k == pytest.approx(rep.gap_prev, abs=1e-10)
    # small weights: equality of the two sides of the induction
    rep = gap_induction_check(path_graph(3, alpha=0.2), 2)
    assert rep.induction_residual < 1e-8


def test_rank_deficient_addition_operator_is_a_certificate_failure(monkeypatch):
    creation = intertwiners.creation

    def rank_deficient(*args, **kwargs):
        out = creation(*args, **kwargs).tolil()
        out[0, :] = 0.0  # one row lost: the addition operator drops rank
        return out.tocsr()

    monkeypatch.setattr(intertwiners, "creation", rank_deficient)
    with pytest.raises(CertificationError, match="numerical rank"):
        kernel_basis(path_graph(3), 2)


def test_asymmetric_kernel_form_is_a_certificate_failure(monkeypatch):
    as_dense = GeneratorMatrix.as_dense

    def one_rate_off(self):
        out = as_dense(self)
        i, j = np.argwhere(~np.eye(len(out), dtype=bool) & (out != 0.0))[0]
        out[i, j] *= 1.5  # the form is no longer symmetric
        return out

    monkeypatch.setattr(GeneratorMatrix, "as_dense", one_rate_off)
    with pytest.raises(CertificationError, match="form asymmetry"):
        gap_induction_check(path_graph(3), 2)


def test_complete_graph_checks():
    rep = complete_graph_check(complete(2), 2)
    assert rep.expected_eigenvalues == [0.0, 2.0, 6.0]
    assert rep.expected_multiplicities == [1, 1, 1]
    assert rep.spectrum_deviation < 1e-10
    rep = complete_graph_check(complete(3), 2)
    assert rep.expected_eigenvalues == [0.0, 3.0, 8.0]
    assert rep.expected_multiplicities == [1, 2, 3]
    assert rep.kernel_energy_deviation < 1e-8
    # rank-one structure: walk gap on the complete graph is the total weight
    s = spectrum(build_sip(complete(3, 0.5), 1))
    assert s.gap == pytest.approx(1.5)
    with pytest.raises(ValueError):
        complete_graph_check(path_graph(3), 2)


def test_energy_decomposes_over_particle_removal():
    # complete-graph energy splits as k times a mixture of one-particle terms
    g = complete(3, alpha=(0.5, 1.0, 2.0))
    k = 3
    space_k = enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    L_k = build_sip(g, k, space_k)
    m_prev = mu(g, space_prev)
    from sipspectra.generators import dirichlet_form
    from sipspectra.graphs import WeightedGraph
    rng = np.random.default_rng(4)
    f = rng.standard_normal(space_k.size)
    lhs = dirichlet_form(L_k, f)
    rhs = 0.0
    for i in range(space_prev.size):
        xi = np.array(space_prev.config(i))
        shifted = WeightedGraph(g.vertices, g.conductances, g.alpha + xi)
        L1 = build_sip(shifted, 1)
        raised = np.tile(xi, (g.n, 1)) + np.eye(g.n, dtype=int)
        f_xi = f[space_k.rank_rows(raised)][::-1]  # level-1 lex order is reversed
        rhs += m_prev.weights[i] * dirichlet_form(L1, f_xi)
    assert abs(lhs - k * rhs) < 1e-10


def test_contraction_map():
    t6 = torus(6, 1)
    space = enumerate_configs(t6, 3)
    f = np.zeros(space.size)
    f[space.index_of((1, 0, 1, 0, 1, 0))] = 1.0
    g_f, rep = contraction_map(t6, 3, f)
    assert rep.norm_identity_residual < 1e-12
    assert rep.dirichlet_slack >= -1e-10
    assert rep.factor == pytest.approx((6 + 2) / 6)
    # zero in, zero out
    g0, rep0 = contraction_map(t6, 3, np.zeros(space.size))
    assert not g0.any()
    assert rep0.norm_identity_residual == 0.0
    # random admissible functions on a larger cycle
    t7 = torus(7, 1)
    space7 = enumerate_configs(t7, 3)
    spread = space7.omega_by_stacks[3]
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = np.zeros(space7.size)
        f[spread] = rng.standard_normal(spread.size)
        _, rep = contraction_map(t7, 3, f)
        assert rep.norm_identity_residual < 1e-12
        assert rep.dirichlet_slack >= -1e-10
    # support violation raises
    bad = np.ones(space7.size)
    with pytest.raises(ValueError):
        contraction_map(t7, 3, bad)
