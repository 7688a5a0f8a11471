import dataclasses

import numpy as np
import pytest

from sipspectra.configspace import enumerate_configs
from sipspectra.generators import (
    CertificationError,
    build_killed,
    build_lookdown,
    build_sip,
    build_slow_fast,
    combine_slow_fast,
    dirichlet_form,
    label_pullback,
    open_generator_apply,
    symmetrize_labels,
)
from sipspectra.graphs import complete, h_shape, path_graph, torus
from sipspectra.measures import WeightedMeasure

TEST_GRAPHS = [
    path_graph(2),
    path_graph(3, alpha=(0.5, 1.0, 2.0)),
    path_graph(4, alpha=0.3),
    complete(3, alpha=2.0),
    torus(4, 1),
    h_shape(alpha=0.3),
]


def test_two_site_matrix():
    L = build_sip(path_graph(2), 2)
    # states in order (0,2), (1,1), (2,0)
    expected = np.array([[-2.0, 2.0, 0.0], [2.0, -4.0, 2.0], [0.0, 2.0, -2.0]])
    np.testing.assert_allclose(L.as_dense(), expected, atol=1e-14)


def test_one_particle_is_the_walk():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    L = build_sip(g, 1)
    dense = -L.as_dense()
    space = enumerate_configs(g, 1)
    for i in range(space.size):
        x = int(np.nonzero(space.config(i))[0][0])
        for j in range(space.size):
            if i == j:
                continue
            y = int(np.nonzero(space.config(j))[0][0])
            assert dense[i, j] == pytest.approx(-g.conductances[x, y] * g.alpha[y])


def test_rows_sum_to_zero_and_detailed_balance():
    for g in TEST_GRAPHS:
        for k in (1, 2, 3):
            L = build_sip(g, k)
            assert L.row_sum_residual() < 1e-12
            assert L.detailed_balance_residual() < 1e-12


def test_slow_fast_split():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    A, B = build_slow_fast(g, 2)
    space = enumerate_configs(g, 2)
    # interaction rows vanish on the absorbing set
    b_dense = B.as_dense()
    for i in space.omega:
        assert np.all(b_dense[i] == 0.0)
    # interaction rates from (1,1,0)
    i = space.index_of((1, 1, 0))
    assert b_dense[i, space.index_of((2, 0, 0))] == pytest.approx(1.0)
    assert b_dense[i, space.index_of((0, 2, 0))] == pytest.approx(1.0)
    # one independent particle is the walk
    A1, _ = build_slow_fast(g, 1)
    np.testing.assert_allclose(A1.as_dense(), build_sip(g, 1).as_dense(), atol=1e-14)


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.1])
def test_slow_fast_reconstruction(eps):
    for g in (path_graph(3, alpha=(0.5, 1.0, 2.0)), h_shape(alpha=0.3)):
        for k in (2, 3):
            space = enumerate_configs(g, k)
            A, B = build_slow_fast(g, k, space)
            combined = combine_slow_fast(A, B, eps)
            reference = build_sip(g.scaled_alpha(eps), k, space)
            diff = np.abs(combined.as_dense() - reference.as_dense() / eps).max()
            assert diff < 1e-10


def test_killed_two_state():
    L = build_killed(path_graph(2), (1.0, 0.0), 1)
    # states (0,1), (1,0): jump rate 1 each way, kill 1 at the first site
    np.testing.assert_allclose(-L.as_dense(), [[1.0, -1.0], [-1.0, 2.0]],
                               atol=1e-14)
    assert L.row_sum_residual() < 1e-14


def test_killed_reduces_to_conservative_and_linearity():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    space = enumerate_configs(g, 2)
    L0 = build_killed(g, np.zeros(3), 2, space)
    np.testing.assert_allclose(L0.as_dense(), build_sip(g, 2, space).as_dense(),
                               atol=1e-14)
    omega = np.array([0.3, 0.0, 1.1])
    L = build_killed(g, omega, 2, space)
    i = space.index_of((2, 0, 0))
    assert L.kill[i] == pytest.approx(2 * 0.3)
    with pytest.raises(ValueError):
        build_killed(g, (-1.0, 0, 0), 2)


def test_open_generator_pointwise():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    omega = (1.0, 0.0, 0.5)
    theta = (0.7, 0.0, 0.2)
    # constants are harmonic
    for eta in ((0, 0, 0), (1, 2, 0), (3, 0, 1)):
        assert open_generator_apply(g, omega, theta, lambda _: 1.0, eta) == 0.0
    # only the creation term survives at the empty configuration
    val = open_generator_apply(g, (1.0, 0, 0), (0.3, 0, 0),
                               lambda e: float(sum(e)), (0, 0, 0))
    assert val == pytest.approx(1.0 * 0.3 * g.alpha[0])


def test_open_generator_matches_killed_on_a_level():
    # with theta = 0 the open action on a level function equals the killed row
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    k = 2
    space = enumerate_configs(g, k)
    omega = (0.4, 0.0, 1.0)
    L = build_killed(g, omega, k, space)
    rng = np.random.default_rng(2)
    f_level = rng.standard_normal(space.size)

    def f(eta):
        return float(f_level[space.index_of(eta)]) if sum(eta) == k else 0.0

    expected = L.matvec(f_level)
    for i in range(space.size):
        got = open_generator_apply(g, omega, np.zeros(3), f, space.config(i))
        assert abs(got - expected[i]) < 1e-12


def test_dirichlet_form_oracles():
    # two-state chain, unit rates, uniform weights: E(f) = 1/2 for f = (0, 1)
    L = build_sip(path_graph(2), 1)
    assert dirichlet_form(L, np.array([0.0, 1.0])) == pytest.approx(0.5)
    assert dirichlet_form(L, np.ones(2)) == 0.0
    # quadratic-form identity <f, -Lf>
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    L2 = build_sip(g, 2)
    w = L2.reference.weights
    rng = np.random.default_rng(3)
    for _ in range(20):
        f = rng.standard_normal(L2.size)
        direct = float(np.dot(w * f, -L2.matvec(f)))
        assert abs(dirichlet_form(L2, f) - direct) < 1e-10


def test_dirichlet_form_killed_and_nonreversible_error():
    g = path_graph(2)
    Lk = build_killed(g, (1.0, 0.0), 2)
    rng = np.random.default_rng(4)
    w = Lk.reference.weights
    for _ in range(5):
        f = rng.standard_normal(Lk.size)
        direct = float(np.dot(w * f, -Lk.matvec(f)))
        assert abs(dirichlet_form(Lk, f) - direct) < 1e-12
    bad = build_sip(g, 2)
    bad.reference = WeightedMeasure(np.array([0.0, -1.0, -2.0]))
    with pytest.raises(CertificationError, match="not reversible"):
        dirichlet_form(bad, np.arange(3.0))


def test_dirichlet_form_rejects_asymmetry_between_the_old_and_new_tolerance():
    L = build_sip(path_graph(3, alpha=(0.5, 1.0, 2.0)), 2)
    bad = dataclasses.replace(L, rates=L.rates.copy())
    bad.rates.data[np.argmax(bad.rates.data)] *= 1.0 + 5e-9  # one direction only
    carrier = bad.carrier()
    relative = abs(carrier - carrier.T).max() / carrier.max()
    assert 1e-10 < relative < 1e-8
    with pytest.raises(CertificationError, match="not reversible"):
        dirichlet_form(bad, np.arange(float(L.size)))


def test_lookdown_one_particle_is_killed_walk():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    omega = (1.0, 0.0, 0.5)
    ld = build_lookdown(g, omega, 1)
    killed = build_killed(g, omega, 1)
    # labels coincide with configurations at a single particle, reversed order
    space = enumerate_configs(g, 1)
    perm = [space.index_of(tuple(int(i == x) for i in range(3)))
            for (x,) in ld.space.states]
    np.testing.assert_allclose(ld.as_dense(),
                               killed.as_dense()[np.ix_(perm, perm)], atol=1e-14)


def test_lookdown_rate_asymmetry():
    # both coordinates of (a, a) jump at the bare walk rate; the boost only
    # applies when a lower label already sits at the target
    g = path_graph(2)
    ld = build_lookdown(g, (0.0, 0.0), 2)
    dense = ld.as_dense()
    idx = ld.space.index
    aa, ab, ba, bb = idx[(0, 0)], idx[(0, 1)], idx[(1, 0)], idx[(1, 1)]
    assert dense[aa, ab] == pytest.approx(1.0)
    assert dense[aa, ba] == pytest.approx(1.0)
    assert dense[ab, aa] == pytest.approx(3.0)  # label 2 falls onto label 1
    assert dense[ba, aa] == pytest.approx(1.0)


def test_lookdown_symmetrization_identity():
    rng = np.random.default_rng(5)
    cases = [(path_graph(3, alpha=(0.5, 1.0, 2.0)), 2, (1.0, 0.0, 0.0)),
             (path_graph(3), 3, (0.5, 0.25, 0.0)),
             (complete(3, alpha=0.3), 2, (1.0, 1.0, 0.0))]
    for g, k, omega in cases:
        space = enumerate_configs(g, k)
        ld = build_lookdown(g, omega, k)
        killed = build_killed(g, omega, k, space)
        for _ in range(5):
            f = rng.standard_normal(space.size)
            phi = label_pullback(ld.space, space, f)
            lhs = symmetrize_labels(ld.space, ld.matvec(phi))
            rhs = label_pullback(ld.space, space, killed.matvec(f))
            assert np.abs(lhs - rhs).max() < 1e-12
