import math

import numpy as np
import pytest

from sipspectra import metastable
from sipspectra.generators import CertificationError, build_sip
from sipspectra.graphs import WeightedGraph, complete, h_shape, path_graph, torus
from sipspectra.metastable import (
    build_chain,
    harmonic_projection,
    lambda_km,
    restricted_annihilation_residual,
    single_stack_gap,
    slow_fast_convergence,
    w_k,
)
from sipspectra.spectral import spectral_gap

CHAIN_CASES = [
    (path_graph(3), 2),
    (path_graph(3, alpha=(0.5, 1.0, 2.0)), 3),
    (path_graph(4), 4),
    (torus(4, 1), 3),
    (torus(5, 1), 3),
    (h_shape(), 4),
    (complete(3), 3),
]


def test_projection_two_exit_split():
    proj = harmonic_projection(path_graph(3), 2)
    space = proj.space
    row = proj.matrix[space.index_of((1, 1, 0))]
    targets = {space.config(space.omega[j]): v for j, v in enumerate(row) if v > 0}
    assert targets == {(2, 0, 0): pytest.approx(0.5), (0, 2, 0): pytest.approx(0.5)}


def test_projection_point_masses_and_row_sums():
    for g, k in CHAIN_CASES:
        proj = harmonic_projection(g, k)
        space = proj.space
        sums = proj.matrix.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10
        assert proj.matrix.min() >= 0.0 and proj.matrix.max() <= 1.0
        for j, i in enumerate(space.omega):
            row = proj.matrix[i]
            assert row[j] == 1.0 and row.sum() == pytest.approx(1.0)
        # projection acts as the identity on the absorbing set
        rng = np.random.default_rng(0)
        f = rng.standard_normal(space.size)
        pf = proj.apply(f)
        np.testing.assert_allclose(pf[space.omega], f[space.omega], atol=1e-12)


def test_gamblers_ruin_exit_probabilities():
    # a stack of k-1 with a lone neighbor: the walk on 0..k started at k-1
    for k in (2, 3, 4):
        proj = harmonic_projection(path_graph(2), k)
        space = proj.space
        src = space.index_of((k - 1, 1))
        to_all_b = proj.matrix[src][list(space.omega).index(space.index_of((0, k)))]
        to_all_a = proj.matrix[src][list(space.omega).index(space.index_of((k, 0)))]
        assert to_all_b == pytest.approx(1.0 / k)
        assert to_all_a == pytest.approx((k - 1.0) / k)


def test_chain_structure_residuals():
    for g, k in CHAIN_CASES:
        chain = build_chain(g, k)
        assert chain.row_sum_residual() < 1e-10
        assert chain.triangularity_residual() < 1e-12
        assert chain.varsigma_reversibility_residual() < 1e-10


def test_single_stack_block_is_the_walk():
    for g, k in ((path_graph(3, alpha=(0.5, 1.0, 2.0)), 2), (h_shape(), 3)):
        chain = build_chain(g, k)
        block = chain.blocks[1]
        for i, loc_i in enumerate(block.local):
            x = int(np.nonzero(chain.omega_config(int(loc_i)))[0][0])
            for j, loc_j in enumerate(block.local):
                if i == j:
                    continue
                y = int(np.nonzero(chain.omega_config(int(loc_j)))[0][0])
                assert block.matrix[i, j] == pytest.approx(
                    g.conductances[x, y] * g.alpha[y], abs=1e-12)


def test_h_shape_five_particle_components():
    chain = build_chain(h_shape(), 5)
    block = chain.blocks[4]
    comps = sorted(
        sorted(chain.omega_config(int(block.local[i])) for i in comp)
        for comp in block.components
    )
    assert comps == [
        [(1, 0, 1, 1, 0, 2), (1, 0, 1, 2, 0, 1)],
        [(1, 0, 2, 1, 0, 1), (2, 0, 1, 1, 0, 1)],
    ]


def test_even_cycle_parity_classes_disconnected():
    chain = build_chain(torus(4, 1), 2)
    block = chain.blocks[2]
    assert block.local.size == 2
    off = block.matrix[~np.eye(2, dtype=bool)]
    assert np.all(off == 0.0)
    assert len(block.components) == 2


def test_lambda_values():
    chain = build_chain(path_graph(3), 2)
    assert lambda_km(chain, 2) == pytest.approx(2.0)
    assert w_k(chain) == pytest.approx(1.0)
    assert math.isinf(lambda_km(build_chain(complete(3), 2), 2))
    assert single_stack_gap(chain) == pytest.approx(1.0)


def test_single_stack_gap_ignores_a_rounding_leak():
    # these conductances leave row sums of -1e-16 in the closed single-stack
    # block; read as killing, they would turn the gap into the zero mode
    c = np.array([[0.0, 0.7, 0.0], [0.7, 0.0, 1.3], [0.0, 1.3, 0.0]])
    chain = build_chain(WeightedGraph(("a", "b", "c"), c, np.array([0.5, 1.0, 2.0])), 2)
    assert np.any(chain.blocks[1].matrix.sum(axis=1) < 0.0)
    walk = np.sort(np.linalg.eigvals(-chain.blocks[1].matrix).real)
    assert single_stack_gap(chain) == pytest.approx(walk[1], rel=1e-10)


def test_residual_checks_raise_certification_errors(monkeypatch):
    chain = build_chain(path_graph(5), 3)
    block = chain.blocks[2]
    off = np.argwhere((block.matrix != 0.0) & ~np.eye(block.local.size, dtype=bool))
    i, j = off[0]
    block.matrix[i, j] *= 1.5  # one rate off: the block is not reversible
    with pytest.raises(CertificationError, match="asymmetry residual"):
        lambda_km(chain, 2)
    monkeypatch.setattr(metastable, "ABSORB_RESIDUAL_TOL", -1.0)
    with pytest.raises(CertificationError, match="absorption solve residual"):
        harmonic_projection(path_graph(3), 2)


def test_lambda_collapse_and_ordering():
    for g in (torus(6, 1), h_shape(), path_graph(5)):
        chains = {k: build_chain(g, k) for k in range(2, 5)}
        l22 = lambda_km(chains[2], 2)
        for m in (2, 3, 4):
            base = lambda_km(chains[m], m) if m in chains else math.inf
            for k in range(m, 5):
                val = lambda_km(chains[k], m)
                if math.isinf(base):
                    assert math.isinf(val)
                else:
                    assert val == pytest.approx(base, rel=1e-8)
        for k in (2, 3, 4):
            lkk = lambda_km(chains[k], k)
            assert math.isinf(lkk) or lkk >= l22 - 1e-8


def test_lambda_32_equals_lambda_22_on_the_six_cycle():
    t6 = torus(6, 1)
    l22 = lambda_km(build_chain(t6, 2), 2)
    l32 = lambda_km(build_chain(t6, 3), 2)
    assert l22 == pytest.approx(4.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
    assert l32 == pytest.approx(l22, rel=1e-8)


def test_w_k_one_particle_is_walk_gap():
    g = path_graph(3, alpha=(0.5, 1.0, 2.0))
    chain = build_chain(g, 1)
    assert w_k(chain) == pytest.approx(spectral_gap(build_sip(g, 1)) / 1.0)


@pytest.mark.parametrize("g,k,tol", [
    (path_graph(3), 2, 1e-10),
    (torus(5, 1), 3, 1e-10),
    (h_shape(), 5, 1e-9),
])
def test_restricted_intertwining(g, k, tol):
    assert restricted_annihilation_residual(g, k) < tol


def test_slow_fast_convergence_rows():
    rows = slow_fast_convergence(path_graph(3), 2, t=1.0,
                                 eps_grid=(1e-1, 1e-2, 1e-3))
    devs = [r.semigroup_deviation for r in rows]
    assert all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    assert devs[-1] < 0.05
    assert rows[-1].min_absorbing_mass >= 0.99
    assert all(r.gap_ratio_error < 1e-8 for r in rows)


def test_slow_fast_crossover_instance():
    # on the eight-cycle the two-stack rate undercuts the walk gap, so the
    # rescaled gap genuinely converges from above
    g = torus(8, 1)
    chain = build_chain(g, 2)
    assert lambda_km(chain, 2) < single_stack_gap(chain)
    wk = w_k(chain)
    errs = [abs(spectral_gap(build_sip(g.scaled_alpha(e), 2)) / e - wk)
            for e in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    assert errs[-1] < 1e-2 * wk
    assert errs[0] > 1e-3  # non-trivial convergence, not an exact identity


def test_slow_fast_rejects_tiny_diffusivity():
    with pytest.raises(ValueError, match="below"):
        slow_fast_convergence(path_graph(3), 2, t=1.0, eps_grid=(1e-2, 1e-4))


def test_merged_stack_rates_by_first_step_analysis():
    # eta = 2 delta_a + delta_c on the 3-path; the slow move a->b (rate 2)
    # lands in the fully-interacting (1,1,1) whose collapse splits
    # 1/4, 1/4, 1/3, 1/12, 1/12 over (2,0,1), (1,0,2), (0,3,0), (0,0,3),
    # (3,0,0); the move c->b (rate 1) is a plain ruin 2/3-1/3 between
    # (3,0,0) and (0,3,0).  Folding the returning mass into the diagonal:
    chain = build_chain(path_graph(3), 3)
    sp = chain.space
    pos = {sp.config(int(i)): j for j, i in enumerate(chain.omega)}
    row = chain.M[pos[(2, 0, 1)]]
    assert row[pos[(1, 0, 2)]] == pytest.approx(1 / 2, abs=1e-12)
    assert row[pos[(0, 3, 0)]] == pytest.approx(1.0, abs=1e-12)
    assert row[pos[(0, 0, 3)]] == pytest.approx(1 / 6, abs=1e-12)
    assert row[pos[(3, 0, 0)]] == pytest.approx(5 / 6, abs=1e-12)
    assert row[pos[(2, 0, 1)]] == pytest.approx(-5 / 2, abs=1e-12)
