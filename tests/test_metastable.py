import math
import sys

import numpy as np
import pytest

from sipspectra import cli, metastable, spectral
from sipspectra.acceptance import EPS_GRID, SLOW_FAST_INSTANCES
from sipspectra.configspace import DEFAULT_CAP, enumerate_configs
from sipspectra.generators import (
    CertificationError,
    build_killed,
    build_sip,
    build_slow_fast,
    combine_slow_fast,
)
from sipspectra.graphs import WeightedGraph, complete, h_shape, path_graph, torus
from sipspectra.metastable import (
    build_chain,
    harmonic_projection,
    lambda_km,
    restricted_annihilation,
    restricted_annihilation_residual,
    slow_fast_convergence,
    w_k,
)
from sipspectra.spectral import expm_action, gap_and_semigroup, spectral_gap

CHAIN_CASES = [
    (path_graph(3), 2),
    (path_graph(3, alpha=(0.5, 1.0, 2.0)), 3),
    (path_graph(4), 4),
    (torus(4, 1), 3),
    (torus(5, 1), 3),
    (h_shape(), 4),
    (complete(3), 3),
]


def _projection(g, k):
    return harmonic_projection(build_slow_fast(g, k)[1])


def test_projection_two_exit_split():
    proj = _projection(path_graph(3), 2)
    space = proj.space
    row = proj.matrix[space.index_of((1, 1, 0))]
    targets = {space.config(space.omega[j]): v for j, v in enumerate(row) if v > 0}
    assert targets == {(2, 0, 0): pytest.approx(0.5), (0, 2, 0): pytest.approx(0.5)}


def test_projection_point_masses_and_row_sums():
    for g, k in CHAIN_CASES:
        proj = _projection(g, k)
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
        proj = _projection(path_graph(2), k)
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
    assert chain.blocks[1].rate == pytest.approx(1.0)


def test_single_stack_gap_ignores_a_rounding_leak():
    # these conductances leave row sums of -1e-16 in the closed single-stack
    # block; read as killing, they would turn the gap into the zero mode
    c = np.array([[0.0, 0.7, 0.0], [0.7, 0.0, 1.3], [0.0, 1.3, 0.0]])
    chain = build_chain(WeightedGraph(("a", "b", "c"), c, np.array([0.5, 1.0, 2.0])), 2)
    assert np.any(chain.blocks[1].matrix.sum(axis=1) < 0.0)
    walk = np.sort(np.linalg.eigvals(-chain.blocks[1].matrix).real)
    assert chain.blocks[1].rate == pytest.approx(walk[1], rel=1e-10)


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
        _projection(path_graph(3), 2)


def test_singular_transient_block_is_a_certificate_failure():
    g = path_graph(3)
    space = enumerate_configs(g, 2)
    _, B = build_slow_fast(g, 2, space)
    rates = B.rates.tolil()
    row = space.delta[0]
    rates[row, :] = 0.0  # a transient state that never moves
    B.rates = rates.tocsr()
    B.diagonal[row] = 0.0
    with pytest.raises(CertificationError, match="singular transient block"):
        harmonic_projection(B)


def test_metastable_command_builds_each_limit_chain_once(monkeypatch, capsys):
    # and each piece of a chain once: its slow-fast pair, and per stack
    # sector one generator and one eigensolve
    chains, pairs, block_generators, sector_solves = [], [], [], []
    build, split, make, symmetrized = (metastable.build_chain, metastable.build_slow_fast,
                                       metastable.GeneratorMatrix, spectral.symmetrized)

    def counted_build(g, k, space=None):
        chains.append(k)
        return build(g, k, space)

    def counted_split(g, k, space=None):
        pairs.append(k)
        return split(g, k, space)

    def counted_make(*args, **kwargs):
        L = make(*args, **kwargs)
        if L.reference is not None:  # a stack block; the limit generator has none
            block_generators.append(L.size)
        return L

    def counted_symmetrized(L, dense):
        if L.space is None:  # a stack block, not a full-space generator
            sector_solves.append(L.size)
        return symmetrized(L, dense)

    monkeypatch.setattr(metastable, "build_chain", counted_build)
    monkeypatch.setattr(metastable, "build_slow_fast", counted_split)
    monkeypatch.setattr(metastable, "GeneratorMatrix", counted_make)
    monkeypatch.setattr(spectral, "symmetrized", counted_symmetrized)
    code = cli.main(["metastable", "--family", "h_shape", "--k", "4", "--eps", "0.1,0.01"])
    assert code == cli.EXIT_PASS
    assert '"slow_fast_convergence"' in capsys.readouterr().out
    assert sorted(chains) == sorted(pairs) == [3, 4]
    assert len(block_generators) == 4  # the four stack sectors of the k = 4 chain
    assert len(sector_solves) == 4  # one rate per sector, read by w_k and the report
    assert sorted(sector_solves) == sorted(block_generators)


def test_metastable_budget_reaches_the_lower_chain(monkeypatch, capsys):
    caps = []

    def counted_enumerate(g, k, cap=DEFAULT_CAP):
        caps.append(cap)
        return enumerate_configs(g, k, cap)

    for name, module in list(sys.modules.items()):
        if name.startswith("sipspectra") and getattr(module, "enumerate_configs", None) is enumerate_configs:
            monkeypatch.setattr(module, "enumerate_configs", counted_enumerate)
    code = cli.main(["metastable", "--family", "path(3)", "--k", "3", "--budget", "400000"])
    assert code == cli.EXIT_PASS
    assert '"restricted_intertwining"' in capsys.readouterr().out
    assert len(caps) == 2  # the k chain and the k - 1 chain
    assert all(cap == 400_000 for cap in caps)


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
    assert restricted_annihilation_residual(build_chain(g, k), build_chain(g, k - 1)) < tol


def test_restricted_annihilation_rejects_a_mismatched_lower_chain():
    g = path_graph(3)
    chain = build_chain(g, 3)
    for prev in (build_chain(g, 1), build_chain(path_graph(3, alpha=2.0), 2),
                 build_chain(complete(3), 2)):
        with pytest.raises(ValueError, match="2 particles on the same graph"):
            restricted_annihilation(chain, prev)
    # an equal graph built separately is the same graph
    assert restricted_annihilation_residual(chain, build_chain(path_graph(3), 2)) < 1e-10


def test_slow_fast_convergence_rows():
    rows = slow_fast_convergence(build_chain(path_graph(3), 2), t=1.0,
                                 eps_grid=(1e-1, 1e-2, 1e-3))
    devs = [r.semigroup_deviation for r in rows]
    assert all(devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
    assert devs[-1] < 0.05
    assert rows[-1].min_absorbing_mass >= 0.99
    assert all(r.gap_ratio_error < 1e-8 for r in rows)


@pytest.mark.parametrize("g, k", [(path_graph(3, alpha=(0.5, 1.0, 2.0)), 3),
                                  (h_shape(), 3), (torus(8, 1), 2)])
def test_slow_fast_gap_ratio_reads_the_combined_generator(g, k, monkeypatch):
    # A + B/eps is the eps * alpha generator over eps: no generator is rebuilt
    chain = build_chain(g, k)
    built = []

    def counting_sip(*args, **kwargs):
        built.append(args)
        return build_sip(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sipspectra") and getattr(module, "build_sip", None) is build_sip:
            monkeypatch.setattr(module, "build_sip", counting_sip)
    rows = slow_fast_convergence(chain, t=1.0, eps_grid=(1e-1, 1e-2))
    assert built == []
    for row in rows:
        rebuilt = spectral_gap(build_sip(g.scaled_alpha(row.eps), k)) / row.eps
        assert abs(row.gap_ratio - rebuilt) <= 1e-10 * rebuilt


@pytest.mark.parametrize("g, k", [(path_graph(3, alpha=(0.5, 1.0, 2.0)), 3), (h_shape(), 3)])
def test_slow_fast_makes_one_eigendecomposition_per_eps(g, k, monkeypatch):
    # the limit semigroup is the one uniformization; each eps diagonalizes
    # the combined generator once, for its gap and its semigroup together
    chain = build_chain(g, k)
    assert chain.space.size <= spectral.BOTTOM_DENSE_CAP
    w_k(chain)  # the sector rates are cached on the chain
    calls = {"expm_action": 0, "eigh": 0, "eigvalsh": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name, module in list(sys.modules.items()):
        if name.startswith("sipspectra") and getattr(module, "expm_action", None) is expm_action:
            monkeypatch.setattr(module, "expm_action", counting("expm_action", expm_action))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    slow_fast_convergence(chain, t=1.0, eps_grid=(1e-1, 1e-2))
    assert calls == {"expm_action": 1, "eigh": 2, "eigvalsh": 0}


def _random_connected(rng, n):
    c = np.zeros((n, n))
    for v in range(1, n):  # a random spanning tree, then extra edges
        u = int(rng.integers(v))
        c[u, v] = c[v, u] = rng.uniform(0.5, 2.0)
    for u in range(n):
        for v in range(u + 1, n):
            if c[u, v] == 0.0 and rng.random() < 0.3:
                c[u, v] = c[v, u] = rng.uniform(0.5, 2.0)
    alpha = np.exp(rng.uniform(math.log(0.1), math.log(3.0), n))
    return WeightedGraph(tuple(f"v{i}" for i in range(n)), c, alpha)


def _slow_fast_cases():
    """(name, graph, k, eps grid): criterion 9's instances, then seeded
    random connected graphs at k = 4."""
    for gname, g in SLOW_FAST_INSTANCES:
        for k in (1, 2, 3):
            yield gname, g, k, EPS_GRID
    rng = np.random.default_rng(20)
    for n in range(3, 9):
        yield f"random_{n}", _random_connected(rng, n), 4, (1e-1, 1e-2, 1e-3)


def test_gap_and_semigroup_matches_uniformization():
    rng = np.random.default_rng(9)
    for gname, g, k, eps_grid in _slow_fast_cases():
        A, B = build_slow_fast(g, k)
        for eps in eps_grid:
            L = combine_slow_fast(A, B, eps)
            F = np.column_stack([np.ones(L.size), rng.uniform(-1.0, 1.0, (L.size, 3))])
            gap, evolved = gap_and_semigroup(L, 1.0, F)
            reference = spectral_gap(L)
            case = f"{gname} k={k} eps={eps:g}"
            assert abs(gap - reference) <= 1e-10 * reference, case
            assert np.abs(evolved - expm_action(L, 1.0, F)).max() <= 1e-9, case
    L = build_killed(path_graph(3), 0.5, 2)
    with pytest.raises(ValueError, match="conservative"):
        gap_and_semigroup(L, 1.0, np.ones(L.size))


def test_slow_fast_crossover_instance():
    # on the eight-cycle the two-stack rate undercuts the walk gap, so the
    # rescaled gap genuinely converges from above
    g = torus(8, 1)
    chain = build_chain(g, 2)
    assert lambda_km(chain, 2) < chain.blocks[1].rate
    wk = w_k(chain)
    errs = [abs(spectral_gap(build_sip(g.scaled_alpha(e), 2)) / e - wk)
            for e in (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)]
    assert all(errs[i + 1] <= errs[i] + 1e-12 for i in range(len(errs) - 1))
    assert errs[-1] < 1e-2 * wk
    assert errs[0] > 1e-3  # non-trivial convergence, not an exact identity


def test_slow_fast_rejects_tiny_diffusivity():
    with pytest.raises(ValueError, match="below"):
        slow_fast_convergence(build_chain(path_graph(3), 2), t=1.0, eps_grid=(1e-2, 1e-4))


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
