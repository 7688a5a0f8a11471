import numpy as np
import pytest

from sipspectra import spectral
from sipspectra.acceptance import MIXED_PATTERN
from sipspectra.experiments import (
    _separation_jumps,
    difference_walk_rate,
    kac_first_escape,
    quadratic_crossover,
    unit_walk_gap,
)
from sipspectra.graphs import WeightedGraph, complete, h_shape, path_graph, torus


@pytest.mark.parametrize("d", [1, 2])
def test_separation_jumps_rates_and_escape_time(d):
    n = 5
    jumps = _separation_jumps(n, d)
    assert jumps.shape == (n**d, n**d)
    assert jumps.diagonal().max() == 0.0
    np.testing.assert_array_equal(np.asarray(jumps.sum(axis=1)).ravel(), 4.0 * d)
    # symmetric: the walk steps to each neighbor and back at the same rate
    assert abs(jumps - jumps.T).max() == 0.0
    assert kac_first_escape(n, d) == 1.0 / (4.0 * d)


def test_difference_walk_rate_iterative_is_reproducible():
    # 35^2 sites less the 5-site contact zone: 1,220 states, the eigsh branch
    n, d = 35, 2
    first = difference_walk_rate(n, d)
    assert difference_walk_rate(n, d) == first
    coords = np.indices((n,) * d).reshape(d, -1).T
    keep = np.nonzero(np.minimum(coords, n - coords).sum(axis=1) >= 2)[0]
    assert keep.size > spectral.BOTTOM_DENSE_CAP
    neg = 4.0 * d * np.eye(keep.size) - _separation_jumps(n, d)[keep][:, keep].toarray()
    assert abs(first - np.linalg.eigvalsh(neg)[0]) < 1e-10


# recorded from the graph-rebuilding bisection that the scalar margins replace
PINNED_CROSSOVER = [
    (path_graph(3, alpha=(0.4, 1.0, 2.0)), 0.00021124007038849697),
    (h_shape(alpha=MIXED_PATTERN), 6.377407462104836e-05),
    (torus(6, 1, alpha=MIXED_PATTERN), 4.5697834694430835e-05),
    (complete(4, alpha=0.5), 0.000743057667620408),
    (path_graph(5, alpha=(1.7955, 0.243, 0.0575, 1.0099, 1.6844)), 9.218617178739007e-05),
]


@pytest.mark.parametrize("g, expected", PINNED_CROSSOVER)
def test_quadratic_crossover_pinned(g, expected):
    assert quadratic_crossover(g, unit_walk_gap(g)) == expected


def test_quadratic_crossover_runs_one_diameter_sweep(monkeypatch):
    calls = []
    bfs = WeightedGraph.distances_from

    def counting(self, source):
        calls.append(source)
        return bfs(self, source)

    monkeypatch.setattr(WeightedGraph, "distances_from", counting)
    g = h_shape(alpha=MIXED_PATTERN)
    assert quadratic_crossover(g, unit_walk_gap(g)) is not None
    assert 0 < len(calls) <= g.n
