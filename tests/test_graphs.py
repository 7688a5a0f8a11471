import json

import numpy as np
import pytest

from sipspectra.graphs import (
    GraphError,
    WeightedGraph,
    build_family,
    complete,
    h_shape,
    metrics,
    parse_graph,
    path_graph,
    shortest_path,
    torus,
)

H_SHAPE_DOC = json.dumps({
    "vertices": ["1", "2", "3", "4", "5", "6"],
    "edges": [["1", "2", 1], ["2", "3", 1], ["2", "5", 1],
              ["4", "5", 1], ["5", "6", 1]],
})


def test_parse_minimal_two_vertex():
    g = parse_graph(json.dumps({
        "vertices": ["a", "b"], "edges": [["a", "b", 1.0]],
    }))
    assert g.n == 2
    assert g.conductances[0, 1] == 1.0
    assert np.all(g.alpha == 1.0)


def test_parse_rejects_conflicting_orientations():
    doc = json.dumps({
        "vertices": ["a", "b"],
        "edges": [["a", "b", 1.0], ["b", "a", 2.0]],
    })
    with pytest.raises(GraphError, match="asymmetric conductance"):
        parse_graph(doc)


def test_parse_distinct_diagnostics():
    with pytest.raises(GraphError, match="malformed"):
        parse_graph("{not json")
    with pytest.raises(GraphError, match="non-positive alpha"):
        parse_graph(json.dumps({
            "vertices": ["a", "b"], "edges": [["a", "b", 1]],
            "alpha": {"a": 0.0},
        }))
    with pytest.raises(GraphError, match="not connected"):
        parse_graph(json.dumps({
            "vertices": ["a", "b", "c"], "edges": [["a", "b", 1]],
        }))
    with pytest.raises(GraphError, match="self-loop"):
        parse_graph(json.dumps({
            "vertices": ["a", "b"], "edges": [["a", "a", 1], ["a", "b", 1]],
        }))


def test_h_shape_document_matches_builder():
    g = parse_graph(H_SHAPE_DOC)
    h = h_shape()
    assert g.vertices == h.vertices
    assert np.array_equal(g.conductances, h.conductances)
    # oracle: breadth-first search by hand on the six-vertex graph gives 3
    # (the farthest leaves, e.g. 1 and 4, are joined through 2-5)
    assert metrics(g).diameter == 3
    assert metrics(g).c_min == 1.0


def test_metrics_complete_and_path():
    m = metrics(complete(4))
    assert m.diameter == 1 and m.alpha_ratio == 1.0
    m = metrics(path_graph(3, alpha=(2.0, 1.0, 4.0)))
    assert m.alpha_min == 1.0
    assert m.alpha_max == 4.0
    assert m.alpha_ratio == 0.25


def test_shortest_path_examples():
    assert shortest_path(complete(4), "a", "b") == ["a", "b"]
    assert shortest_path(path_graph(3), "a", "c") == ["a", "b", "c"]
    assert shortest_path(h_shape(), "1", "3") == ["1", "2", "3"]


def test_shortest_path_deterministic_and_geodesic():
    rng = np.random.default_rng(0)
    graphs = [torus(5, 1), torus(4, 2), complete(5), h_shape(), path_graph(6)]
    checked = 0
    while checked < 1000:
        g = graphs[rng.integers(len(graphs))]
        x, y = rng.choice(g.n, size=2, replace=False)
        lx, ly = g.vertices[x], g.vertices[y]
        p1 = shortest_path(g, lx, ly)
        p2 = shortest_path(g, lx, ly)
        assert p1 == p2
        dist = g.distances_from(x)[y]
        assert len(p1) - 1 == dist
        idx = [g.vertex_index[v] for v in p1]
        assert all(g.conductances[a, b] > 0 for a, b in zip(idx, idx[1:]))
        checked += 1


def test_geodesics_and_metrics_read_one_distance_table(monkeypatch):
    g = torus(4, 2)
    sources = []
    bfs = WeightedGraph.distances_from

    def counting(self, source):
        sources.append(source)
        return bfs(self, source)

    monkeypatch.setattr(WeightedGraph, "distances_from", counting)
    for x in g.vertices:
        for y in g.vertices:
            if x != y:
                shortest_path(g, x, y)
    assert metrics(g).diameter == 4
    assert sources == list(range(g.n))
    assert np.array_equal(g.distances, np.array([bfs(g, s) for s in range(g.n)]))
    with pytest.raises(ValueError):
        g.distances[0, 1] = 0


def test_torus_structure():
    t = torus(4, 2)
    assert t.n == 16
    degrees = (t.conductances > 0).sum(axis=1)
    assert np.all(degrees == 4)
    assert np.array_equal(t.conductances, t.conductances.T)
    assert np.all(np.diag(t.conductances) == 0)


def test_families_symmetric_zero_diagonal():
    for g in (torus(3, 1), torus(5, 2), complete(3), path_graph(4), h_shape()):
        assert np.array_equal(g.conductances, g.conductances.T)
        assert np.all(np.diag(g.conductances) == 0)


def test_h_shape_edge_set():
    g = h_shape()
    edges = {(g.vertices[x], g.vertices[y]) for x, y, _ in g.undirected_edges}
    assert edges == {("1", "2"), ("2", "3"), ("2", "5"), ("4", "5"), ("5", "6")}


def test_build_family_specs():
    assert build_family("torus(4,2)").n == 16
    assert build_family("complete(3)").n == 3
    assert build_family("path(5)").n == 5
    assert build_family("h_shape").n == 6
    with pytest.raises(GraphError):
        build_family("torus(2)")
    with pytest.raises(GraphError):
        build_family("blob(3)")


def test_document_round_trip():
    from sipspectra.graphs import graph_to_document

    g = path_graph(4, alpha=(0.5, 1.0, 2.0, 0.25))
    back = parse_graph(json.dumps(graph_to_document(g)))
    assert back.vertices == g.vertices
    assert np.array_equal(back.conductances, g.conductances)
    assert np.array_equal(back.alpha, g.alpha)


def test_parse_rejects_non_numeric_entries():
    with pytest.raises(GraphError, match="bad edge entry"):
        parse_graph(json.dumps({
            "vertices": ["a", "b"], "edges": [["a", "b", "one"]],
        }))
    with pytest.raises(GraphError, match="non-numeric alpha"):
        parse_graph(json.dumps({
            "vertices": ["a", "b"], "edges": [["a", "b", 1]],
            "alpha": {"a": "two"},
        }))
