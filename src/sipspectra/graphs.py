"""Finite weighted graphs with per-site weights.

A graph is a symmetric non-negative conductance matrix ``c[x, y]`` with zero
diagonal together with strictly positive site weights ``alpha[x]``.  Vertex
labels are opaque strings; everything downstream addresses vertices by dense
index, labels only appear at the parsing/reporting boundary.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GraphError",
    "WeightedGraph",
    "GraphMetrics",
    "parse_graph",
    "metrics",
    "shortest_path",
    "torus",
    "complete",
    "path_graph",
    "h_shape",
    "build_family",
]


class GraphError(ValueError):
    """Malformed or inconsistent graph description."""


def _labels(n: int) -> list[str]:
    # single letters for small graphs, so examples read like a-b-c
    if n <= 26:
        return [chr(ord("a") + i) for i in range(n)]
    return [f"v{i}" for i in range(n)]


@dataclass(frozen=True)
class WeightedGraph:
    """Connected graph with symmetric conductances and positive site weights."""

    vertices: tuple[str, ...]
    conductances: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        n = len(self.vertices)
        c = np.asarray(self.conductances, dtype=float)
        a = np.asarray(self.alpha, dtype=float)
        if len(set(self.vertices)) != n:
            raise GraphError("duplicate vertex labels")
        if c.shape != (n, n):
            raise GraphError(f"conductance matrix has shape {c.shape}, expected {(n, n)}")
        if a.shape != (n,):
            raise GraphError(f"alpha has shape {a.shape}, expected {(n,)}")
        if np.any(c < 0):
            raise GraphError("negative conductance")
        if np.any(np.diag(c) != 0):
            raise GraphError("non-zero diagonal conductance (self-loop)")
        if np.any(c != c.T):
            raise GraphError("asymmetric conductance")
        if np.any(a <= 0) or not np.all(np.isfinite(a)):
            raise GraphError("non-positive alpha")
        c.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "conductances", c)
        object.__setattr__(self, "alpha", a)
        if not self._connected():
            raise GraphError("graph is not connected")

    def _connected(self) -> bool:
        n = self.n
        seen = np.zeros(n, dtype=bool)
        queue = deque([0])
        seen[0] = True
        while queue:
            u = queue.popleft()
            for v in np.nonzero(self.conductances[u] > 0)[0]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return bool(seen.all())

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def neighbor_lists(self) -> tuple[np.ndarray, ...]:
        return tuple(np.nonzero(self.conductances[i] > 0)[0] for i in range(self.n))

    @cached_property
    def directed_edges(self) -> tuple[tuple[int, int, float], ...]:
        """All ordered pairs (x, y, c_xy) with positive conductance."""
        c = self.conductances
        xs, ys = np.nonzero(c > 0)
        return tuple((int(x), int(y), float(c[x, y])) for x, y in zip(xs, ys))

    @cached_property
    def undirected_edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(e for e in self.directed_edges if e[0] < e[1])

    @cached_property
    def adjacency(self) -> np.ndarray:
        m = self.conductances > 0
        m.setflags(write=False)
        return m

    def with_alpha(self, alpha) -> "WeightedGraph":
        a = np.broadcast_to(np.asarray(alpha, dtype=float), (self.n,)).copy()
        return WeightedGraph(self.vertices, self.conductances, a)

    def scaled_alpha(self, eps: float) -> "WeightedGraph":
        return self.with_alpha(eps * self.alpha)

    def total_alpha(self) -> float:
        return float(self.alpha.sum())

    def distances_from(self, source: int) -> np.ndarray:
        dist = np.full(self.n, -1, dtype=int)
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self.neighbor_lists[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(int(v))
        return dist

    @cached_property
    def distances(self) -> np.ndarray:
        """All-pairs hop distances, one breadth-first search per source, read-only."""
        table = np.array([self.distances_from(s) for s in range(self.n)])
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class GraphMetrics:
    diameter: int
    c_min: float
    c_max: float
    alpha_min: float
    alpha_max: float
    alpha_ratio: float


def parse_graph(text: str) -> WeightedGraph:
    """Parse the JSON graph schema.

    Schema: ``{"vertices": [str...], "edges": [[u, v, c]...], "alpha": {u: a}}``
    with omitted alpha entries defaulting to 1.0.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"malformed graph document: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise GraphError("malformed graph document: need 'vertices' and 'edges'")
    vertices = doc["vertices"]
    if (not isinstance(vertices, list) or not vertices
            or not all(isinstance(v, str) for v in vertices)):
        raise GraphError("malformed graph document: 'vertices' must be a non-empty string list")
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise GraphError("duplicate vertex labels")
    n = len(vertices)
    c = np.zeros((n, n))
    for e in doc["edges"]:
        if not (isinstance(e, list) and len(e) == 3 and e[0] in index and e[1] in index
                and isinstance(e[2], (int, float))):
            raise GraphError(f"malformed graph document: bad edge entry {e!r}")
        u, v, w = index[e[0]], index[e[1]], float(e[2])
        if u == v:
            raise GraphError(f"non-zero diagonal conductance (self-loop) at {e[0]!r}")
        if w < 0:
            raise GraphError(f"negative conductance on edge {e[0]!r}-{e[1]!r}")
        # both orientations may be listed, but they must agree
        for a, b in ((u, v), (v, u)):
            if c[a, b] != 0 and c[a, b] != w:
                raise GraphError(f"asymmetric conductance on edge {e[0]!r}-{e[1]!r}")
        c[u, v] = c[v, u] = w
    alpha = np.ones(n)
    for label, value in (doc.get("alpha") or {}).items():
        if label not in index:
            raise GraphError(f"alpha entry for unknown vertex {label!r}")
        if not isinstance(value, (int, float)):
            raise GraphError(f"non-numeric alpha for vertex {label!r}")
        alpha[index[label]] = float(value)
    if np.any(alpha <= 0):
        raise GraphError("non-positive alpha")
    try:
        return WeightedGraph(tuple(vertices), c, alpha)
    except GraphError:
        raise
    except ValueError as exc:  # pragma: no cover - defensive
        raise GraphError(str(exc)) from None


def graph_to_document(g: WeightedGraph) -> dict:
    """Inverse of parse_graph, used to canonicalize family specs."""
    return {
        "vertices": list(g.vertices),
        "edges": [[g.vertices[x], g.vertices[y], c] for x, y, c in g.undirected_edges],
        "alpha": {v: float(a) for v, a in zip(g.vertices, g.alpha)},
    }


def metrics(g: WeightedGraph) -> GraphMetrics:
    c = g.conductances
    positive = c[c > 0]
    diam = int(g.distances.max()) if g.n > 1 else 1
    amin = float(g.alpha.min())
    amax = float(g.alpha.max())
    return GraphMetrics(
        diameter=max(diam, 1),
        c_min=float(positive.min()),
        c_max=float(c.max()),
        alpha_min=amin,
        alpha_max=amax,
        alpha_ratio=amin / amax,
    )


def shortest_path(g: WeightedGraph, x: str, y: str) -> list[str]:
    """Deterministic geodesic from x to y.

    Ties are broken by always stepping to the lexicographically smallest
    neighbor label among those that stay on a shortest path to y.
    """
    xi, yi = g.vertex_index[x], g.vertex_index[y]
    if xi == yi:
        raise ValueError("shortest_path requires distinct endpoints")
    dist = g.distances[yi]
    path = [xi]
    cur = xi
    while cur != yi:
        options = [int(v) for v in g.neighbor_lists[cur] if dist[v] == dist[cur] - 1]
        cur = min(options, key=lambda v: g.vertices[v])
        path.append(cur)
    return [g.vertices[i] for i in path]


def torus(n: int, d: int = 1, alpha=None) -> WeightedGraph:
    """Discrete torus (Z_n)^d with unit conductances."""
    if n < 3:
        raise GraphError("torus requires n >= 3")
    if d < 1:
        raise GraphError("torus requires d >= 1")
    coords = np.indices((n,) * d).reshape(d, -1).T
    if d == 1:
        labels = tuple(str(i) for i in range(n))
    else:
        labels = tuple(",".join(map(str, c)) for c in coords)
    size = n**d
    c = np.zeros((size, size))
    strides = np.array([n ** (d - 1 - i) for i in range(d)])
    flat = coords @ strides
    for axis in range(d):
        shifted = coords.copy()
        shifted[:, axis] = (shifted[:, axis] + 1) % n
        to = shifted @ strides
        c[flat, to] = 1.0
        c[to, flat] = 1.0
    return WeightedGraph(labels, c, _family_alpha(size, alpha))


def complete(n: int, alpha=None) -> WeightedGraph:
    if n < 2:
        raise GraphError("complete graph requires n >= 2")
    c = np.ones((n, n)) - np.eye(n)
    return WeightedGraph(tuple(_labels(n)), c, _family_alpha(n, alpha))


def path_graph(n: int, alpha=None) -> WeightedGraph:
    if n < 2:
        raise GraphError("path requires n >= 2")
    c = np.zeros((n, n))
    for i in range(n - 1):
        c[i, i + 1] = c[i + 1, i] = 1.0
    return WeightedGraph(tuple(_labels(n)), c, _family_alpha(n, alpha))


def h_shape(alpha=None) -> WeightedGraph:
    """Six-vertex H: two three-site legs 1-2-3 and 4-5-6 bridged by 2-5."""
    labels = tuple(str(i) for i in range(1, 7))
    c = np.zeros((6, 6))
    for u, v in ((1, 2), (2, 3), (2, 5), (4, 5), (5, 6)):
        c[u - 1, v - 1] = c[v - 1, u - 1] = 1.0
    return WeightedGraph(labels, c, _family_alpha(6, alpha))


def _family_alpha(n: int, alpha) -> np.ndarray:
    if alpha is None:
        return np.ones(n)
    return np.broadcast_to(np.asarray(alpha, dtype=float), (n,)).copy()


def build_family(spec: str) -> WeightedGraph:
    """Build a named graph family from a spec like ``torus(4,2)`` or ``h_shape``."""
    spec = spec.strip()
    name, args = spec, []
    if "(" in spec:
        if not spec.endswith(")"):
            raise GraphError(f"malformed family spec {spec!r}")
        name, rest = spec.split("(", 1)
        body = rest[:-1].strip()
        if body:
            try:
                args = [int(a) for a in body.split(",")]
            except ValueError:
                raise GraphError(f"malformed family spec {spec!r}") from None
    name = name.strip().lower()
    if name == "torus":
        if len(args) == 1:
            return torus(args[0], 1)
        if len(args) == 2:
            return torus(args[0], args[1])
        raise GraphError("torus takes (n) or (n, d)")
    if name == "complete" and len(args) == 1:
        return complete(args[0])
    if name == "path" and len(args) == 1:
        return path_graph(args[0])
    if name in ("h_shape", "hshape") and not args:
        return h_shape()
    raise GraphError(f"unknown family spec {spec!r}")
