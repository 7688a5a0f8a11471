"""The four workloads: seeded inputs and the requests of one pass.

Why each workload exists (the acceptance criteria whose hot path it runs):

* ``compare`` (criterion 6): ``compare-dirichlet`` on the 4x4 torus at k=4
  and k=3 and on three small graphs at k=4.  Sites with alpha >= 2 force the
  two-dimensional flow plans, small alpha the stack-move plans.
* ``gap_krylov`` (criteria 3 and 11): gap requests on the 3,876-state
  k=4 generator of the 4x4 torus, solved by shift-invert Krylov iteration.
  Mixed alpha needs a few dozen solves per factorization; the clustered
  bottoms of near-constant alpha need about a hundred; the killed generator
  has no zero mode.
* ``alpha_scan`` (criteria 1, 2 and 3 on small graphs): 150 ``gap --k-max 4
  --eps 1,0.1,0.01`` requests on the ten small standard-suite graphs with
  seeded alpha.  Every generator is small and solved densely, so time goes to
  Python-level assembly and symmetrization and to the crossover bisection of
  the bounds table; the same ten structures recur, so a per-structure cache
  would hit.
* ``random_open`` (criteria 7, 8, 9, 11 and 12): ``metastable`` plus
  ``nonconservative`` on 36 fresh random graphs, six of each size 3 to 8; no
  two requests share a structure, so caches never hit.

Seeded draws are stratified (every graph or vertex count appears equally
often, alpha bands are permuted rather than redrawn) so that the cost of a
pass, not only its inputs, is nearly the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import pipelines
from sipspectra.graphs import WeightedGraph, build_family, graph_to_document

WORKLOADS = ("compare", "gap_krylov", "alpha_scan", "random_open")

SMALL_SUITE = ("complete(2)", "complete(3)", "complete(4)", "path(3)", "path(4)",
               "path(5)", "torus(4)", "torus(5)", "torus(6)", "h_shape")


@dataclass
class Request:
    """One pipeline call; ``params`` follow the graph and its file."""

    kind: str
    graph: WeightedGraph
    params: dict = field(default_factory=dict)
    path: Path | None = None    # the graph file the CLI reads, written by ``build``

    def run(self) -> list[str]:
        return getattr(pipelines, self.kind)(self.graph, self.path, **self.params)

    @property
    def fingerprint(self) -> str:
        doc = {"kind": self.kind, "graph": graph_to_document(self.graph),
               "params": check.plain(self.params)}
        text = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:24]


@dataclass
class Workload:
    name: str
    requests: list[Request]     # one pass, in order
    warmup: Request             # run once during set-up, not timed


def _log_uniform(rng, lo: float, hi: float, size: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _banded_alpha(rng, n: int, high: int) -> np.ndarray:
    """``high`` sites in [2, 3] and the rest in [0.2, 0.5], at seeded positions.

    alpha >= 2 sends every stack of two or more particles through the flow
    plan, alpha <= 0.5 keeps every stack of up to four on the stack-move
    plan, so the plan mix depends only on where the bands sit.
    """
    alpha = np.concatenate([rng.uniform(2.0, 3.0, high), rng.uniform(0.2, 0.5, n - high)])
    return alpha[rng.permutation(n)]


def compare(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 1])
    torus = build_family("torus(4,2)")
    pair = [Request("compare", build_family(spec), {"k": 4}) for spec in ("torus(6)", "h_shape")]
    path5 = Request("compare", build_family("path(5)"), {"k": 4})
    # torus(6) and h_shape take about the same time, path(5) about two thirds
    # of it.  The pair repeats ten times and path(5) four times around the two
    # large requests, so the latency median falls inside the pair's cluster,
    # where a drift in host speed during the pass moves it least.
    requests = [
        *(pair * 3), path5,
        Request("compare", torus.with_alpha(np.full(16, 0.3)), {"k": 3}),
        *(pair * 3), path5,
        Request("compare", torus.with_alpha(_banded_alpha(rng, 16, 4)), {"k": 4}),
        *(pair * 2), path5, *(pair * 2), path5,
    ]
    warmup = Request("compare", build_family("path(3)"), {"k": 4})
    return Workload("compare", requests, warmup)


def _split(rng, alpha: float, n: int) -> np.ndarray:
    """Constant ``alpha`` split by a seeded relative 1e-9, far above rounding.

    Constant alpha makes the bottom of the torus spectrum exactly degenerate,
    and then the number of Krylov solves is decided by rounding: constant
    0.02 needs 624 solves, one ulp above it 4,718 and three ulps below it 68.
    Split by 1e-9 the bottom is still clustered, but a change that moves the
    last bits of alpha moves the count by a few restarts of about fifteen
    solves, not by thousands.
    """
    return alpha * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, n))


def gap_krylov(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 2])
    torus = build_family("torus(4,2)")
    mixed = [torus.with_alpha(_log_uniform(rng, 0.05, 3.0, 16)) for _ in range(2)]
    requests = [
        Request("gap", mixed[0], {"k_max": 4}),
        Request("gap", torus.with_alpha(_split(rng, 0.02, 16)), {"k_max": 4}),
        # exactly degenerate, but it needs 66 to 84 solves within three ulps
        Request("gap", torus, {"k_max": 4}),
        Request("killed_gap", torus, {"omega": np.full(16, 0.5), "k_max": 4}),
        Request("gap", torus.with_alpha(_split(rng, 0.005, 16)), {"k_max": 4}),
        Request("gap", mixed[1], {"k_max": 4}),
    ]
    warmup = Request("gap", torus.with_alpha(_log_uniform(rng, 0.05, 3.0, 16)), {"k_max": 4})
    return Workload("gap_krylov", requests, warmup)


def alpha_scan(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 3])
    bases = [build_family(spec) for spec in SMALL_SUITE]
    order = rng.permutation(np.repeat(np.arange(len(bases)), 15))
    params = {"k_max": 4, "eps": (1.0, 0.1, 0.01)}
    requests = [Request("gap", bases[i].with_alpha(_log_uniform(rng, 0.05, 3.0, bases[i].n)),
                        params) for i in order]
    warmup = Request("gap", bases[3].with_alpha(_log_uniform(rng, 0.05, 3.0, 3)), params)
    return Workload("alpha_scan", requests, warmup)


def random_graph(rng, n: int) -> WeightedGraph:
    """Connected graph: a random spanning tree plus each other edge w.p. 0.3."""
    c = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = order[i], order[rng.integers(0, i)]
        c[u, v] = c[v, u] = rng.uniform(0.5, 2.0)
    for x in range(n):
        for y in range(x + 1, n):
            if c[x, y] == 0.0 and rng.random() < 0.3:
                c[x, y] = c[y, x] = rng.uniform(0.5, 2.0)
    alpha = _log_uniform(rng, 0.1, 3.0, n)
    return WeightedGraph(tuple(chr(ord("a") + i) for i in range(n)), c, alpha)


def _open_request(rng, n: int) -> Request:
    g = random_graph(rng, n)
    omega = np.where(rng.random(n) < 0.3, rng.uniform(0.5, 2.0, n), 0.0)
    if not np.any(omega > 0):
        omega[rng.integers(0, n)] = rng.uniform(0.5, 2.0)
    return Request("open_system", g,
                   {"omega": omega, "k": 4, "eps": (0.1, 0.01), "k_max": 4})


def random_open(seed: int) -> Workload:
    rng = np.random.default_rng([seed, 4])
    sizes = rng.permutation(np.repeat(np.arange(3, 9), 6))
    requests = [_open_request(rng, int(n)) for n in sizes]
    warmup = _open_request(rng, 5)
    return Workload("random_open", requests, warmup)


BY_NAME = {"compare": compare, "gap_krylov": gap_krylov,
            "alpha_scan": alpha_scan, "random_open": random_open}


def build(name: str, seed: int) -> Workload:
    """The workload's requests for ``seed``, with their graph files written."""
    wl = BY_NAME[name](seed)
    for request in [wl.warmup, *wl.requests]:
        request.path = pipelines.graph_file(request.graph)
    return wl
