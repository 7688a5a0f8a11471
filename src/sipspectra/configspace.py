"""Enumeration and indexing of k-particle configuration spaces.

A configuration is an occupation vector over the vertices; the space of all
k-particle configurations is enumerated once in ascending lexicographic order
and ranked by one vectorized lexicographic ranker.  Adding a particle at a
site maps the (k-1)-particle space into this one; that map is tabulated, and
every particle jump, removal and addition reads the table.  Neither table
depends on the edges, so both are shared, read-only, by every graph with the
same number of vertices: a bounded memo keyed by (n, k) holds the
occupations and the addition table of the most recently used shapes.
The partition into the interaction-absorbing part (no two adjacent occupied
sites) and its complement, refined by the number of occupied sites
("stacks"), is computed at enumeration time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .graphs import WeightedGraph

__all__ = [
    "SpaceCapExceeded",
    "ConfigSpace",
    "enumerate_configs",
]

DEFAULT_CAP = 300_000  # state-space budget: the default of --budget and of every cap
SHARED_SHAPES = 32  # (n, k) shapes whose tables the memo keeps


class SpaceCapExceeded(RuntimeError):
    """Requested state space is larger than the configured cap."""


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class ConfigSpace:
    """Indexed k-particle configuration space over a fixed graph."""

    graph: WeightedGraph
    k: int
    occupations: np.ndarray  # (size, n) in ascending lexicographic order

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    @property
    def n_sites(self) -> int:
        return self.occupations.shape[1]

    def config(self, i: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.occupations[i])

    def index_of(self, occupation) -> int:
        """Index of one occupation; KeyError if it is not in this space."""
        row = np.asarray(occupation, dtype=np.int64)
        if row.shape != (self.n_sites,) or row.min() < 0 or row.sum() != self.k:
            raise KeyError(tuple(occupation))
        return int(self.rank_rows(row[None, :])[0])

    @cached_property
    def _tails(self) -> np.ndarray:
        # _tails[rem, p] = C(rem + p, p): configurations of <= rem particles
        # on p sites; only remainders up to k occur, keeping entries small.
        n, k = self.n_sites, self.k
        table = np.ones((k + 1, n + 1), dtype=np.int64)
        for rem in range(1, k + 1):
            for p in range(1, n + 1):
                table[rem, p] = table[rem - 1, p] + table[rem, p - 1]
        return table

    def rank_rows(self, occ: np.ndarray) -> np.ndarray:
        """Vectorized lexicographic rank of occupation rows (shape (m, n))."""
        occ = np.asarray(occ, dtype=np.int64)
        n, k = self.n_sites, self.k
        tails = self._tails
        rem = k - np.cumsum(occ, axis=1) + occ  # particles left from column j on
        ranks = np.zeros(occ.shape[0], dtype=np.int64)
        for j in range(n - 1):
            p = n - 1 - j
            ranks += tails[rem[:, j], p] - tails[rem[:, j] - occ[:, j], p]
        return ranks

    @cached_property
    def up(self) -> np.ndarray:
        """up[x, i]: index of the i-th (k-1)-configuration plus a particle at x.

        Rows with a particle at site 0, less that particle, are the (k-1)
        space in its own lexicographic order, so no second enumeration is
        needed.  A jump x -> y is the index pair (up[x], up[y]); a removal
        at x is (up[x], arange) and an addition at x is (arange, up[x]).
        The table is built once per (n, k) shape and shared.
        """
        shape = _shape(self.n_sites, self.k)
        if shape.up is None:
            lower = self.occupations[self.occupations[:, 0] > 0]
            lower[:, 0] -= 1
            table = np.empty((self.n_sites, lower.shape[0]), dtype=np.int64)
            for x in range(self.n_sites):
                lower[:, x] += 1
                table[x] = self.rank_rows(lower)
                lower[:, x] -= 1
            table.setflags(write=False)
            shape.up = table
        return shape.up

    # -- partition into absorbing / transient parts -------------------------

    @cached_property
    def delta_mask(self) -> np.ndarray:
        """True where some edge joins two occupied sites."""
        occupied = (self.occupations > 0)
        touched = occupied @ self.graph.adjacency
        mask = np.any(occupied & touched, axis=1)
        mask.setflags(write=False)
        return mask

    @cached_property
    def omega_mask(self) -> np.ndarray:
        mask = ~self.delta_mask
        mask.setflags(write=False)
        return mask

    @cached_property
    def omega(self) -> np.ndarray:
        return np.nonzero(self.omega_mask)[0]

    @cached_property
    def delta(self) -> np.ndarray:
        return np.nonzero(self.delta_mask)[0]

    @cached_property
    def stack_counts(self) -> np.ndarray:
        counts = np.count_nonzero(self.occupations, axis=1)
        counts.setflags(write=False)
        return counts

    @cached_property
    def omega_by_stacks(self) -> dict[int, np.ndarray]:
        """m -> global indices of absorbing configurations with m stacks."""
        out: dict[int, np.ndarray] = {}
        counts = self.stack_counts
        for m in range(1, self.k + 1):
            idx = np.nonzero(self.omega_mask & (counts == m))[0]
            if idx.size:
                out[m] = idx
        return out


class _Shape:
    """Read-only tables of the k-particle space on n sites."""

    def __init__(self, n: int, k: int):
        size = comb(n + k - 1, k)
        occ = np.fromiter(
            (v for c in _compositions(k, n) for v in c), dtype=np.int64, count=size * n
        ).reshape(size, n)
        occ.setflags(write=False)
        self.occupations = occ
        self.up: np.ndarray | None = None  # filled by the first ConfigSpace.up


@lru_cache(maxsize=SHARED_SHAPES)
def _shape(n: int, k: int) -> _Shape:
    return _Shape(n, k)


def enumerate_configs(g: WeightedGraph, k: int, cap: int = DEFAULT_CAP) -> ConfigSpace:
    """Enumerate the k-particle configuration space on g.

    The occupation table is shared by every graph with as many vertices.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    size = comb(g.n + k - 1, k)
    if size > cap:
        raise SpaceCapExceeded(
            f"configuration space has {size} states, above the cap {cap}"
        )
    return ConfigSpace(graph=g, k=k, occupations=_shape(g.n, k).occupations)
