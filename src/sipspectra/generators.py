"""Rate-matrix assembly for the inclusion dynamics and its relatives.

All generators are stored as a sparse off-diagonal rate matrix plus an
explicit diagonal.  Killed (sub-stochastic) generators carry the per-state
killing rate instead of a ghost cemetery state; their spectra refer to the
restricted matrix.

Which configurations a particle jump connects depends only on the edge set
and the particle number; alpha and the conductance values enter the rates
alone.  That sparsity pattern, a skeleton (the CSR structure in canonical
order and, per entry, the occupations of the two sites and the directed
edge), is built once per edge set and (n, k) and kept read-only in a bounded
memo keyed by the adjacency matrix's bytes, n and k.  Assembling a generator
evaluates its rates on the skeleton's entries and gives the matrix its own
copy of the index arrays, so nothing written into a generator reaches the
memo.  Distinct edges lead from one configuration to distinct ones, so no
entry is ever accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations, product

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from .configspace import DEFAULT_CAP, ConfigSpace, SpaceCapExceeded, enumerate_configs
from .graphs import WeightedGraph
from .measures import WeightedMeasure, mu

__all__ = [
    "CertificationError",
    "GeneratorMatrix",
    "LabeledSpace",
    "build_sip",
    "build_slow_fast",
    "build_killed",
    "build_lookdown",
    "combine_slow_fast",
    "open_generator_apply",
    "dirichlet_form",
    "symmetrize_labels",
    "label_pullback",
]

ASYMMETRY_TOL = 1e-10  # relative asymmetry that fails a reversibility certificate
SHARED_SKELETONS = 64  # (edge set, n, k) skeletons the memo keeps


class CertificationError(ValueError):
    """A numerical certificate failed: the computation is wired wrongly.

    A subclass of ValueError, so handlers written for the untyped errors keep
    working; the command line reports it as a failed check, not an input error.
    """


@dataclass
class GeneratorMatrix:
    """Sparse rate matrix with explicit diagonal and optional killing."""

    space: object
    rates: sp.csr_matrix
    diagonal: np.ndarray
    kill: np.ndarray | None = None
    reference: WeightedMeasure | None = None

    @property
    def size(self) -> int:
        return self.diagonal.shape[0]

    @property
    def conservative(self) -> bool:
        return self.kill is None or not np.any(self.kill > 0)

    def matvec(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.ndim == 1:
            return self.rates @ f + self.diagonal * f
        return self.rates @ f + self.diagonal[:, None] * f

    def as_dense(self) -> np.ndarray:
        out = self.rates.toarray()
        out[np.diag_indices_from(out)] += self.diagonal
        return out

    def as_sparse(self) -> sp.csr_matrix:
        return (self.rates + sp.diags(self.diagonal)).tocsr()

    def row_sum_residual(self) -> float:
        """Max |row sum + kill| (zero for a correctly assembled generator)."""
        sums = np.asarray(self.rates.sum(axis=1)).ravel() + self.diagonal
        if self.kill is not None:
            sums = sums + self.kill
        return float(np.abs(sums).max(initial=0.0))

    def carrier(self) -> np.ndarray:
        """Symmetrized conductances mu(eta) r(eta, xi) (requires reference)."""
        if self.reference is None:
            raise ValueError("generator carries no reference measure")
        coo = self.rates.tocoo()
        w = self.reference.weights
        return sp.coo_matrix((w[coo.row] * coo.data, (coo.row, coo.col)),
                             shape=coo.shape).tocsr()

    def detailed_balance_residual(self) -> float:
        return _asymmetry(self.carrier())


def _asymmetry(carrier: sp.csr_matrix) -> float:
    """Largest |c(eta, xi) - c(xi, eta)| of a carrier."""
    return float(np.abs((carrier - carrier.T).data).max(initial=0.0))


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """The alpha-free sparsity pattern of the k-particle generator on one edge set.

    ``indptr``/``indices`` are the CSR structure in canonical order (rows
    ascending, columns ascending within a row) of every jump x -> y over the
    directed edges (x, y); entry j moves a particle from a site holding
    ``eta_x[j]`` to one holding ``eta_y[j]`` along directed edge ``edge[j]``
    (``np.nonzero(adjacency)`` order).  All arrays are read-only.
    """

    indptr: np.ndarray
    indices: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray
    edge: np.ndarray

    @classmethod
    def build(cls, adjacency: np.ndarray, space: ConfigSpace) -> "_Skeleton":
        occ, up, size = space.occupations, space.up, space.size
        xs, ys = np.nonzero(adjacency)
        rows, cols = up[xs].ravel(), up[ys].ravel()  # edge by edge
        # (row, column) pairs are distinct: a jump along another edge lands elsewhere
        order = np.argsort(rows * size + cols, kind="stable")
        indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
        # row up[x, r] is the r-th (k - 1)-configuration plus a particle at x;
        # occupations and edge numbers are kept in the narrowest exact type
        lower = occ[up[0]].T.astype(np.min_scalar_type(space.k))
        lower[0] -= 1
        edge = (order // up.shape[1]).astype(np.min_scalar_type(max(xs.size - 1, 0)))
        arrays = (indptr, cols[order].astype(np.int32), (lower[xs] + 1).ravel()[order],
                  lower[ys].ravel()[order], edge)
        for a in arrays:
            a.setflags(write=False)
        return cls(*arrays)


_SKELETONS: dict[tuple[bytes, int, int], _Skeleton] = {}  # least recently used first


def _skeleton(g: WeightedGraph, space: ConfigSpace) -> _Skeleton:
    """The memoized skeleton of g's edge set on space's (n, k) shape."""
    key = (g.adjacency.tobytes(), space.n_sites, space.k)
    skeleton = _SKELETONS.pop(key, None) or _Skeleton.build(g.adjacency, space)
    _SKELETONS[key] = skeleton
    if len(_SKELETONS) > SHARED_SKELETONS:
        del _SKELETONS[next(iter(_SKELETONS))]
    return skeleton


def _assemble(g: WeightedGraph, space: ConfigSpace, edge_rate) -> sp.csr_matrix:
    """Off-diagonal rates over all directed edges of g, on g's skeleton.

    ``edge_rate(eta_x, eta_y, alpha_y, c)`` returns the jump rates x -> y of
    the skeleton's entries; entries with rate zero are dropped.  Only the
    rates are computed here: the pattern, which alpha and the conductance
    values do not enter, is built once per (edge set, n, k).  The space
    provides indexing only, so a generator for one edge set may be assembled
    on the index space of another graph over the same vertices.
    """
    sk = _skeleton(g, space)
    xs, ys = np.nonzero(g.adjacency)
    rate = edge_rate(sk.eta_x, sk.eta_y, g.alpha[ys][sk.edge],
                     g.conductances[xs, ys][sk.edge])
    hot = rate > 0
    if hot.all():  # each generator owns its index arrays: the memo stays intact
        indices, indptr = sk.indices.copy(), sk.indptr.copy()
    else:  # the pure-interaction part B vanishes where eta_y = 0
        kept = np.zeros(hot.size + 1, dtype=np.int32)
        np.cumsum(hot, out=kept[1:])
        indices, indptr, rate = sk.indices[hot], kept[sk.indptr], rate[hot]
    return sp.csr_matrix((rate, indices, indptr), shape=(space.size, space.size))


def _sip_rate(eta_x, eta_y, alpha_y, c):
    return c * eta_x * (alpha_y + eta_y)


def _finish(space, rates, kill=None, reference=None) -> GeneratorMatrix:
    # rates.sum(axis=1) without its matrix wrapping: the same reduceat over rows
    sums = np.zeros(rates.shape[0])
    rows = np.flatnonzero(np.diff(rates.indptr))
    if rows.size:
        sums[rows] = np.add.reduceat(rates.data, rates.indptr[rows])
    diag = -sums
    if kill is not None:
        diag = diag - kill
    return GeneratorMatrix(space=space, rates=rates, diagonal=diag,
                           kill=kill, reference=reference)


def build_sip(g: WeightedGraph, k: int, space: ConfigSpace | None = None) -> GeneratorMatrix:
    """Conservative k-particle inclusion generator on g."""
    space = space or enumerate_configs(g, k)
    return _finish(space, _assemble(g, space, _sip_rate), reference=mu(g, space))


def build_slow_fast(g: WeightedGraph, k: int, space: ConfigSpace | None = None):
    """Split into independent-walk part A and pure-interaction part B.

    A has rates c eta_x alpha_y, B has rates c eta_x eta_y; the full dynamics
    with site weights eps*alpha, sped up by 1/eps, equals A + B/eps.
    """
    space = space or enumerate_configs(g, k)
    alpha = g.alpha
    a_rates = _assemble(g, space, lambda eta_x, eta_y, alpha_y, c: c * eta_x * alpha_y)
    b_rates = _assemble(g, space, lambda eta_x, eta_y, alpha_y, c: c * eta_x * eta_y)
    # A is reversible for k independent walkers: prod alpha_x^eta_x / eta_x!
    log_factorials = gammaln(np.arange(k + 1.0) + 1.0)  # log m!, gathered per site
    log_w = (space.occupations * np.log(alpha)).sum(axis=1) - log_factorials[
        space.occupations].sum(axis=1)
    a_ref = WeightedMeasure(log_weights=log_w)
    A = _finish(space, a_rates, reference=a_ref)
    B = _finish(space, b_rates)
    return A, B


def combine_slow_fast(A: GeneratorMatrix, B: GeneratorMatrix, eps: float) -> GeneratorMatrix:
    """A + B/eps, the 1/eps-accelerated dynamics with shrunk site weights."""
    rates = (A.rates + B.rates / eps).tocsr()
    g = A.space.graph
    ref = mu(g.scaled_alpha(eps), A.space)
    return GeneratorMatrix(space=A.space, rates=rates,
                           diagonal=A.diagonal + B.diagonal / eps,
                           reference=ref)


def build_killed(g: WeightedGraph, omega, k: int,
                 space: ConfigSpace | None = None) -> GeneratorMatrix:
    """Conservative dynamics plus killing at rate sum_x omega_x eta_x."""
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    if np.any(omega < 0):
        raise ValueError("negative killing rate")
    space = space or enumerate_configs(g, k)
    rates = _assemble(g, space, _sip_rate)
    kill = space.occupations @ omega
    return _finish(space, rates, kill=kill, reference=mu(g, space))


def open_generator_apply(g: WeightedGraph, omega, theta, f, occupation) -> float:
    """Pointwise action of the open (reservoir-coupled) generator on f.

    The open state space is infinite, so no matrix is formed; f is a callable
    on occupation tuples, evaluable at eta and all single-site modifications.
    """
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (g.n,))
    eta = tuple(int(v) for v in occupation)
    alpha = g.alpha
    f_eta = f(eta)
    total = 0.0
    for x, y, c in g.directed_edges:
        if eta[x] == 0:
            continue
        moved = list(eta)
        moved[x] -= 1
        moved[y] += 1
        total += c * eta[x] * (alpha[y] + eta[y]) * (f(tuple(moved)) - f_eta)
    for x in range(g.n):
        if omega[x] == 0.0:
            continue
        if eta[x] > 0:
            down = list(eta)
            down[x] -= 1
            total += omega[x] * eta[x] * (1.0 + theta[x]) * (f(tuple(down)) - f_eta)
        if theta[x] > 0:
            up = list(eta)
            up[x] += 1
            total += omega[x] * theta[x] * (alpha[x] + eta[x]) * (f(tuple(up)) - f_eta)
    return float(total)


def dirichlet_form(L: GeneratorMatrix, f) -> float | np.ndarray:
    """Quadratic form <f, -L f> under the reference measure.

    A 1-D ``f`` gives a float, an (N, m) block the m values of its columns.
    Evaluated as the sum over transitions of mu(eta) r(eta, xi) (grad f)^2 / 2,
    plus the killing contribution when present.  The carrier is built and
    certified once per call, for every function evaluated: a relative
    asymmetry above ASYMMETRY_TOL (not reversible) raises CertificationError.
    Each column's gradient is its own contiguous vector, so a block's values
    equal one-column calls bit for bit and no transitions x m array is formed.
    """
    if L.reference is None:
        raise ValueError("Dirichlet form needs a reference measure")
    f = np.asarray(f, dtype=float)
    carrier = L.carrier()
    scale = float(carrier.data.max(initial=0.0))
    asym = _asymmetry(carrier)
    if scale > 0 and asym > ASYMMETRY_TOL * scale:
        raise CertificationError(f"generator is not reversible (residual {asym:.3e})")
    carrier = carrier.tocoo()
    killing = None if L.kill is None else L.reference.weights * L.kill
    values = []
    for column in (f[:, None] if f.ndim == 1 else f).T:
        grads = column[carrier.col] - column[carrier.row]
        value = 0.5 * float(np.dot(carrier.data, grads**2))
        if killing is not None:
            value += float(np.dot(killing, column**2))
        values.append(value)
    return values[0] if f.ndim == 1 else np.array(values)


# -- labeled (lookdown) dynamics -------------------------------------------


@dataclass(frozen=True)
class LabeledSpace:
    """All k-tuples of vertices, indexed in lexicographic order."""

    graph: WeightedGraph
    k: int

    @cached_property
    def states(self) -> tuple[tuple[int, ...], ...]:
        return tuple(product(range(self.graph.n), repeat=self.k))

    @cached_property
    def index(self) -> dict[tuple[int, ...], int]:
        return {s: i for i, s in enumerate(self.states)}

    @property
    def size(self) -> int:
        return self.graph.n ** self.k


def build_lookdown(g: WeightedGraph, omega, k: int) -> GeneratorMatrix:
    """Label-ordered particle dynamics whose symmetrization is the killed chain.

    Particle i at site x jumps to a neighbor y at rate
    c_xy (alpha_y + 2 * #{j < i : x_j = y}); killing adds sum_i omega_{x_i}.
    """
    if g.n**k > DEFAULT_CAP:
        raise SpaceCapExceeded(f"labeled space has {g.n**k} states, above the cap {DEFAULT_CAP}")
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    if np.any(omega < 0):
        raise ValueError("negative killing rate")
    space = LabeledSpace(graph=g, k=k)
    alpha = g.alpha
    rows, cols, vals = [], [], []
    for i_state, state in enumerate(space.states):
        for i in range(k):
            x = state[i]
            below = state[:i]
            for y in g.neighbor_lists[x]:
                y = int(y)
                rate = g.conductances[x, y] * (alpha[y] + 2.0 * below.count(y))
                rows.append(i_state)
                cols.append(space.index[state[:i] + (y,) + state[i + 1:]])
                vals.append(rate)
    rates = sp.coo_matrix((vals, (rows, cols)), shape=(space.size, space.size)).tocsr()
    kill = np.array([sum(omega[x] for x in state) for state in space.states])
    return _finish(space, rates, kill=kill)


def symmetrize_labels(space: LabeledSpace, u: np.ndarray) -> np.ndarray:
    """Average a labeled function over all label permutations."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    count = 0
    for perm in permutations(range(space.k)):
        reordered = [space.index[tuple(s[p] for p in perm)] for s in space.states]
        out += u[reordered]
        count += 1
    return out / count


def label_pullback(space: LabeledSpace, config_space: ConfigSpace, f: np.ndarray) -> np.ndarray:
    """Pull a configuration function back through the label-forgetting map."""
    occ = np.zeros((space.size, config_space.n_sites), dtype=np.int64)
    for i_state, state in enumerate(space.states):
        for x in state:
            occ[i_state, x] += 1
    return np.asarray(f, dtype=float)[config_space.rank_rows(occ)]
