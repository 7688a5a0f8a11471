"""Vanishing-diffusivity limit chain on the absorbing configurations.

The accelerated dynamics splits into a slow independent-walk part and a fast
pure-interaction part.  Sending the diffusivity to zero thermalizes the fast
part instantly: one slow jump followed by interaction-absorption.  The limit
chain lives on the absorbing set, is block-triangular in the number of
stacks, and its transient blocks are self-adjoint for an explicit product
weight.  Block eigenvalues come from ``spectral``'s one solver, each block
posed as a generator killed by its leak to fewer stacks and certified there
(relative asymmetry below 1e-10; correctly wired blocks measure 2.2e-16).
Every reader takes a built ``MetastableChain``: it keeps its slow-fast pair
and its limit generator, and each stack block builds its generator and rate once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .configspace import ConfigSpace, SpaceCapExceeded, enumerate_configs
from .generators import (
    CertificationError,
    GeneratorMatrix,
    build_slow_fast,
    combine_slow_fast,
)
from .graphs import WeightedGraph, graph_to_document
from .measures import WeightedMeasure, varsigma_rows
from .spectral import expm_action, gap_and_semigroup, spectral_gap
from .intertwiners import annihilation

__all__ = [
    "HarmonicProjection",
    "MetastableChain",
    "harmonic_projection",
    "build_chain",
    "StackBlock",
    "lambda_km",
    "w_k",
    "restricted_annihilation",
    "restricted_annihilation_residual",
    "slow_fast_convergence",
    "SlowFastRow",
]

ABSORB_RESIDUAL_TOL = 1e-10
SUPPORT_TOL = 1e-14


@dataclass
class HarmonicProjection:
    """Absorption probabilities of the pure-interaction dynamics.

    ``matrix[i, j]`` is the probability that the interaction-only chain
    started from configuration i is absorbed at the j-th absorbing
    configuration; rows of absorbing states are point masses.
    """

    space: ConfigSpace
    matrix: np.ndarray  # (|Xi_k|, |Omega_k|)
    residual: float

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Project a function on the full space onto the harmonic range."""
        f = np.asarray(f, dtype=float)
        return self.matrix @ f[self.space.omega]


def harmonic_projection(B: GeneratorMatrix) -> HarmonicProjection:
    """Solve the absorption systems of the interaction-only dynamics ``B``.

    One sparse factorization of the transient block is reused across all
    absorbing targets.
    """
    space = B.space
    omega, delta = space.omega, space.delta
    if space.size * omega.size > 200_000_000:
        raise SpaceCapExceeded(
            f"absorption matrix would hold {space.size} x {omega.size} "
            "entries; this computation is only meant for desk-scale spaces"
        )
    full = B.as_sparse().tocsc()
    size = space.size
    P = np.zeros((size, omega.size))
    P[omega, np.arange(omega.size)] = 1.0
    residual = 0.0
    if delta.size:
        trans = (-full[delta][:, delta]).tocsc()
        flux = full[delta][:, omega].toarray()
        try:
            lu = spla.splu(trans)
        except RuntimeError as exc:
            raise CertificationError(
                f"singular transient block; assembly bug ({exc})") from None
        H = lu.solve(flux)
        residual = float(np.abs(trans @ H - flux).max(initial=0.0))
        if residual > ABSORB_RESIDUAL_TOL:
            raise CertificationError(f"absorption solve residual {residual:.3e} too large")
        # probabilities: clamp roundoff, rows must sum to one
        H = np.clip(H, 0.0, 1.0)
        P[delta] = H
    return HarmonicProjection(space=space, matrix=P, residual=residual)


@dataclass
class StackBlock:
    """One diagonal block of the limit chain, indexed inside the absorbing set."""

    m: int
    local: np.ndarray        # positions within the absorbing-set ordering
    matrix: np.ndarray       # (|block|, |block|) with the chain's diagonal
    components: list[np.ndarray]  # irreducible pieces, indices into local
    weights: np.ndarray      # varsigma of the block's configurations

    @cached_property
    def generator(self) -> GeneratorMatrix:
        """The block as a generator: its rates and diagonal, its leak to fewer
        stacks as killing and varsigma as reference.  The single-stack block
        is closed; its row sums are rounding, so it carries no killing."""
        off = np.where(np.eye(self.local.size, dtype=bool), 0.0, self.matrix)
        return GeneratorMatrix(
            space=None, rates=sp.csr_matrix(off), diagonal=np.diag(self.matrix).copy(),
            kill=None if self.m == 1 else -self.matrix.sum(axis=1),
            reference=WeightedMeasure(log_weights=np.log(self.weights)))

    @cached_property
    def rate(self) -> float:
        """The walk gap of the single-stack block, else the sector's decay rate."""
        return spectral_gap(self.generator)


@dataclass
class MetastableChain:
    """The limit chain together with the slow-fast pair it was built from."""

    space: ConfigSpace
    A: GeneratorMatrix           # slow part: independent walks
    B: GeneratorMatrix           # fast part: pure interaction
    projection: HarmonicProjection
    M: np.ndarray                # (|Omega|, |Omega|) rate matrix, rows sum to 0
    blocks: dict[int, StackBlock]

    @property
    def omega(self) -> np.ndarray:
        return self.space.omega  # global config indices of the absorbing states

    @cached_property
    def generator(self) -> GeneratorMatrix:
        """M as a generator on the absorbing set."""
        off = np.where(np.eye(len(self.M), dtype=bool), 0.0, self.M)
        return GeneratorMatrix(space=None, rates=sp.csr_matrix(off),
                               diagonal=np.diag(self.M).copy())

    def omega_config(self, local: int) -> tuple[int, ...]:
        return self.space.config(int(self.omega[local]))

    def row_sum_residual(self) -> float:
        return float(np.abs(self.M.sum(axis=1)).max(initial=0.0))

    def triangularity_residual(self) -> float:
        """Largest rate that would increase the stack count (must vanish)."""
        counts = self.space.stack_counts[self.omega]
        bad = counts[None, :] > counts[:, None]
        return float(np.abs(self.M[bad]).max(initial=0.0))

    def varsigma_reversibility_residual(self) -> float:
        """Max detailed-balance defect of the product weight inside blocks."""
        return max((block.generator.detailed_balance_residual()
                    for block in self.blocks.values()), default=0.0)


def build_chain(g: WeightedGraph, k: int,
                space: ConfigSpace | None = None) -> MetastableChain:
    """Assemble the limit rate matrix: slow jump, then instant absorption."""
    space = space or enumerate_configs(g, k)
    A, B = build_slow_fast(g, k, space)
    proj = harmonic_projection(B)
    omega = space.omega
    flow = A.rates[omega] @ proj.matrix   # rate out of eta resolved at xi
    M = np.asarray(flow.todense() if sp.issparse(flow) else flow)
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, -M.sum(axis=1))
    blocks: dict[int, StackBlock] = {}
    counts = space.stack_counts[omega]
    for m in range(1, k + 1):
        local = np.nonzero(counts == m)[0]
        if local.size == 0:
            continue
        sub = M[np.ix_(local, local)]
        support = (np.abs(sub) > SUPPORT_TOL) | (np.abs(sub.T) > SUPPORT_TOL)
        np.fill_diagonal(support, True)
        n_comp, labels = connected_components(sp.csr_matrix(support), directed=False)
        comps = [np.nonzero(labels == c)[0] for c in range(n_comp)]
        weights = varsigma_rows(space.graph.alpha, space.occupations[omega[local]])
        blocks[m] = StackBlock(m=m, local=local, matrix=sub, components=comps,
                               weights=weights)
    return MetastableChain(space=space, A=A, B=B, projection=proj, M=M, blocks=blocks)


def lambda_km(chain: MetastableChain, m: int) -> float:
    """Smallest eigenvalue of the negated m-stack block, +inf when empty."""
    if m < 2:
        raise ValueError("transient sectors start at two stacks")
    block = chain.blocks.get(m)
    return math.inf if block is None else block.rate


def w_k(chain: MetastableChain) -> float:
    """Gap of the limit chain: single-stack walk gap against all sector rates."""
    return min(block.rate for block in chain.blocks.values())


def restricted_annihilation(chain_k: MetastableChain,
                            chain_prev: MetastableChain) -> sp.csr_matrix:
    """Particle-removal operator restricted to the absorbing sets."""
    space, prev = chain_k.space, chain_prev.space
    if prev.k != space.k - 1 or graph_to_document(prev.graph) != graph_to_document(space.graph):
        raise ValueError(f"chain_prev must hold {space.k - 1} particles on the same graph")
    full = annihilation(space.graph, space.k, space)
    return sp.csr_matrix(full[chain_k.omega][:, chain_prev.omega])


def restricted_annihilation_residual(chain_k: MetastableChain,
                                     chain_prev: MetastableChain) -> float:
    """Max-norm of M_k a_k - a_k M_{k-1} on the absorbing sets."""
    a_hat = restricted_annihilation(chain_k, chain_prev).toarray()
    resid = chain_k.M @ a_hat - a_hat @ chain_prev.M
    return float(np.abs(resid).max(initial=0.0))


@dataclass
class SlowFastRow:
    eps: float
    semigroup_deviation: float   # sup over panel and states
    gap_ratio: float             # gap_k(eps alpha) / eps
    gap_ratio_error: float       # |gap_ratio - w_k|
    min_absorbing_mass: float    # min over states of P[in absorbing set at t]


PANEL_SEED = 7
MIN_EPS = 1e-3


def _panel(size: int) -> np.ndarray:
    panel = [np.ones(size)]
    for i in range(min(3, size)):
        e = np.zeros(size)
        e[i * (size // max(1, min(3, size)))] = 1.0
        panel.append(e)
    panel.append(np.random.default_rng(PANEL_SEED).uniform(-1.0, 1.0, size))
    return np.column_stack(panel)


def slow_fast_convergence(chain: MetastableChain, t: float,
                          eps_grid) -> list[SlowFastRow]:
    """Tabulate semigroup and gap convergence toward the limit chain.

    For each diffusivity eps: the sup-norm distance between the accelerated
    semigroup and the projected limit semigroup over a panel of functions,
    the rescaled gap against the limit gap, and the worst-case probability of
    sitting in the absorbing set at time t.  Each eps is one
    ``gap_and_semigroup`` call on A + B/eps; the limit semigroup is the one
    uniformization.  Diffusivities below MIN_EPS = 1e-3 are rejected.  Above
    the dense cut-off the semigroup is uniformized and its step count grows
    like 1/eps; on the dense route the rounding of the eigenvectors is
    amplified by up to e^(max h - min h), h the half log-weights, and the
    weights of the shrunk reference measure spread further as eps falls.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if any(e < MIN_EPS for e in eps_grid):
        raise ValueError(f"diffusivities below {MIN_EPS} are not supported")
    space = chain.space
    panel = _panel(space.size)
    limit_gap = w_k(chain)
    limit_vals = chain.projection.matrix @ expm_action(chain.generator, t,
                                                       panel[chain.omega])
    indicator = np.zeros(space.size)
    indicator[space.omega] = 1.0
    columns = np.column_stack([panel, indicator])
    rows = []
    for eps in eps_grid:
        gen = combine_slow_fast(chain.A, chain.B, eps)
        # gen is the eps * alpha generator over eps
        ratio, evolved = gap_and_semigroup(gen, t, columns)
        mass = evolved[:, -1]
        deviation = float(np.abs(evolved[:, :-1] - limit_vals).max())
        rows.append(SlowFastRow(
            eps=float(eps),
            semigroup_deviation=deviation,
            gap_ratio=ratio,
            gap_ratio_error=abs(ratio - limit_gap),
            min_absorbing_mass=float(mass.min()),
        ))
    return rows
