"""Vanishing-diffusivity limit chain on the absorbing configurations.

The accelerated dynamics splits into a slow independent-walk part and a fast
pure-interaction part.  Sending the diffusivity to zero thermalizes the fast
part instantly: one slow jump followed by interaction-absorption.  The limit
chain lives on the absorbing set, is block-triangular in the number of
stacks, and its transient blocks are self-adjoint for an explicit product
weight.  Block eigenvalues come from ``spectral``'s one solver, each block
posed as a generator killed by its leak to fewer stacks and certified there
(relative asymmetry below 1e-10; correctly wired blocks measure 2.2e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .configspace import ConfigSpace, SpaceCapExceeded, enumerate_configs
from .generators import (
    CertificationError,
    GeneratorMatrix,
    build_sip,
    build_slow_fast,
    combine_slow_fast,
)
from .graphs import WeightedGraph
from .measures import WeightedMeasure, varsigma_rows
from .spectral import expm_action, spectral_gap, spectrum
from .intertwiners import annihilation

__all__ = [
    "HarmonicProjection",
    "MetastableChain",
    "harmonic_projection",
    "build_chain",
    "StackBlock",
    "lambda_km",
    "single_stack_gap",
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


def harmonic_projection(g: WeightedGraph, k: int,
                        space: ConfigSpace | None = None,
                        B: GeneratorMatrix | None = None) -> HarmonicProjection:
    """Solve the absorption systems of the interaction-only dynamics.

    One sparse factorization of the transient block is reused across all
    absorbing targets.
    """
    space = space or enumerate_configs(g, k)
    if B is None:
        _, B = build_slow_fast(g, k, space)
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
            raise ValueError(f"singular transient block; assembly bug ({exc})") from None
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


@dataclass
class MetastableChain:
    space: ConfigSpace
    omega: np.ndarray            # global config indices of absorbing states
    M: np.ndarray                # (|Omega|, |Omega|) rate matrix, rows sum to 0
    blocks: dict[int, StackBlock]
    projection: HarmonicProjection

    @property
    def size(self) -> int:
        return self.omega.shape[0]

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
        worst = 0.0
        for block in self.blocks.values():
            w = varsigma_rows(self.space.graph.alpha,
                              self.space.occupations[self.omega[block.local]])
            c = w[:, None] * block.matrix
            np.fill_diagonal(c, 0.0)
            worst = max(worst, float(np.abs(c - c.T).max(initial=0.0)))
        return worst


def build_chain(g: WeightedGraph, k: int,
                space: ConfigSpace | None = None) -> MetastableChain:
    """Assemble the limit rate matrix: slow jump, then instant absorption."""
    space = space or enumerate_configs(g, k)
    A, B = build_slow_fast(g, k, space)
    proj = harmonic_projection(g, k, space, B)
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
        blocks[m] = StackBlock(m=m, local=local, matrix=sub, components=comps)
    return MetastableChain(space=space, omega=omega, M=M, blocks=blocks,
                           projection=proj)


def _block_generator(chain: MetastableChain, block: StackBlock) -> GeneratorMatrix:
    """The block as a generator: its rates and diagonal, its leak to fewer
    stacks as killing and varsigma as reference.  The single-stack block is
    closed; its row sums are rounding, so it carries no killing."""
    occ = chain.space.occupations[chain.omega[block.local]]
    w = varsigma_rows(chain.space.graph.alpha, occ)
    off = np.where(np.eye(block.local.size, dtype=bool), 0.0, block.matrix)
    return GeneratorMatrix(
        space=None,
        rates=sp.csr_matrix(off),
        diagonal=np.diag(block.matrix).copy(),
        kill=None if block.m == 1 else -block.matrix.sum(axis=1),
        reference=WeightedMeasure(log_weights=np.log(w), normalized=False),
    )


def lambda_km(chain: MetastableChain, m: int) -> float:
    """Smallest eigenvalue of the negated m-stack block, +inf when empty."""
    if m < 2:
        raise ValueError("transient sectors start at two stacks")
    block = chain.blocks.get(m)
    if block is None:
        return math.inf
    return spectrum(_block_generator(chain, block)).gap


def single_stack_gap(chain: MetastableChain) -> float:
    """Gap of the single-stack walk (the recurrent part of the chain)."""
    return spectral_gap(_block_generator(chain, chain.blocks[1]))


def w_k(chain: MetastableChain) -> float:
    """Gap of the limit chain: single-stack walk gap against all sector rates."""
    best = single_stack_gap(chain)
    for m in chain.blocks:
        if m >= 2:
            best = min(best, lambda_km(chain, m))
    return best


def restricted_annihilation(g: WeightedGraph, k: int,
                            chain_k: MetastableChain,
                            chain_prev: MetastableChain) -> sp.csr_matrix:
    """Particle-removal operator restricted to the absorbing sets."""
    full = annihilation(g, k, chain_k.space)
    sub = full[chain_k.omega][:, chain_prev.omega]
    return sp.csr_matrix(sub)


def restricted_annihilation_residual(g: WeightedGraph, k: int,
                                      chain_k: MetastableChain | None = None,
                                      chain_prev: MetastableChain | None = None) -> float:
    """Max-norm of M_k a_k - a_k M_{k-1} on the absorbing sets."""
    if k < 2:
        raise ValueError("intertwining needs k >= 2")
    chain_k = chain_k or build_chain(g, k)
    chain_prev = chain_prev or build_chain(g, k - 1)
    a_hat = restricted_annihilation(g, k, chain_k, chain_prev).toarray()
    resid = chain_k.M @ a_hat - a_hat @ chain_prev.M
    return float(np.abs(resid).max(initial=0.0))


@dataclass
class SlowFastRow:
    eps: float
    semigroup_deviation: float   # sup over panel and states
    gap_ratio: float             # gap_k(eps alpha) / eps
    gap_ratio_error: float       # |gap_ratio - w_k|
    min_absorbing_mass: float    # min over states of P[in absorbing set at t]


def _default_panel(size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    panel = [np.ones(size)]
    for i in range(min(3, size)):
        e = np.zeros(size)
        e[i * (size // max(1, min(3, size)))] = 1.0
        panel.append(e)
    panel.append(rng.uniform(-1.0, 1.0, size))
    return np.column_stack(panel)


MIN_EPS = 1e-3


def slow_fast_convergence(g: WeightedGraph, k: int, t: float,
                          eps_grid=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
                          panel: np.ndarray | None = None,
                          chain: MetastableChain | None = None) -> list[SlowFastRow]:
    """Tabulate semigroup and gap convergence toward the limit chain.

    For each diffusivity eps: the sup-norm distance between the accelerated
    semigroup and the projected limit semigroup over a panel of functions,
    the rescaled gap against the limit gap, and the worst-case probability of
    sitting in the absorbing set at time t.  Diffusivities below 1e-3 are
    rejected: the uniformization step count grows like 1/eps.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    if any(e < MIN_EPS for e in eps_grid):
        raise ValueError(f"diffusivities below {MIN_EPS} are not supported")
    space = chain.space if chain is not None else enumerate_configs(g, k)
    chain = chain or build_chain(g, k, space)
    A, B = build_slow_fast(g, k, space)
    if panel is None:
        panel = _default_panel(space.size)
    limit_gap = w_k(chain)
    m_gen = GeneratorMatrix(
        space=None,
        rates=sp.csr_matrix(np.where(np.eye(chain.size, dtype=bool), 0.0, chain.M)),
        diagonal=np.diag(chain.M).copy(),
    )
    limit_vals = chain.projection.matrix @ expm_action(m_gen, t, panel[chain.omega])
    indicator = np.zeros(space.size)
    indicator[space.omega] = 1.0
    rows = []
    for eps in eps_grid:
        gen = combine_slow_fast(A, B, eps)
        evolved = expm_action(gen, t, panel)
        deviation = float(np.abs(evolved - limit_vals).max())
        gap_eps = spectral_gap(build_sip(g.scaled_alpha(eps), k, space))
        ratio = gap_eps / eps
        mass = expm_action(gen, t, indicator)
        rows.append(SlowFastRow(
            eps=float(eps),
            semigroup_deviation=deviation,
            gap_ratio=ratio,
            gap_ratio_error=abs(ratio - limit_gap),
            min_absorbing_mass=float(mass.min()),
        ))
    return rows
