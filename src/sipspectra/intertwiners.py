"""Particle-removal and particle-addition operators between particle levels.

The removal operator maps (k-1)-particle functions to k-particle functions
and commutes with the dynamics; its adjoint (up to an explicit constant) adds
a particle weighted by alpha + occupancy.  The orthogonal complement of the
lifted functions carries the genuinely new part of each spectrum, which is
what the induction on the gap runs over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .configspace import ConfigSpace, enumerate_configs
from .generators import CertificationError, build_sip, dirichlet_form
from .graphs import WeightedGraph
from .measures import mu
from .spectral import spectrum, symmetric_bottom

__all__ = [
    "annihilation",
    "creation",
    "adjointness_residual",
    "consistency_residual",
    "kernel_basis",
    "gap_induction_check",
    "complete_graph_check",
    "contraction_map",
]

RANK_TOL = 1e-10
ADJOINT_TRIALS = 10  # seeded function pairs of adjointness_residual
ADJOINT_SEED = 0
COMPLETE_TOL = 1e-8  # eigenvalue slack of complete_graph_check


def annihilation(g: WeightedGraph, k: int,
                 space_k: ConfigSpace | None = None) -> sp.csr_matrix:
    """Matrix of g -> sum_x eta_x g(eta - delta_x), shape |Xi_k| x |Xi_{k-1}|."""
    if k < 1:
        raise ValueError("k must be at least 1")
    space_k = space_k or enumerate_configs(g, k)
    up = space_k.up
    eta_x = space_k.occupations[up, np.arange(g.n)[:, None]]  # one row per site x
    lower = np.tile(np.arange(up.shape[1]), g.n)
    return sp.coo_matrix((eta_x.ravel().astype(float), (up.ravel(), lower)),
                         shape=(space_k.size, up.shape[1])).tocsr()


def creation(g: WeightedGraph, k: int,
             space_k: ConfigSpace | None = None,
             space_prev: ConfigSpace | None = None) -> sp.csr_matrix:
    """Matrix of f -> sum_x (xi_x + alpha_x) f(xi + delta_x), shape |Xi_{k-1}| x |Xi_k|."""
    if k < 1:
        raise ValueError("k must be at least 1")
    space_k = space_k or enumerate_configs(g, k)
    space_prev = space_prev or enumerate_configs(g, k - 1)
    weight = (space_prev.occupations + g.alpha).T  # xi_x + alpha_x, one row per site x
    lower = np.tile(np.arange(space_prev.size), g.n)
    return sp.coo_matrix((weight.ravel(), (lower, space_k.up.ravel())),
                         shape=(space_prev.size, space_k.size)).tocsr()


def adjointness_residual(g: WeightedGraph, k: int) -> float:
    """Max deviation in <a g, f>_k = k/(|alpha|+k-1) <g, a* f>_{k-1}."""
    space_k = enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    a = annihilation(g, k, space_k)
    a_dag = creation(g, k, space_k, space_prev)
    mu_k, mu_prev = mu(g, space_k), mu(g, space_prev)
    factor = k / (g.total_alpha() + k - 1)
    rng = np.random.default_rng(ADJOINT_SEED)
    worst = 0.0
    for _ in range(ADJOINT_TRIALS):
        f = rng.standard_normal(space_k.size)
        h = rng.standard_normal(space_prev.size)
        lhs = mu_k.inner(a @ h, f)
        rhs = factor * mu_prev.inner(h, a_dag @ f)
        worst = max(worst, abs(lhs - rhs))
    return worst


def consistency_residual(g: WeightedGraph, k: int) -> float:
    """Max-norm of L_k a_k - a_k L_{k-1} as matrices."""
    if k < 2:
        raise ValueError("consistency needs k >= 2")
    space_k = enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    a = annihilation(g, k, space_k)
    L_k = build_sip(g, k, space_k).as_sparse()
    L_prev = build_sip(g, k - 1, space_prev).as_sparse()
    resid = L_k @ a - a @ L_prev
    return float(np.abs(resid.data).max(initial=0.0))


def kernel_basis(g: WeightedGraph, k: int,
                 space_k: ConfigSpace | None = None) -> np.ndarray:
    """Orthonormal basis (in the weighted inner product) of Ker a*.

    Columns v satisfy creation @ v = 0 and <v_i, v_j>_mu = delta_ij; the
    dimension is |Xi_k| - |Xi_{k-1}|.  Computed by pivoted QR on the weighted
    adjoint matrix for reproducibility.
    """
    space_k = space_k or enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    a_dag = creation(g, k, space_k, space_prev).toarray()
    half_log = 0.5 * mu(g, space_k).log_weights
    # null space of a_dag W^{-1} in Euclidean coords, then map back by W^{-1}
    weighted = a_dag * np.exp(-half_log)[None, :]
    q, r, _ = scipy.linalg.qr(weighted.T, pivoting=True)
    diag = np.abs(np.diag(r))
    top = diag.max(initial=0.0)
    rank = int(np.sum(diag > RANK_TOL * top))
    if rank != space_prev.size:
        raise CertificationError(
            f"particle-addition operator has numerical rank {rank}, "
            f"expected {space_prev.size}; assembly bug"
        )
    null = q[:, rank:]
    return null * np.exp(-half_log)[:, None]


@dataclass
class InductionReport:
    gap_k: float
    gap_prev: float
    kernel_rayleigh_min: float
    induction_residual: float  # |gap_k - min(gap_prev, kernel min)|


def gap_induction_check(g: WeightedGraph, k: int) -> InductionReport:
    """Check gap_k = min(gap_{k-1}, bottom of the form on Ker a*).

    Kernel functions are mean-zero, so their variance is the squared norm and
    the quotient restricted to the kernel is the bilinear form in the
    orthonormal kernel basis.  The form must be symmetric; ``symmetric_bottom``
    certifies it before its bottom is taken.
    """
    if k < 2:
        raise ValueError("induction needs k >= 2")
    space_k = enumerate_configs(g, k)
    L_k = build_sip(g, k, space_k)
    gap_k = spectrum(L_k).gap
    gap_prev = spectrum(build_sip(g, k - 1)).gap
    basis = kernel_basis(g, k, space_k)
    neg_l = -L_k.as_dense()
    w = L_k.reference.weights
    form = basis.T @ (w[:, None] * (neg_l @ basis))
    kernel_min = float(symmetric_bottom(form, 1)[0])
    predicted = min(gap_prev, kernel_min)
    return InductionReport(
        gap_k=gap_k,
        gap_prev=gap_prev,
        kernel_rayleigh_min=kernel_min,
        induction_residual=abs(gap_k - predicted),
    )


@dataclass
class CompleteGraphReport:
    k: int
    total_alpha: float
    kernel_energy_deviation: float   # max | E(f)/|f|^2 - k(|alpha|+k-1) |
    expected_eigenvalues: list[float]
    expected_multiplicities: list[int]
    spectrum_deviation: float        # max relative eigenvalue mismatch
    multiplicities_match: bool


def complete_graph_check(g: WeightedGraph, k: int) -> CompleteGraphReport:
    """Verify the closed-form eigenstructure on a complete graph.

    Every kernel-basis function is an eigenfunction with eigenvalue
    k(|alpha|+k-1), and the spectrum of the negated generator is
    {j(|alpha|+j-1) : j = 0..k} with multiplicities |Xi_j| - |Xi_{j-1}|.
    """
    c = g.conductances
    off = ~np.eye(g.n, dtype=bool)
    if not np.all(c[off] == 1.0):
        raise ValueError("complete_graph_check needs the complete graph with unit conductances")
    total = g.total_alpha()
    space_k = enumerate_configs(g, k)
    L = build_sip(g, k, space_k)
    basis = kernel_basis(g, k, space_k)
    target = k * (total + k - 1)
    energies = dirichlet_form(L, basis)
    worst = max((abs(energy / L.reference.norm_sq(f) - target)
                 for energy, f in zip(energies.tolist(), basis.T)), default=0.0)
    sizes = [enumerate_configs(g, j).size for j in range(k + 1)]
    expected_vals, expected_mult = [], []
    for j in range(k + 1):
        expected_vals.append(j * (total + j - 1))
        expected_mult.append(sizes[j] - (sizes[j - 1] if j >= 1 else 0))
    eigs = spectrum(L).eigenvalues
    flat = np.repeat(expected_vals, expected_mult)
    scale = max(abs(flat[-1]), 1.0)
    deviation = float(np.abs(np.sort(eigs) - np.sort(flat)).max() / scale)
    groups_ok = deviation < COMPLETE_TOL
    return CompleteGraphReport(
        k=k,
        total_alpha=total,
        kernel_energy_deviation=worst,
        expected_eigenvalues=expected_vals,
        expected_multiplicities=expected_mult,
        spectrum_deviation=deviation,
        multiplicities_match=groups_ok,
    )


@dataclass
class ContractionReport:
    norm_identity_residual: float
    dirichlet_slack: float  # bound - actual, should be >= -tol
    factor: float


def contraction_map(g: WeightedGraph, k: int, f) -> tuple[np.ndarray, ContractionReport]:
    """Map a k-level function supported on fully-spread states down one level.

    g_f(xi) = sqrt( sum_x (alpha_x/|alpha|) f(xi+delta_x)^2 ).  The squared
    norm picks up exactly (|alpha|+k-1)/|alpha|, and the Dirichlet form is
    bounded by the same factor.
    """
    if k < 3:
        raise ValueError("contraction step needs k >= 3")
    space_k = enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    f = np.asarray(f, dtype=float)
    spread = space_k.omega_by_stacks.get(k, np.array([], dtype=int))
    outside = np.setdiff1d(np.arange(space_k.size), spread)
    if np.any(f[outside] != 0.0):
        raise ValueError("function must vanish off the fully-spread absorbing states")
    total = g.total_alpha()
    weights = g.alpha / total
    sq = np.zeros(space_prev.size)
    for x in range(g.n):
        sq += weights[x] * f[space_k.up[x]] ** 2
    g_f = np.sqrt(sq)
    factor = (total + k - 1) / total
    L_k = build_sip(g, k, space_k)
    L_prev = build_sip(g, k - 1, space_prev)
    norm_f = L_k.reference.norm_sq(f)
    norm_g = L_prev.reference.norm_sq(g_f)
    residual = abs(norm_g - factor * norm_f)
    slack = factor * dirichlet_form(L_k, f) - dirichlet_form(L_prev, g_f)
    return g_f, ContractionReport(
        norm_identity_residual=residual, dirichlet_slack=slack, factor=factor
    )
