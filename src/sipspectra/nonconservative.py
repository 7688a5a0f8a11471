"""Open system: killed spectra, polynomial dualities, and eigenfunction lifts.

With purely absorbing reservoirs the particle number only decreases and the
spectrum splits over the per-level killed generators, whose gaps all coincide
with the killed one-particle gap.  For positive reservoir density the killed
eigenvectors lift through a family of orthogonal polynomial kernels to
eigenfunctions of the full open generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .configspace import ConfigSpace, enumerate_configs
from .generators import GeneratorMatrix, build_killed, open_generator_apply
from .graphs import WeightedGraph
from .measures import log_partition, mu, negbin_tail_cutoff
from .spectral import bottom_eigenpairs, expm_action, spectral_gap, spectrum

__all__ = [
    "meixner_d",
    "duality_eval",
    "lift_F",
    "killed_eigenpairs",
    "gap_identity_check",
    "level_bottoms",
    "build_absorbing_chain",
    "eigen_lift_residual",
    "orthogonality_check",
    "survival_domination",
]


def meixner_d(alpha_x: float, rho: float, xi: int, eta: int) -> float:
    """Single-site duality factor.

    At rho = 0 this is the falling factorial eta!/(eta-xi)! divided by the
    rising factorial of alpha, supported on xi <= eta; rho > 0 takes the
    binomial transform, evaluated by a stable recursion in the falling index.
    """
    if xi < 0 or eta < 0:
        raise ValueError("occupation numbers must be non-negative")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    # d0[l] = d_{alpha,0}(l, eta), built by the ratio recursion
    d0 = np.zeros(xi + 1)
    d0[0] = 1.0
    for l in range(1, xi + 1):
        if l > eta:
            break
        d0[l] = d0[l - 1] * (eta - l + 1) / (alpha_x + l - 1)
    if rho == 0.0:
        return float(d0[xi]) if xi <= eta else 0.0
    total = 0.0
    binom = 1.0
    for l in range(0, xi + 1):
        total += binom * d0[l] * (-rho) ** (xi - l)
        binom = binom * (xi - l) / (l + 1)
    return float(total)


def duality_eval(g: WeightedGraph, rho: float, xi_cfg, eta_cfg) -> float:
    """Product duality kernel D(xi, eta) over the sites of g."""
    return float(np.prod([
        meixner_d(float(a), rho, int(xq), int(eq))
        for a, xq, eq in zip(g.alpha, xi_cfg, eta_cfg)
    ]))


def lift_F(g: WeightedGraph, rho: float, psi, space: ConfigSpace | int):
    """Polynomial lift of a k-level function through the duality kernel.

    Returns a callable on occupation tuples: the weighted sum of duality
    kernels against psi.  A scalar psi (k = 0) lifts to the constant.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    if isinstance(space, int):
        if space == 0:
            value = float(psi)
            return lambda eta: value
        space = enumerate_configs(g, space)
    psi = np.asarray(psi, dtype=float)
    weights = np.exp(mu(g, space).log_weights) * psi
    configs = [space.config(i) for i in range(space.size)]

    def F(eta) -> float:
        eta = tuple(int(v) for v in eta)
        return float(sum(w * duality_eval(g, rho, xi, eta)
                         for w, xi in zip(weights, configs) if w != 0.0))

    return F


def killed_eigenpairs(g: WeightedGraph, omega, k: int,
                      space: ConfigSpace | None = None):
    """All eigenpairs of the negated killed generator, original coordinates."""
    space = space or enumerate_configs(g, k)
    L = build_killed(g, omega, k, space)
    vals, vecs = bottom_eigenpairs(L, L.size)
    return vals, vecs, space


def level_bottoms(g: WeightedGraph, omega, k_max: int) -> list[float]:
    """Bottom eigenvalue of each fixed-particle-number killed block."""
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    return [spectral_gap(build_killed(g, omega, k)) for k in range(1, k_max + 1)]


def build_absorbing_chain(g: WeightedGraph, omega, k: int):
    """Generator of the k-particle system with cascading particle loss.

    State space is the union of all levels j <= k; killing a particle moves
    the system one level down instead of freezing it.  The matrix is block
    lower triangular with the per-level killed blocks on the diagonal, so its
    spectrum is their union together with the absorbing empty state.
    """
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    spaces = [enumerate_configs(g, j) for j in range(k + 1)]
    offsets = np.cumsum([0] + [s.size for s in spaces])
    total = int(offsets[-1])
    rows, cols, vals = [], [], []
    diag = np.zeros(total)
    for j in range(1, k + 1):
        space = spaces[j]
        lo = offsets[j]
        block = build_killed(g, omega, j, space)
        coo = block.rates.tocoo()
        rows.extend(lo + coo.row)
        cols.extend(lo + coo.col)
        vals.extend(coo.data)
        diag[lo:lo + space.size] = block.diagonal
        lower = offsets[j - 1] + np.arange(space.up.shape[1])
        for x in range(g.n):
            if omega[x] == 0.0:
                continue
            src = space.up[x]
            rows.extend(lo + src)
            cols.extend(lower)
            vals.extend(omega[x] * space.occupations[src, x])
    rates = sp.coo_matrix((vals, (rows, cols)), shape=(total, total)).tocsr()
    gen = GeneratorMatrix(space=spaces, rates=rates, diagonal=diag)
    alive = np.ones(total)
    alive[0] = 0.0  # the empty configuration
    return gen, alive, offsets


@dataclass
class GapIdentityReport:
    level_bottoms: list[float]    # decay rate of each fixed-level block
    chain_gaps: list[float]       # spectral gap of the j <= k absorbing chain
    max_relative_deviation: float
    identity_holds: bool


def gap_identity_check(g: WeightedGraph, omega, k_max: int,
                       tol: float = 1e-8) -> GapIdentityReport:
    """Absorbing-chain gaps for every particle number against one particle.

    The k-particle absorbing chain has spectrum equal to the union of the
    level blocks for j <= k, so its gap is the smallest level bottom; the
    identity with the killed one-particle gap is exactly the statement that
    every level bottom dominates the one-particle one.
    """
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    if not np.any(omega > 0):
        raise ValueError("identity check needs a non-vanishing killing pattern")
    bottoms = level_bottoms(g, omega, k_max)
    chain_gaps = [min(bottoms[:k]) for k in range(1, k_max + 1)]
    base = chain_gaps[0]
    dev = max(abs(gk - base) / base for gk in chain_gaps)
    inf_tail = min(chain_gaps[1:]) if k_max >= 2 else base
    holds = dev < tol and abs(inf_tail - base) / base < tol
    return GapIdentityReport(level_bottoms=bottoms, chain_gaps=chain_gaps,
                             max_relative_deviation=dev, identity_holds=holds)


def _levels_up_to(g: WeightedGraph, top: int) -> list[tuple[int, ...]]:
    out = []
    for j in range(top + 1):
        sp_j = enumerate_configs(g, j)
        out.extend(sp_j.config(i) for i in range(sp_j.size))
    return out


def apply_b(g: WeightedGraph, omega, theta, rho: float, k: int,
            psi: np.ndarray, space: ConfigSpace,
            space_prev: ConfigSpace) -> np.ndarray:
    """Down-one-level drift operator appearing in the lifted eigen-relation.

    (b psi)(zeta) = k sum_x omega_x (theta_x - rho) (alpha_x + zeta_x)
    / (|alpha| + k - 1) * psi(zeta + delta_x).
    """
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (g.n,))
    total = g.total_alpha()
    occ = space_prev.occupations
    out = np.zeros(space_prev.size)
    for x in range(g.n):
        coeff = omega[x] * (theta[x] - rho)
        if coeff == 0.0:
            continue
        out += coeff * (g.alpha[x] + occ[:, x]) * psi[space.up[x]]
    return k * out / (total + k - 1)


def eigen_lift_residual(g: WeightedGraph, omega, theta, rho: float, k: int,
                        lam: float, psi, eigen_tol: float = 1e-9,
                        extra_checks: int = 3, seed: int = 5) -> float:
    """Defect of the lifted eigen-relation for one killed eigenpair.

    Checks L_open F[psi] + lam F[psi] - F[b psi] pointwise on all occupations
    with at most k + 2 particles (enough to pin down degree-k polynomials),
    plus a few random spots at 2k particles, relative to sup |F[psi]|.
    """
    if k == 0:
        return 0.0
    space = enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    psi = np.asarray(psi, dtype=float)
    L = build_killed(g, omega, k, space)
    defect = -L.matvec(psi) - lam * psi
    if np.linalg.norm(defect) > eigen_tol * max(np.linalg.norm(psi), 1e-300):
        raise ValueError("psi is not an eigenvector of the killed generator")
    F_psi = lift_F(g, rho, psi, space)
    if k >= 2:
        b_psi = apply_b(g, omega, theta, rho, k, psi, space, space_prev)
        F_b = lift_F(g, rho, b_psi, space_prev)
    else:
        b_scalar = apply_b(g, omega, theta, rho, k, psi, space, space_prev)
        F_b = lift_F(g, rho, float(b_scalar[0]), 0)
    grid = _levels_up_to(g, k + 2)
    rng = np.random.default_rng(seed)
    for _ in range(extra_checks):
        extra = rng.multinomial(2 * k, np.ones(g.n) / g.n)
        grid.append(tuple(int(v) for v in extra))
    sup_f = max(abs(F_psi(eta)) for eta in grid)
    worst = 0.0
    for eta in grid:
        lhs = open_generator_apply(g, omega, theta, F_psi, eta)
        resid = abs(lhs + lam * F_psi(eta) - F_b(eta))
        worst = max(worst, resid)
    return worst / max(sup_f, 1e-300)


@dataclass
class OrthogonalityReport:
    diagonal_deviation: float    # max relative defect of the closed-form norm
    off_diagonal: float          # max |<D_xi, D_zeta>| over distinct pairs
    truncation_levels: list[int]
    pairs_checked: int


def orthogonality_check(g: WeightedGraph, rho: float, k: int, l: int,
                        tol: float = 1e-7) -> OrthogonalityReport:
    """Gram structure of the duality kernels under the product measure.

    The inner product factorizes over sites, so each factor is a certified
    truncated one-dimensional sum; diagonal entries must match
    rho^k (1+rho)^k / Z * mu(xi)^{-1}, off-diagonal entries must vanish.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    deg = k + l
    cutoffs = [negbin_tail_cutoff(float(a), rho, tol=tol * 1e-3, poly_degree=deg)
               for a in g.alpha]
    p = rho / (1.0 + rho)

    @lru_cache(maxsize=None)
    def site_sum(x: int, xi_x: int, zeta_x: int) -> float:
        a = float(g.alpha[x])
        n_max = cutoffs[x]
        ns = np.arange(n_max + 1)
        log_pi = (np.cumsum(np.log(a + ns[:-1]) - np.log(ns[:-1] + 1.0))
                  if n_max >= 1 else np.array([]))
        log_w = np.concatenate([[0.0], log_pi]) + ns * math.log(p) \
            - a * math.log1p(rho)
        d1 = np.array([meixner_d(a, rho, xi_x, int(n)) for n in ns])
        d2 = d1 if zeta_x == xi_x else np.array(
            [meixner_d(a, rho, zeta_x, int(n)) for n in ns])
        return float(np.sum(np.exp(log_w) * d1 * d2))

    space_k = enumerate_configs(g, k)
    space_l = space_k if l == k else enumerate_configs(g, l)
    log_mu_k = mu(g, space_k).log_weights
    log_z = log_partition(g, k)
    diag_dev = 0.0
    off = 0.0
    pairs = 0
    for i in range(space_k.size):
        xi = space_k.config(i)
        for j in range(space_l.size):
            zeta = space_l.config(j)
            val = 1.0
            for x in range(g.n):
                val *= site_sum(x, xi[x], zeta[x])
            pairs += 1
            if k == l and xi == zeta:
                expected = math.exp(
                    k * (math.log(rho) + math.log1p(rho)) - log_z - log_mu_k[i]
                )
                diag_dev = max(diag_dev, abs(val - expected) / expected)
            else:
                off = max(off, abs(val))
    return OrthogonalityReport(diagonal_deviation=diag_dev, off_diagonal=off,
                               truncation_levels=cutoffs, pairs_checked=pairs)


@dataclass
class SurvivalReport:
    times: list[float]
    many_particle: list[float]   # worst case over starts, first kill pending
    one_particle: list[float]
    dominated: bool
    slope_deviation: float       # worst |extinction log-slope + chain gap|
    slope_mismatch: float        # |k-particle slope - one-particle slope|


def survival_domination(g: WeightedGraph, omega, k: int, t_grid,
                        slope_time: float = 20.0,
                        slope_dt: float = 1.0) -> SurvivalReport:
    """First-kill survival of k particles against a single killed walk.

    The domination inequality compares worst-case probabilities that no
    particle has been killed yet.  The extinction probabilities of the
    cascading chains decay at the chain gaps, which the identity makes equal
    at every particle number; their log-slopes are measured at a late time.
    """
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    if not np.any(omega > 0):
        raise ValueError("survival comparison needs killing somewhere")
    L_k = build_killed(g, omega, k)
    L_1 = build_killed(g, omega, 1)
    many, single = [], []
    dominated = True
    for t in t_grid:
        sk = float(expm_action(L_k, t, np.ones(L_k.size)).max())
        s1 = float(expm_action(L_1, t, np.ones(L_1.size)).max())
        many.append(sk)
        single.append(s1)
        if sk > s1 + 1e-12:
            dominated = False
    chain_gap_1 = spectrum(L_1).gap
    slopes = []
    for level in (k, 1):
        gen, alive, _ = build_absorbing_chain(g, omega, level)

        def slope_at(t: float) -> float:
            s_a = float(expm_action(gen, t, alive).max())
            s_b = float(expm_action(gen, t + slope_dt, alive).max())
            return (math.log(s_b) - math.log(s_a)) / slope_dt

        t, value = slope_time, slope_at(slope_time)
        for _ in range(4):  # extend until the asymptotic rate has set in
            later = slope_at(2.0 * t)
            if abs(later - value) < 1e-4:
                value = later
                break
            t, value = 2.0 * t, later
        slopes.append(value)
    slope_dev = max(abs(s + chain_gap_1) for s in slopes)
    return SurvivalReport(times=list(t_grid), many_particle=many,
                          one_particle=single, dominated=dominated,
                          slope_deviation=slope_dev,
                          slope_mismatch=abs(slopes[0] - slopes[1]))
