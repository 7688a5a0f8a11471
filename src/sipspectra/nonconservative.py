"""Open system: killed spectra, polynomial dualities, and eigenfunction lifts.

With purely absorbing reservoirs the particle number only decreases and the
spectrum splits over the per-level killed generators, whose gaps all coincide
with the killed one-particle gap.  For positive reservoir density the killed
eigenvectors lift through a family of orthogonal polynomial kernels to
eigenfunctions of the full open generator.

Two checks of these statements are computed on arrays:

* Lifts.  The duality kernel factorizes over sites (Giardina, Kurchan, Redig
  and Vafayi, J. Stat. Phys. 135, 2009; Redig and Sau, J. Stat. Phys. 172,
  2018), D(xi, eta) = prod_x d_x(xi_x, eta_x).  ``eigen_lift_residual``
  builds per-site tables d_x[xi, eta] = meixner_d(alpha_x, rho, xi, eta)
  once, holds its evaluation points as one integer array, and evaluates
  F[psi] = (mu psi) @ D on that array and on one shifted copy per move of the
  open generator; the generator is the rate-weighted sum of the differences.
  ``lift_F``, ``duality_eval`` and ``open_generator_apply`` are the pointwise
  forms of the same objects, kept as the public API and as the test oracle.
* Extinction slopes.  The cascading absorbing chain has at most a few
  hundred states; its one-step matrix exp(SLOPE_DT Q) is built once by
  uniformization and squared repeatedly, so the late-time decay rate is read
  at t in the thousands for the cost of a dozen dense products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .configspace import ConfigSpace, enumerate_configs
from .generators import GeneratorMatrix, build_killed
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

LIFT_EIGEN_TOL = 1e-9      # relative defect the killed eigenpair must meet
LIFT_EXTRA_SPOTS = 3       # seeded 2k-particle points added to the lift grid
LIFT_SEED = 5
SLOPE_DT = 1.0             # time step of the absorbing chain's one-step matrix
SLOPE_TOL = 1e-9           # consecutive slopes this close: the rate has set in
MAX_DOUBLINGS = 40         # t = (2^40 - 1) SLOPE_DT at most
IDENTITY_TOL = 1e-8        # relative slack of gap_identity_check
ORTHOGONALITY_TOL = 1e-7   # orthogonality_check truncates its site sums at 1e-3 of this


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


def killed_eigenpairs(g: WeightedGraph, omega, k: int):
    """All eigenpairs of the negated killed generator, original coordinates."""
    space = enumerate_configs(g, k)
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


def gap_identity_check(g: WeightedGraph, omega, k_max: int) -> GapIdentityReport:
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
    holds = dev < IDENTITY_TOL and abs(inf_tail - base) / base < IDENTITY_TOL
    return GapIdentityReport(level_bottoms=bottoms, chain_gaps=chain_gaps,
                             max_relative_deviation=dev, identity_holds=holds)


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


def _lift_grid(g: WeightedGraph, k: int) -> np.ndarray:
    """Evaluation points of a k-level lift, one occupation per row: every
    occupation with at most k + 2 particles (enough to pin down degree-k
    polynomials), then LIFT_EXTRA_SPOTS seeded spots at 2k particles."""
    rows = [enumerate_configs(g, j).occupations for j in range(k + 3)]
    rng = np.random.default_rng(LIFT_SEED)
    rows += [rng.multinomial(2 * k, np.ones(g.n) / g.n)[None, :]
             for _ in range(LIFT_EXTRA_SPOTS)]
    return np.vstack(rows).astype(np.intp)


def _kernel(tables: list[np.ndarray], xi: np.ndarray,
            points: np.ndarray) -> np.ndarray:
    """Product over sites of the tables t_x[xi_x, eta_x], for every
    configuration row xi and point row eta: with t_x = d_x, the duality
    kernel D(xi, eta)."""
    out = tables[0][xi[:, 0]].take(points[:, 0], axis=1)
    for x in range(1, len(tables)):
        out *= tables[x][xi[:, x]].take(points[:, x], axis=1)
    return out


def eigen_lift_residual(g: WeightedGraph, omega, theta, rho: float, k: int,
                        lam: float, psi) -> float:
    """Defect of the lifted eigen-relation for one killed eigenpair.

    Checks L_open F[psi] + lam F[psi] - F[b psi] on the points of
    ``_lift_grid``, relative to sup |F[psi]| there.  F is evaluated on whole
    point arrays: the grid and one shifted copy per move of the open
    generator (a jump along each directed edge, a removal at each killing
    site, an addition where theta > 0), weighted by the rates of
    ``open_generator_apply``.
    """
    if k == 0:
        return 0.0
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (g.n,))
    theta = np.broadcast_to(np.asarray(theta, dtype=float), (g.n,))
    space = enumerate_configs(g, k)
    space_prev = enumerate_configs(g, k - 1)
    psi = np.asarray(psi, dtype=float)
    L = build_killed(g, omega, k, space)
    defect = -L.matvec(psi) - lam * psi
    if np.linalg.norm(defect) > LIFT_EIGEN_TOL * max(np.linalg.norm(psi), 1e-300):
        raise ValueError("psi is not an eigenvector of the killed generator")
    if rho <= 0:
        raise ValueError("rho must be positive")
    b_psi = apply_b(g, omega, theta, rho, k, psi, space, space_prev)
    grid = _lift_grid(g, k)
    # per-site tables d_x[xi, eta] for xi <= k, eta up to one past the grid
    tables = [np.array([[meixner_d(float(a), rho, xi, eta)
                         for eta in range(int(grid.max()) + 2)]
                        for xi in range(k + 1)]) for a in g.alpha]
    weights = np.exp(mu(g, space).log_weights) * psi

    def lift(points: np.ndarray) -> np.ndarray:  # F[psi] at every point row
        return weights @ _kernel(tables, space.occupations, points)

    f_eta = lift(grid)
    alpha = g.alpha
    lhs = np.zeros(len(grid))

    def add_move(rows, shift: np.ndarray, rate: np.ndarray) -> None:
        lhs[rows] += rate[rows] * (lift(grid[rows] + shift) - f_eta[rows])

    eye = np.eye(g.n, dtype=np.intp)
    occupied = grid > 0
    for x, y, c in g.directed_edges:
        add_move(occupied[:, x], eye[y] - eye[x],
                 c * grid[:, x] * (alpha[y] + grid[:, y]))
    for x in range(g.n):
        if omega[x] == 0.0:
            continue
        add_move(occupied[:, x], -eye[x],
                 omega[x] * grid[:, x] * (1.0 + theta[x]))
        if theta[x] > 0:
            add_move(slice(None), eye[x],
                     omega[x] * theta[x] * (alpha[x] + grid[:, x]))
    f_b = (np.exp(mu(g, space_prev).log_weights) * b_psi) @ _kernel(
        tables, space_prev.occupations, grid)
    resid = np.abs(lhs + lam * f_eta - f_b)
    return float(resid.max()) / max(float(np.abs(f_eta).max()), 1e-300)


@dataclass
class OrthogonalityReport:
    diagonal_deviation: float    # max relative defect of the closed-form norm
    off_diagonal: float          # max |<D_xi, D_zeta>| over distinct pairs
    truncation_levels: list[int]
    pairs_checked: int


def orthogonality_check(g: WeightedGraph, rho: float, k: int, l: int) -> OrthogonalityReport:
    """Gram structure of the duality kernels under the product measure.

    The inner product factorizes over sites, so each factor is a certified
    truncated one-dimensional sum; diagonal entries must match
    rho^k (1+rho)^k / Z * mu(xi)^{-1}, off-diagonal entries must vanish.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    deg = k + l
    cutoffs = [negbin_tail_cutoff(float(a), rho, tol=ORTHOGONALITY_TOL * 1e-3,
                                  poly_degree=deg)
               for a in g.alpha]
    p = rho / (1.0 + rho)
    tables = []  # per-site Gram tables G_x[xi, zeta] = sum_n pi_x(n) d_x(xi, n) d_x(zeta, n)
    for a, n_max in zip(g.alpha.tolist(), cutoffs):
        ns = np.arange(n_max + 1)
        log_pi = (np.cumsum(np.log(a + ns[:-1]) - np.log(ns[:-1] + 1.0))
                  if n_max >= 1 else np.array([]))
        w = np.exp(np.concatenate([[0.0], log_pi]) + ns * math.log(p) - a * math.log1p(rho))
        d = np.array([[meixner_d(a, rho, xi, int(n)) for n in ns] for xi in range(max(k, l) + 1)])
        tables.append(np.array([[np.sum(w * d[xi] * d[zeta]) for zeta in range(l + 1)]
                                for xi in range(k + 1)]))
    space_k = enumerate_configs(g, k)
    space_l = space_k if l == k else enumerate_configs(g, l)
    gram = _kernel(tables, space_k.occupations, space_l.occupations)
    distinct = np.ones(gram.shape, dtype=bool)
    diag_dev = 0.0
    if k == l:
        np.fill_diagonal(distinct, False)
        base = k * (math.log(rho) + math.log1p(rho)) - log_partition(g, k)
        expected = np.array([math.exp(base - log_mu)
                             for log_mu in mu(g, space_k).log_weights.tolist()])
        diag_dev = float((np.abs(np.diagonal(gram) - expected) / expected).max(initial=0.0))
    return OrthogonalityReport(diagonal_deviation=diag_dev,
                               off_diagonal=float(np.abs(gram[distinct]).max(initial=0.0)),
                               truncation_levels=cutoffs, pairs_checked=gram.size)


@dataclass
class SurvivalReport:
    times: list[float]
    many_particle: list[float]   # worst case over starts, first kill pending
    one_particle: list[float]
    dominated: bool
    slope_deviation: float       # worst |extinction log-slope + chain gap|
    slope_mismatch: float        # |k-particle slope - one-particle slope|


def survival_domination(g: WeightedGraph, omega, k: int, t_grid) -> SurvivalReport:
    """First-kill survival of k particles against a single killed walk.

    The domination inequality compares worst-case probabilities that no
    particle has been killed yet, by uniformization at each grid time.  The
    extinction probabilities of the cascading chains decay at the chain gaps,
    which the identity makes equal at every particle number; their
    asymptotic log-slopes come from ``_extinction_slope``.
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
    slopes = [_extinction_slope(g, omega, level) for level in (k, 1)]
    slope_dev = max(abs(s + chain_gap_1) for s in slopes)
    return SurvivalReport(times=list(t_grid), many_particle=many,
                          one_particle=single, dominated=dominated,
                          slope_deviation=slope_dev,
                          slope_mismatch=abs(slopes[0] - slopes[1]))


def _extinction_slope(g: WeightedGraph, omega, level: int) -> float:
    """Asymptotic log-slope of the worst-case survival of the absorbing chain.

    The slow transient decays at lambda_2 - lambda_1, which can be as small
    as lambda_1 itself, so the rate settles only at t in the thousands.  The
    one-step matrix E = exp(SLOPE_DT Q) on the live states is built once;
    v advances by E^(2^j) through repeated squaring, and v and the power are
    rescaled to a unit maximum after every step, so fast killing cannot
    underflow them.  The slope log(max(E v) / max v) / SLOPE_DT is read after
    each doubling until two consecutive readings agree to SLOPE_TOL, or after
    MAX_DOUBLINGS.
    """
    gen, alive, _ = build_absorbing_chain(g, omega, level)
    live = alive > 0  # the empty state absorbs, so E restricts to the rest
    E = expm_action(gen, SLOPE_DT, np.eye(gen.size))[np.ix_(live, live)]
    v = np.ones(E.shape[0])
    power = E
    slope = math.inf
    for _ in range(MAX_DOUBLINGS):
        v = power @ v
        v /= v.max()
        previous, slope = slope, math.log(float((E @ v).max())) / SLOPE_DT
        if abs(slope - previous) < SLOPE_TOL:
            break
        power = power @ power
        power /= power.max()
    return slope
