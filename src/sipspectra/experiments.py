"""Orchestrated experiments: the torus crossover scan and the bounds table.

The torus scan measures where the meeting bottleneck of two particles drops
below the walk gap, witnessing the failure of the one-particle identity on
large tori; every reduced quantity is cross-validated against a direct
computation on small sizes before the scan is trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .configspace import SpaceCapExceeded
from .generators import build_sip
from .graphs import GraphMetrics, WeightedGraph, metrics, torus
from .metastable import build_chain, lambda_km
from .spectral import _bottom, _bottom_few_dense, spectral_gap

__all__ = [
    "TorusRow",
    "TorusScan",
    "difference_walk_rate",
    "torus_walk_gap",
    "kac_return_time",
    "kac_first_escape",
    "torus_experiment",
    "BoundsRow",
    "bounds_report_rows",
    "quadratic_crossover",
    "explicit_lower_bound",
]


def _torus_coords(n: int, d: int) -> np.ndarray:
    return np.indices((n,) * d).reshape(d, -1).T


def _torus_neighbors(n: int, d: int):
    """Flat index pairs (site, neighbor) for all 2d unit steps."""
    coords = _torus_coords(n, d)
    strides = np.array([n ** (d - 1 - i) for i in range(d)])
    flat = coords @ strides
    pairs = []
    for axis in range(d):
        for step in (1, -1):
            shifted = coords.copy()
            shifted[:, axis] = (shifted[:, axis] + step) % n
            pairs.append((flat, shifted @ strides))
    return pairs


def _separation_jumps(n: int, d: int) -> sp.csr_matrix:
    """Off-diagonal rates of the separation walk: rate 2 to each of its 2d neighbors."""
    pairs = _torus_neighbors(n, d)
    rows = np.concatenate([flat for flat, _ in pairs])
    cols = np.concatenate([to for _, to in pairs])
    return sp.coo_matrix((np.full(rows.size, 2.0), (rows, cols)),
                         shape=(n**d, n**d)).tocsr()


def torus_walk_gap(n: int) -> float:
    """Walk gap on the torus with unit rates: 2(1 - cos(2 pi / n))."""
    return 2.0 * (1.0 - math.cos(2.0 * math.pi / n))


def difference_walk_rate(n: int, d: int) -> float:
    """Smallest killing rate of the separation walk outside the contact zone.

    The separation of two independent unit-rate walkers steps to each of its
    2d neighbors at rate 2 and is killed on arrival within distance one of
    the origin; the bottom Dirichlet eigenvalue on the complement is the
    two-stack sector rate of the limit chain.
    """
    coords = _torus_coords(n, d)
    dist = np.minimum(coords, n - coords).sum(axis=1)
    keep = np.nonzero(dist >= 2)[0]
    if keep.size == 0:
        raise ValueError(f"no separated states on the torus of size {n}^{d}")
    off = _separation_jumps(n, d)[keep][:, keep]
    neg = (sp.diags(np.full(keep.size, 4.0 * d)) - off).tocsr()  # symmetric already
    S = neg.toarray() if _bottom_few_dense(keep.size, 1) else neg
    return float(_bottom(S, 1)[0])


def _hitting_times_to_origin(n: int, d: int) -> np.ndarray:
    """Mean times for the rate-2 separation walk to hit the origin."""
    size = n**d
    neg_l = sp.diags(np.full(size, 4.0 * d)) - _separation_jumps(n, d)
    inner = np.arange(1, size)
    h = spla.spsolve(neg_l[inner][:, inner].tocsc(), np.ones(size - 1))
    out = np.zeros(size)
    out[inner] = h
    return out


def kac_return_time(n: int, d: int) -> float:
    """Mean return time to the origin via the hitting-time linear system."""
    h = _hitting_times_to_origin(n, d)
    coords = _torus_coords(n, d)
    strides = np.array([n ** (d - 1 - i) for i in range(d)])
    total = 0.0
    for axis in range(d):
        for step in (1, -1):
            e = np.zeros(d, dtype=int)
            e[axis] = step % n
            total += h[int(e @ strides)]
    # first jump, then a uniformly chosen neighbor among the 2d of them
    return 1.0 / (4.0 * d) + total / (2.0 * d)


def kac_first_escape(n: int, d: int) -> float:
    """Mean time to first leave the origin: one over its assembled jump rates."""
    return 1.0 / float(_separation_jumps(n, d)[0].sum())


@dataclass
class TorusRow:
    n: int
    walk_gap: float
    lambda_two: float
    crossover: bool              # lambda_two < walk_gap
    s_n: float                   # meeting-time scale n^2 log n or n^d


@dataclass
class TorusScan:
    d: int
    rows: list[TorusRow]
    crossover_n: int | None      # first n with a stable window of crossings
    validation_deviation: float  # reduced vs direct two-stack rate, small n
    walk_gap_deviation: float    # cosine formula vs eigensolve, small n
    kac_return_deviation: float  # relative, against n^d / (4d)
    kac_escape_deviation: float


def torus_experiment(d: int, n_range, budget: int = 300_000,
                     direct_max: int = 6, stability_window: int = 5) -> TorusScan:
    """Scan torus sizes for the crossover of the two-stack rate below the gap.

    The reduced separation-walk eigenvalue is only trusted after agreeing
    with the direct two-particle limit-chain computation on small sizes, and
    the closed-form walk gap and return-time values are checked against the
    eigensolver and the hitting-time system.
    """
    if d < 2:
        raise ValueError("the crossover scan needs dimension at least 2")
    ns = list(n_range)
    if any(n**d > budget for n in ns):
        raise SpaceCapExceeded(f"torus scan exceeds the budget {budget}")
    val_dev = 0.0
    for n in range(4, direct_max + 1):
        g = torus(n, d)
        chain = build_chain(g, 2)
        direct = lambda_km(chain, 2)
        reduced = difference_walk_rate(n, d)
        val_dev = max(val_dev, abs(direct - reduced) / direct)
    if val_dev > 1e-8:
        # the reduced eigenvalue may only be scanned once it matches the
        # direct two-particle computation on the small sizes
        raise ValueError(
            f"separation-walk reduction failed cross-validation ({val_dev:.3e})"
        )
    gap_dev = 0.0
    for n in range(3, 11):
        g = torus(n, d)
        exact = torus_walk_gap(n)
        solved = spectral_gap(build_sip(g, 1))
        gap_dev = max(gap_dev, abs(exact - solved) / exact)
    kac_ret_dev = 0.0
    kac_esc_dev = 0.0
    for n in range(4, min(direct_max, 10) + 1):
        expected = n**d / (4.0 * d)
        kac_ret_dev = max(kac_ret_dev,
                          abs(kac_return_time(n, d) - expected) / expected)
        kac_esc_dev = max(kac_esc_dev,
                          abs(kac_first_escape(n, d) - 1.0 / (4.0 * d)) * 4.0 * d)
    rows = []
    for n in ns:
        lam = difference_walk_rate(n, d)
        gap = torus_walk_gap(n)
        s_n = n**2 * math.log(n) if d == 2 else float(n**d)
        rows.append(TorusRow(n=n, walk_gap=gap, lambda_two=lam,
                             crossover=lam < gap, s_n=s_n))
    crossover_n = None
    flags = [r.crossover for r in rows]
    for i in range(len(rows)):
        window = flags[i:i + stability_window]
        if len(window) == stability_window and all(window) and all(flags[i:]):
            crossover_n = rows[i].n
            break
    return TorusScan(d=d, rows=rows, crossover_n=crossover_n,
                     validation_deviation=val_dev,
                     walk_gap_deviation=gap_dev,
                     kac_return_deviation=kac_ret_dev,
                     kac_escape_deviation=kac_esc_dev)


# -- bounds table ------------------------------------------------------------


def _linear_bound(met: GraphMetrics, n: int) -> float:
    """The explicit bound from graph features already computed, for n vertices."""
    return (met.alpha_min / 21.0) * (met.alpha_ratio
                                     / 6.0 ** (met.alpha_min / met.alpha_ratio)) \
        * met.c_min / (n**2 * met.diameter)


def explicit_lower_bound(g: WeightedGraph) -> float:
    """Explicit lower bound on the many-particle gap from graph features."""
    return _linear_bound(metrics(g), g.n)


@dataclass
class BoundsRow:
    eps: float
    gap_rw: float
    gap_sip: float               # min over 2 <= k <= k_max
    sandwich_lower: float        # (1 ^ alpha_min) gap_rw
    linear_lower: float          # explicit graph-feature bound
    quadratic_lower: float       # alpha_min^2 gap_rw(unit-scale weights)
    sandwich_ok: bool
    linear_ok: bool


def bounds_report_rows(g: WeightedGraph, k_max: int = 4,
                       eps_grid=(1.0, 0.1, 0.01), tol: float = 1e-8) -> list[BoundsRow]:
    """Tabulate the gap bounds across a diffusivity grid.

    The base weights of g are treated as the shape; each row rescales them by
    eps and compares the many-particle gap against the walk sandwich, the
    linear-in-the-smallest-weight bound, and the naive quadratic bound.
    """
    base_gap_hat = spectral_gap(build_sip(g.with_alpha(g.alpha / g.alpha.min()), 1))
    rows = []
    for eps in eps_grid:
        ge = g.scaled_alpha(eps)
        met = metrics(ge)
        gap_rw = spectral_gap(build_sip(ge, 1))
        gaps = [spectral_gap(build_sip(ge, k)) for k in range(2, k_max + 1)]
        gap_sip = min(gaps)
        lower = min(1.0, met.alpha_min) * gap_rw
        linear = _linear_bound(met, ge.n)
        quadratic = met.alpha_min**2 * base_gap_hat
        rows.append(BoundsRow(
            eps=float(eps),
            gap_rw=gap_rw,
            gap_sip=gap_sip,
            sandwich_lower=lower,
            linear_lower=linear,
            quadratic_lower=quadratic,
            sandwich_ok=(lower - tol <= gap_sip <= gap_rw + tol),
            linear_ok=(gap_sip >= linear - tol),
        ))
    return rows


def quadratic_crossover(g: WeightedGraph, hi: float = 1.0) -> float | None:
    """Diffusivity below which the linear bound beats the naive quadratic one.

    The quadratic bound scales like eps^2 while the explicit bound is linear
    in eps up to the slowly varying weight-dependent factor, so they cross
    once; found by bisection on (0, hi].  None when the linear bound already
    wins at eps = hi.

    Diameter and conductances do not depend on the weights, and the rescaled
    weights eps * alpha / alpha_min enter the bound only through their
    extremes.  Correctly rounded multiply and divide are monotone, so the
    scalar extremes below equal min and max of that array bit for bit, and
    each margin is scalar arithmetic on features computed once per call.
    """
    base_gap_hat = spectral_gap(build_sip(g.with_alpha(g.alpha / g.alpha.min()), 1))
    met = metrics(g)
    a_min, a_max = met.alpha_min, met.alpha_max

    def margin(eps: float) -> float:
        low, high = eps * a_min / a_min, eps * a_max / a_min
        scaled = replace(met, alpha_min=low, alpha_max=high, alpha_ratio=low / high)
        return _linear_bound(scaled, g.n) - low**2 * base_gap_hat

    if margin(hi) > 0:
        return None
    lo = hi
    while margin(lo) <= 0:
        lo /= 2.0
        if lo < 1e-12:
            raise RuntimeError("no crossover above eps = 1e-12")
    a, b = lo, min(2 * lo, hi)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if margin(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
