"""Reversible and reference measures, kept in log space throughout.

Products of Gamma-function ratios are never formed in linear space: site
weights far below 1 must be supported for the vanishing-diffusivity scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gammaln

from .configspace import ConfigSpace
from .graphs import WeightedGraph

__all__ = [
    "WeightedMeasure",
    "mu",
    "log_partition",
    "log_mu_rows",
    "varsigma_rows",
    "negbin_tail_cutoff",
]


@dataclass(frozen=True)
class WeightedMeasure:
    """Positive weights on an indexed state set, stored as logs."""

    log_weights: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.log_weights, dtype=float)
        lw.setflags(write=False)
        object.__setattr__(self, "log_weights", lw)

    @cached_property
    def weights(self) -> np.ndarray:
        w = np.exp(self.log_weights)
        w.setflags(write=False)
        return w

    @property
    def size(self) -> int:
        return self.log_weights.shape[0]

    def _check(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if f.shape[0] != self.size:
            raise ValueError(f"function has {f.shape[0]} entries, measure has {self.size}")
        return f

    def inner(self, f, h) -> float:
        f, h = self._check(f), self._check(h)
        return float(np.dot(self.weights, f * h))

    def norm_sq(self, f) -> float:
        return self.inner(f, f)


def _log_pi_rows(alpha: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """Row sums of log Gamma(alpha+eta) - log Gamma(alpha) - log eta!.

    A term depends only on its site and occupation, so the terms are
    tabulated for every occupation up to the largest and gathered per row.
    """
    occ = np.asarray(occ, dtype=np.int64)
    m = np.arange(occ.max(initial=0) + 1, dtype=float)
    terms = gammaln(m + alpha[:, None]) - gammaln(alpha)[:, None] - gammaln(m + 1.0)
    return terms[np.arange(alpha.size), occ].sum(axis=1)


@lru_cache(maxsize=512)
def _log_partition_cached(total_alpha: float, k: int) -> float:
    return float(gammaln(total_alpha + k) - gammaln(total_alpha) - gammaln(k + 1.0))


def log_partition(g: WeightedGraph, k: int) -> float:
    """Log of the normalizing constant of the k-particle reversible measure."""
    return _log_partition_cached(g.total_alpha(), k)


def log_mu_rows(alpha, occ, k: int | None = None) -> np.ndarray:
    """Log reversible weights for occupation rows under site weights alpha."""
    alpha = np.asarray(alpha, dtype=float)
    occ = np.atleast_2d(np.asarray(occ))
    if k is None:
        k = int(occ[0].sum())
    logz = _log_partition_cached(float(alpha.sum()), k)
    return _log_pi_rows(alpha, occ) - logz


def mu(g: WeightedGraph, space: ConfigSpace) -> WeightedMeasure:
    """Reversible measure of the conservative k-particle dynamics on g."""
    lw = log_mu_rows(g.alpha, space.occupations, space.k)
    return WeightedMeasure(log_weights=lw)


def varsigma_rows(alpha, occ) -> np.ndarray:
    """Symmetrizing weights prod_{occupied x} alpha_x / eta_x for each row."""
    alpha = np.asarray(alpha, dtype=float)
    occ = np.atleast_2d(np.asarray(occ, dtype=float))
    occupied = occ > 0
    safe = np.where(occupied, occ, 1.0)
    terms = np.where(occupied, alpha / safe, 1.0)
    return terms.prod(axis=1)


TAIL_CUTOFF_CAP = 100_000  # negbin_tail_cutoff gives up above this level


def negbin_tail_cutoff(alpha_x: float, rho: float, tol: float = 1e-12,
                       poly_degree: int = 0) -> int:
    """Smallest truncation level with a certified tail bound below tol.

    Bounds the tail of sum_m pi_x(m) (rho/(1+rho))^m (1+rho)^(-alpha) m^deg by
    a geometric series once the term ratio falls below (1 + p)/2 < 1, where
    p = rho/(1+rho).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    p = rho / (1.0 + rho)
    q_target = (1.0 + p) / 2.0
    log_term = -alpha_x * np.log1p(rho)  # log of the m = 0 term
    m = 0
    while m < TAIL_CUTOFF_CAP:
        m += 1
        log_term += np.log((alpha_x + m - 1) / m) + np.log(p)
        # every step ratio beyond m is bounded by r_star (term ratios drift
        # monotonically toward p from either side, the poly factor shrinks)
        r_star = max(1.0, (alpha_x + m) / (m + 1)) * p * ((m + 1) / m) ** poly_degree
        if r_star >= q_target:
            continue
        log_tail = (log_term + poly_degree * np.log(m)
                    + np.log(r_star) - np.log1p(-r_star))
        if log_tail < np.log(tol):
            return m
    raise RuntimeError(f"no certified truncation level below {TAIL_CUTOFF_CAP}")
