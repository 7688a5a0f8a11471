"""Spectra, gaps, Rayleigh quotients and semigroup actions.

Every bottom-of-spectrum request on a reversible generator takes one path:
``symmetrized`` forms D^(1/2) (-L) D^(-1/2) (square-root weights in log
space, so tiny site weights survive) and certifies it, and ``_bottom``
diagonalizes the result: LAPACK on an ndarray, shift-inverted Lanczos on a
sparse matrix.  Two cut-offs pick the route because they serve different
requests.  A full spectrum is dense up to DENSE_CAP; above it only the bottom
N_EXTREMAL are computed and it is marked partial.  A bottom-few request is
dense up to BOTTOM_DENSE_CAP; above it one factorization and a few dozen
solves beat a dense solve (8 s at 3,876 states).  Asking for size - 1 or more
pairs is dense at any size, since Lanczos cannot return that many.  The
relative asymmetry residual must stay below ASYMMETRY_TOL = 1e-10; correctly
wired generators measure at most 2.6e-15 (2,880 seeded alpha-scan
generators), 1.2e-15 (torus(4,2) at k = 4, mixed alpha), 5.7e-16 (killed
random graphs) and 2.2e-16 (the limit chain's stack blocks).  A failed
certificate raises CertificationError; a dimension above ITERATIVE_CAP raises
SpaceCapExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import poisson

from .configspace import DEFAULT_CAP as DEFAULT_SPACE_CAP
from .configspace import SpaceCapExceeded, enumerate_configs
from .generators import CertificationError, GeneratorMatrix, build_sip, dirichlet_form
from .graphs import WeightedGraph

__all__ = [
    "Spectrum",
    "GapScan",
    "symmetrized",
    "spectrum",
    "spectral_gap",
    "gap_sip",
    "rayleigh",
    "expm_action",
]

DENSE_CAP = 5000             # full spectrum: dense up to here
BOTTOM_DENSE_CAP = 1200      # bottom few eigenvalues: dense up to here
ITERATIVE_CAP = 300_000
N_EXTREMAL = 8               # eigenvalues of a partial spectrum
ASYMMETRY_TOL = 1e-10
MULTIPLICITY_TOL = 1e-8      # relative to the top eigenvalue
MONOTONE_TOL = 1e-10


@dataclass
class Spectrum:
    """Eigenvalues of the negated generator, sorted ascending."""

    eigenvalues: np.ndarray
    gap: float
    conservative: bool
    partial: bool = False

    def well_formed(self) -> bool:
        """Ascending, with a zero bottom (to 1e-8 * scale) when conservative
        and a positive one when killed."""
        ev = self.eigenvalues
        if not np.all(ev[1:] >= ev[:-1]):
            return False
        if not self.conservative:
            return bool(ev[0] > 0.0)
        return bool(abs(ev[0]) <= 1e-8 * max(abs(float(ev[-1])), 1.0))

    def groups(self) -> list[tuple[float, int]]:
        """Eigenvalues grouped into (value, multiplicity) clusters."""
        out: list[tuple[float, int]] = []
        scale = max(abs(self.eigenvalues[-1]), 1.0)
        for ev in self.eigenvalues:
            if out and abs(ev - out[-1][0]) <= MULTIPLICITY_TOL * scale:
                out[-1] = (out[-1][0], out[-1][1] + 1)
            else:
                out.append((float(ev), 1))
        return out


@dataclass
class GapScan:
    gaps: list[float]          # indexed by particle number, gaps[0] is k=1
    gap_sip: float             # min over k >= 2
    monotone: bool             # gap_k <= gap_{k-1} + MONOTONE_TOL along the scan


def symmetrized(L: GeneratorMatrix, dense: bool) -> tuple[np.ndarray | sp.csr_matrix, float]:
    """D^(1/2) (-L) D^(-1/2) with D = diag(reference weights), certified.

    Returns the symmetric matrix together with the asymmetry residual, which
    certifies the reversibility wiring before any eigensolve; a residual
    above ASYMMETRY_TOL raises CertificationError.  ``dense`` is the caller's
    choice of eigensolver: the dense route scatters the entries straight into
    an ndarray and symmetrizes in numpy, the iterative route stays sparse.
    Both give the same matrix bit for bit.
    """
    if L.reference is None:
        raise ValueError("spectrum needs a reference measure")
    lw = L.reference.log_weights
    rates = L.rates  # canonical CSR: no duplicate entries
    rows = np.repeat(np.arange(L.size, dtype=rates.indices.dtype), np.diff(rates.indptr))
    cols = rates.indices
    data = -rates.data * np.exp(0.5 * (lw[rows] - lw[cols]))
    if dense:
        S = np.zeros(rates.shape)
        S[rows, cols] = data
        S[np.diag_indices_from(S)] += -L.diagonal
        # (S + S^T) / 2 and S - S^T differ from S only on the stored pattern
        # and its mirror; the diagonal is its own mirror
        entry, mirror = S[rows, cols], S[cols, rows]
        asym = float(np.abs(entry - mirror).max(initial=0.0))
        scale = max(float(np.abs(entry).max(initial=1.0)),
                    float(np.abs(np.diagonal(S)).max(initial=1.0)))
        half = (entry + mirror) * 0.5
        S[rows, cols] = half
        S[cols, rows] = half
    else:
        S = sp.coo_matrix((data, (rows, cols)), shape=rates.shape).tocsr()
        S = S + sp.diags(-L.diagonal)
        asym = float(np.abs((S - S.T).data).max(initial=0.0))
        scale = float(np.abs(S.data).max(initial=1.0))
        S = ((S + S.T) * 0.5).tocsr()
    relative = asym / max(scale, 1e-300)
    if relative > ASYMMETRY_TOL:
        raise CertificationError(
            f"symmetrized matrix asymmetry residual {relative:.3e} too large")
    return S, relative


def _bottom(S: np.ndarray | sp.csr_matrix, count: int, vectors: bool = False):
    """The ``count`` smallest eigenvalues of what ``symmetrized`` returns,
    ascending, with eigenvector columns when ``vectors``; a sparse matrix
    yields at most n - 1 of them."""
    if isinstance(S, np.ndarray):
        if vectors:
            vals, vecs = np.linalg.eigh(S)
            return vals[:count], vecs[:, :count]
        return np.linalg.eigvalsh(S)[:count]
    n = S.shape[0]
    sigma = -1e-6 * float(np.abs(S.data).max(initial=1.0))
    # symmetric-structure ordering cuts the factor fill substantially
    lu = spla.splu((S - sigma * sp.eye(n)).tocsc(), permc_spec="MMD_AT_PLUS_A")
    # a fixed start vector keeps the iteration deterministic run to run
    found = spla.eigsh(S, k=min(count, n - 1), sigma=sigma, which="LM",
                       OPinv=spla.LinearOperator(S.shape, matvec=lu.solve),
                       v0=np.random.default_rng(1729).standard_normal(n),
                       return_eigenvectors=vectors)
    if not vectors:
        return np.sort(found)
    vals, vecs = found
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _bottom_few_dense(size: int, count: int) -> bool:
    """Route of a bottom-few request: dense when small or when Lanczos
    cannot return ``count`` eigenpairs."""
    return size <= BOTTOM_DENSE_CAP or count >= size - 1


def spectrum(L: GeneratorMatrix) -> Spectrum:
    """Spectrum of -L for a reversible (possibly killed) generator."""
    if L.size > ITERATIVE_CAP:
        raise SpaceCapExceeded(
            f"dimension {L.size} above the iterative-solver cap {ITERATIVE_CAP}")
    dense = L.size <= DENSE_CAP
    S, _ = symmetrized(L, dense)
    eigenvalues = _bottom(S, L.size if dense else N_EXTREMAL)
    return Spectrum(eigenvalues=eigenvalues,
                    gap=_extract_gap(eigenvalues, L.conservative),
                    conservative=L.conservative, partial=not dense)


def _extract_gap(eigenvalues: np.ndarray, conservative: bool) -> float:
    scale = max(abs(float(eigenvalues[-1])), 1.0)
    if not conservative:
        return float(eigenvalues[0])
    if abs(eigenvalues[0]) > 1e-8 * scale:
        raise CertificationError("conservative generator has no zero eigenvalue; wiring bug")
    return float(eigenvalues[1])


def bottom_eigenpairs(L: GeneratorMatrix, count: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Lowest eigenpairs of -L, eigenvectors in the original coordinates."""
    S, _ = symmetrized(L, _bottom_few_dense(L.size, count))
    vals, vecs = _bottom(S, count, vectors=True)
    back = np.exp(-0.5 * L.reference.log_weights)
    return vals, vecs * back[:, None]


def spectral_gap(L: GeneratorMatrix) -> float:
    """Gap only: a bottom-few request, so iterative above BOTTOM_DENSE_CAP."""
    S, _ = symmetrized(L, _bottom_few_dense(L.size, 3))
    return _extract_gap(_bottom(S, 3), L.conservative)


def gap_sip(g: WeightedGraph, k_max: int, cap: int = DEFAULT_SPACE_CAP) -> GapScan:
    """Per-particle-number gaps and their running minimum over k >= 2."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    gaps = [spectral_gap(build_sip(g, k, enumerate_configs(g, k, cap)))
            for k in range(1, k_max + 1)]
    monotone = all(gaps[i + 1] <= gaps[i] + MONOTONE_TOL for i in range(len(gaps) - 1))
    overall = min(gaps[1:]) if k_max >= 2 else math.inf
    return GapScan(gaps=gaps, gap_sip=overall, monotone=monotone)


def rayleigh(L: GeneratorMatrix, f) -> float:
    """Dirichlet form over variance (conservative) or squared norm (killed)."""
    if L.reference is None:
        raise ValueError("Rayleigh quotient needs a reference measure")
    f = np.asarray(f, dtype=float)
    energy = dirichlet_form(L, f)
    if L.conservative:
        denom = L.reference.variance(f)
        if denom <= 0.0:
            raise ValueError("Rayleigh quotient of a constant function")
    else:
        denom = L.reference.norm_sq(f)
        if denom <= 0.0:
            raise ValueError("Rayleigh quotient of the zero function")
    return energy / denom


def expm_action(L: GeneratorMatrix, t: float, f, tol: float = 1e-10) -> np.ndarray:
    """exp(tL) f by uniformization.

    Poisson-weighted powers of the uniformized kernel; the number of terms is
    chosen so the neglected Poisson mass is below tol, giving a sup-norm error
    below tol * max|f|.  Works for conservative and killed generators alike.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    f = np.asarray(f, dtype=float)
    lam = float(np.max(-L.diagonal, initial=0.0))
    if lam <= 0.0:
        return f.copy()
    P = (L.rates + sp.diags(L.diagonal + lam)) / lam
    mu_t = lam * t
    m_max = int(poisson.isf(tol * 1e-2, mu_t)) + 2
    weights = poisson.pmf(np.arange(m_max + 1), mu_t)
    out = weights[0] * f
    term = f
    for m in range(1, m_max + 1):
        term = P @ term
        if weights[m] > 0.0:
            out = out + weights[m] * term
    return out
