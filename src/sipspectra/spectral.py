"""Spectra, gaps and semigroup actions.

Every bottom-of-spectrum request on a reversible generator takes one path:
``symmetrized`` forms D^(1/2) (-L) D^(-1/2) (square-root weights in log
space, so tiny site weights survive) and certifies it, and ``_bottom``
diagonalizes the result: LAPACK on an ndarray, shift-inverted Lanczos on a
sparse matrix.  Two cut-offs pick the route because they serve different
requests.  A full spectrum is dense up to DENSE_CAP; above it only the bottom
N_EXTREMAL are computed and it is marked partial.  A bottom-few request is
dense up to BOTTOM_DENSE_CAP; above it Lanczos runs on (S - sigma I)^(-1),
applied through one band Cholesky factor of the shifted form in reverse
Cuthill-McKee order (0.1 s at 3,876 states, against 8 s for a dense solve).
The factor exists only if S is positive semidefinite, so it also certifies
that the eigenvalues nearest sigma are the bottom.  Asking for size - 1 or
more pairs is dense at any size, since Lanczos cannot return that many.  The
relative asymmetry residual must stay below ASYMMETRY_TOL = 1e-10; correctly
wired generators measure at most 2.6e-15 (2,880 seeded alpha-scan
generators), 1.2e-15 (torus(4,2) at k = 4, mixed alpha), 5.7e-16 (killed
random graphs) and 2.2e-16 (the limit chain's stack blocks).  A symmetric
matrix built elsewhere (a reduced walk, a restricted form) takes the same
path through ``symmetric_bottom``.  ``gap_and_semigroup`` reads a dense
gap's whole eigendecomposition to give exp(tL) F as well, certified on the
constant function to SEMIGROUP_TOL; ``expm_action`` uniformizes everything
else, killed generators and those without a reference measure included.  A
failed certificate raises CertificationError; a dimension above ITERATIVE_CAP
raises SpaceCapExceeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.sparse import csgraph
from scipy.stats import poisson

from .configspace import DEFAULT_CAP, SpaceCapExceeded, enumerate_configs
from .generators import (
    ASYMMETRY_TOL,
    CertificationError,
    GeneratorMatrix,
    build_sip,
)
from .graphs import WeightedGraph

__all__ = [
    "Spectrum",
    "GapScan",
    "symmetrized",
    "symmetric_bottom",
    "spectrum",
    "spectral_gap",
    "gap_sip",
    "gap_and_semigroup",
    "expm_action",
]

DENSE_CAP = 5000             # full spectrum: dense up to here
BOTTOM_DENSE_CAP = 1200      # bottom few eigenvalues: dense up to here
ITERATIVE_CAP = 300_000
N_EXTREMAL = 8               # eigenvalues of a partial spectrum
MONOTONE_TOL = 1e-10
EXPM_TOL = 1e-10             # neglected Poisson mass of expm_action
SEMIGROUP_TOL = 1e-8         # |exp(tL) 1 - 1| of gap_and_semigroup's dense route


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
    # a fixed start vector keeps the iteration deterministic run to run
    found = spla.eigsh(S, k=min(count, n - 1), sigma=sigma, which="LM",
                       OPinv=_shifted_inverse(S, sigma),
                       v0=np.random.default_rng(1729).standard_normal(n),
                       return_eigenvectors=vectors)
    if not vectors:
        return np.sort(found)
    vals, vecs = found
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def _shifted_inverse(S: sp.csr_matrix, sigma: float) -> spla.LinearOperator:
    """(S - sigma I)^(-1) from one band Cholesky factor.

    Reverse Cuthill-McKee narrows the band of the shifted form (781 on the
    3,876 states of torus(4,2) at k = 4).  The upper band is stored in
    Fortran order, so LAPACK factors it in place and solves against it
    without a copy.  A sigma below the bottom of S makes the form positive
    definite; a failed factor means S is not positive semidefinite and
    raises CertificationError, since the eigenvalues nearest sigma would
    not be the bottom of S.
    """
    n = S.shape[0]
    A = (S - sigma * sp.eye(n)).tocsr()
    perm = csgraph.reverse_cuthill_mckee(A, symmetric_mode=True)
    A = A[perm][:, perm].tocoo()
    upper = A.row <= A.col
    rows, cols = A.row[upper], A.col[upper]
    b = int((cols - rows).max(initial=0))
    band = np.zeros((b + 1, n), order="F")
    band[b + rows - cols, cols] = A.data[upper]
    try:
        factor = cholesky_banded(band, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise CertificationError(f"shifted form not positive definite: {exc}") from exc

    def solve(rhs):
        x = cho_solve_banded((factor, False), rhs[perm], overwrite_b=True,
                             check_finite=False)
        out = np.empty_like(x)
        out[perm] = x
        return out

    return spla.LinearOperator(S.shape, matvec=solve, dtype=float)


def _bottom_few_dense(size: int, count: int) -> bool:
    """Route of a bottom-few request: dense when small or when Lanczos
    cannot return ``count`` eigenpairs."""
    return size <= BOTTOM_DENSE_CAP or count >= size - 1


def symmetric_bottom(S: np.ndarray | sp.spmatrix, count: int) -> np.ndarray:
    """The ``count`` smallest eigenvalues of a matrix meant to be symmetric:
    its relative asymmetry is certified below ASYMMETRY_TOL, the rounding
    residue is averaged away and the bottom-few rule picks the route."""
    relative = float(abs(S - S.T).max()) / max(float(abs(S).max()), 1e-300)
    if relative > ASYMMETRY_TOL:
        raise CertificationError(f"symmetric form asymmetry residual {relative:.3e} too large")
    S = (S + S.T) * 0.5
    if not _bottom_few_dense(S.shape[0], count):
        S = sp.csr_matrix(S)
    elif sp.issparse(S):
        S = S.toarray()
    return _bottom(S, count)


def spectrum(L: GeneratorMatrix) -> Spectrum:
    """Spectrum of -L for a reversible (possibly killed) generator."""
    if L.size > ITERATIVE_CAP:
        raise SpaceCapExceeded(
            f"dimension {L.size} above the iterative-solver cap {ITERATIVE_CAP}")
    dense = L.size <= DENSE_CAP
    S, _ = symmetrized(L, dense)
    eigenvalues = _bottom(S, L.size if dense else N_EXTREMAL)
    return Spectrum(eigenvalues=eigenvalues,
                    gap=_extract_gap(eigenvalues, L),
                    conservative=L.conservative, partial=not dense)


def _extract_gap(eigenvalues: np.ndarray, L: GeneratorMatrix) -> float:
    """The gap of -L from its bottom eigenvalues, checking the zero mode.

    The zero mode is judged against the largest |diagonal entry| of L, which
    every route shares, not against the eigenvalues it was handed: how many
    were computed must not change the verdict.
    """
    if not L.conservative:
        return float(eigenvalues[0])
    scale = max(float(np.abs(L.diagonal).max(initial=0.0)), 1.0)
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
    return _extract_gap(_bottom(S, 3), L)


def gap_sip(g: WeightedGraph, k_max: int, cap: int = DEFAULT_CAP) -> GapScan:
    """Per-particle-number gaps and their running minimum over k >= 2."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    gaps = [spectral_gap(build_sip(g, k, enumerate_configs(g, k, cap)))
            for k in range(1, k_max + 1)]
    monotone = all(gaps[i + 1] <= gaps[i] + MONOTONE_TOL for i in range(len(gaps) - 1))
    overall = min(gaps[1:]) if k_max >= 2 else math.inf
    return GapScan(gaps=gaps, gap_sip=overall, monotone=monotone)


def gap_and_semigroup(L: GeneratorMatrix, t: float, F) -> tuple[float, np.ndarray]:
    """The gap of -L and exp(tL) F for a conservative reversible generator.

    Where the gap is dense, one eigendecomposition S = V diag(lam) V^T of the
    symmetrized form serves both: exp(tL) F = exp(-h) V e^(-t lam) V^T
    (exp(h) F) with h = log_weights / 2.  The zero mode's share of F, its
    pi-mean, is added exactly rather than through the computed zero vector,
    whose rounding the back-transform amplifies by up to e^(max h - min h)
    (30x less error at eps = 1e-3 on a 126-state slow-fast generator).  The
    route certifies itself on the constant function, taken through every
    mode: |exp(tL) 1 - 1| above SEMIGROUP_TOL raises CertificationError.
    Above the cut-off the gap is ``spectral_gap``'s and the semigroup is
    uniformized by ``expm_action``.
    """
    if not L.conservative:
        raise ValueError("gap_and_semigroup needs a conservative generator")
    if t <= 0:
        raise ValueError("time must be positive")
    if not _bottom_few_dense(L.size, 3):
        return spectral_gap(L), expm_action(L, t, F)
    S, _ = symmetrized(L, dense=True)
    vals, vecs = _bottom(S, L.size, vectors=True)
    gap = _extract_gap(vals, L)
    F = np.asarray(F, dtype=float)
    columns = F.reshape(L.size, -1)
    lw = L.reference.log_weights
    h = 0.5 * (lw - lw.max())
    pi = np.exp(2.0 * h)
    mean = (pi / pi.sum()) @ columns
    block = np.column_stack([columns - mean, np.ones(L.size)])
    modes = np.exp(-t * vals)[:, None] * (vecs.T @ (np.exp(h)[:, None] * block))
    evolved = np.exp(-h)[:, None] * (vecs @ modes)
    residual = float(np.abs(evolved[:, -1] - 1.0).max())
    if residual > SEMIGROUP_TOL:
        raise CertificationError(
            f"semigroup residual {residual:.3e} on the constant function too large")
    return gap, (evolved[:, :-1] + mean).reshape(F.shape)


def expm_action(L: GeneratorMatrix, t: float, f) -> np.ndarray:
    """exp(tL) f by uniformization.

    Poisson-weighted powers of the uniformized kernel; the number of terms is
    chosen so the neglected Poisson mass is below EXPM_TOL, giving a sup-norm
    error below EXPM_TOL * max|f|.  Works for conservative and killed
    generators alike.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    f = np.asarray(f, dtype=float)
    lam = float(np.max(-L.diagonal, initial=0.0))
    if lam <= 0.0:
        return f.copy()
    P = (L.rates + sp.diags(L.diagonal + lam)) / lam
    mu_t = lam * t
    m_max = int(poisson.isf(EXPM_TOL * 1e-2, mu_t)) + 2
    weights = poisson.pmf(np.arange(m_max + 1), mu_t)
    out = weights[0] * f
    term = f
    for m in range(1, m_max + 1):
        term = P @ term
        if weights[m] > 0.0:
            out = out + weights[m] * term
    return out
