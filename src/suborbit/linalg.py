"""Rank decisions and orthonormal subspace arithmetic.

Every subspace is stored as a matrix whose columns are orthonormal real
coordinate vectors over the ambient space.  All rank decisions in
the package go through a single relative singular-value threshold so that
dimension verdicts are consistent across modules.  Decisions that fall within
a decade of the threshold are flagged as ambiguous instead of silently
trusted.

``kernel_basis`` asks the SVD for the full right factor only when the matrix
is wide.  A tall matrix (rows >= cols) already has a square thin right
factor, so the full decomposition would only add a rows x rows left factor
that nothing reads; for the stacked adjoint matrix of a center computation
that factor has n^4 x n^4 entries.  ``kernel_dim`` makes the same rank
decision from the singular values alone, for callers that need only the
dimension.

``numeric_rank`` decides one set of singular values; ``numeric_ranks``
decides every row of a (S, r) stack at once by the same rule, each row with
its own floor, ambiguity flag and warning.  ``lie.centralizer_dims`` collects
the singular values of a stack of centralizers into one such stack and
decides it in one call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

RANK_RTOL = 1e-9
AMBIGUITY_BAND = 10.0
ORTHO_TOL = 1e-10


class RankAmbiguityWarning(UserWarning):
    """A singular value fell within a decade of the rank cutoff."""


def warn_fragile(what: str = "singular value within a decade of the rank cutoff"):
    """Warn that a verdict rests on a value near its cutoff, attributed to the
    caller of the caller of the function that warns."""
    warnings.warn(f"{what}, dimension verdict is fragile", RankAmbiguityWarning,
                  stacklevel=4)


def numeric_rank(singular_values, rtol: float = RANK_RTOL,
                 floor: float = 0.0) -> tuple[int, bool]:
    """Count singular values above ``rtol * max(sigma_max, floor)``.

    The values may come in any order; sigma_max is their largest.

    ``floor`` anchors the threshold to the scale of the input data; without
    it a matrix that is mathematically zero (all singular values round-off)
    would be measured against its own noise and look full rank.  Returns
    ``(rank, ambiguous)``; ``ambiguous`` is set when some singular value lies
    within a factor ``AMBIGUITY_BAND`` of the cutoff, i.e. when the verdict
    would flip under a modest change of the threshold.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0:
        return 0, False
    smax = max(float(s.max()), float(floor))
    if smax == 0.0:
        return 0, False
    cut = rtol * smax
    rank = int(np.count_nonzero(s > cut))
    near = int(np.count_nonzero((s > cut / AMBIGUITY_BAND) & (s < cut * AMBIGUITY_BAND)))
    ambiguous = near > 0
    if ambiguous:
        warn_fragile()
    return rank, ambiguous


def numeric_ranks(s, rtol: float = RANK_RTOL,
                  floors=0.0) -> tuple[np.ndarray, np.ndarray]:
    """``numeric_rank`` of every row of a (S, r) stack of singular values.

    Returns ``(ranks, ambiguous)``, two arrays of length S; row i is decided
    against ``rtol * max(max(s[i]), floors[i])`` (``floors`` may be a scalar)
    and warns once when it is ambiguous, exactly as ``numeric_rank`` would.
    """
    s = np.asarray(s, dtype=float)
    smax = np.maximum(s.max(axis=1, initial=0.0), floors)
    cut = (rtol * smax)[:, None]
    ranks = np.count_nonzero(s > cut, axis=1)
    ambiguous = np.any((s > cut / AMBIGUITY_BAND) & (s < cut * AMBIGUITY_BAND), axis=1)
    for _ in range(int(np.count_nonzero(ambiguous))):
        warn_fragile()
    return ranks, ambiguous


def kernel_basis(A, rtol: float = RANK_RTOL,
                 floor: float = 0.0) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of the right null space of ``A`` (columns), with ambiguity flag."""
    A = np.asarray(A)
    rows, cols = A.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=A.dtype), False
    if rows == 0 or not np.any(A):
        return np.eye(cols), False
    _, s, vh = np.linalg.svd(A, full_matrices=rows < cols)
    rank, ambiguous = numeric_rank(s, rtol, floor)
    return vh[rank:].conj().T, ambiguous


def kernel_dim(A, rtol: float = RANK_RTOL,
               floor: float = 0.0) -> tuple[int, bool]:
    """Dimension of the right null space of ``A``, with ambiguity flag.

    Decides the same rank as ``kernel_basis`` from the singular values alone,
    so no singular vectors are computed.
    """
    A = np.asarray(A)
    rows, cols = A.shape
    if cols == 0:
        return 0, False
    if rows == 0 or not np.any(A):
        return cols, False
    rank, ambiguous = numeric_rank(np.linalg.svd(A, compute_uv=False), rtol, floor)
    return cols - rank, ambiguous


def orthonormal_columns(A, rtol: float = RANK_RTOL,
                        floor: float = 0.0) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of the column space of ``A``, with ambiguity flag."""
    A = np.asarray(A)
    if A.shape[1] == 0 or not np.any(A):
        return A[:, :0].copy(), False
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    rank, ambiguous = numeric_rank(s, rtol, floor)
    return u[:, :rank], ambiguous


@dataclass
class Subspace:
    """A subspace of R^N given by an orthonormal real column basis."""

    ambient_dim: int
    basis: np.ndarray
    ambiguous: bool = False

    def __post_init__(self):
        B = np.asarray(self.basis)
        if np.iscomplexobj(B):
            raise ValueError("basis is complex; subspaces are real")
        if B.ndim != 2:
            B = B.reshape(self.ambient_dim, -1)
        if B.shape[0] != self.ambient_dim:
            raise ValueError(
                f"basis has {B.shape[0]} rows, ambient dimension is {self.ambient_dim}"
            )
        if B.shape[1] > 0:
            gram = B.T @ B
            # written so that a NaN entry fails the check
            if not np.max(np.abs(gram - np.eye(B.shape[1]))) <= ORTHO_TOL:
                raise ValueError("basis columns are not orthonormal")
        B = B.copy()
        B.setflags(write=False)
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coeffs(self, v: np.ndarray) -> np.ndarray:
        return self.basis.T @ v

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ v)

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        scale = max(1.0, float(np.linalg.norm(v)))
        return float(np.linalg.norm(v - self.project(v))) <= tol * scale


def full_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, np.eye(ambient_dim))


def intersect(S: Subspace, T: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if S.ambient_dim != T.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if S.dim == 0 or T.dim == 0:
        return Subspace(S.ambient_dim, np.zeros((S.ambient_dim, 0)),
                        S.ambiguous or T.ambiguous)
    stacked = np.hstack([S.basis, -T.basis])
    K, amb = kernel_basis(stacked, rtol)
    vecs = S.basis @ K[: S.dim]
    Q, amb2 = orthonormal_columns(vecs, rtol)
    return Subspace(S.ambient_dim, Q, S.ambiguous or T.ambiguous or amb or amb2)


def subspace_residual(S: Subspace, T: Subspace) -> float:
    """How far S sticks out of T: largest singular value of (1 - P_T) B_S."""
    if S.dim == 0:
        return 0.0
    R = S.basis - T.basis @ (T.basis.T @ S.basis)
    return float(np.linalg.norm(R, 2))


def equal_spaces(S: Subspace, T: Subspace, tol: float = 1e-8) -> bool:
    return (S.dim == T.dim
            and subspace_residual(S, T) <= tol
            and subspace_residual(T, S) <= tol)
