"""Rank decisions and orthonormal subspace arithmetic.

Every subspace is stored as a matrix whose columns are orthonormal real
coordinate vectors over the ambient space.  Every rank decision in the
package is made against the one relative singular-value threshold
``RANK_RTOL``, so dimension verdicts are consistent across modules; the
``floor`` that anchors it to the data is keyword-only.  Decisions that fall
within a decade of the threshold are flagged as ambiguous instead of
silently trusted.

``kernel_basis`` asks the SVD for the full right factor only when the matrix
is wide.  A tall matrix (rows >= cols) already has a square thin right
factor, so the full decomposition would only add a rows x rows left factor
that nothing reads; for the stacked adjoint matrix of a center computation
that factor has n^4 x n^4 entries.  ``kernel_dim`` makes the same rank
decision from the singular values alone, for callers that need only the
dimension.

``numeric_ranks`` is the one place the rule is written: it decides every
row of a (S, r) stack of singular values at once, each row with its own
floor, ambiguity flag and warning.  ``kernel_basis``, ``kernel_dim`` and
``orthonormal_columns`` decide their one matrix as a one-row stack, and
``lie.centralizer_dims`` and ``pencil.pencil_isotropy_check`` collect the
singular values of a whole stack of matrices and decide it in one call.
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


def numeric_ranks(s, *, floors=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Count the singular values of each row of a (S, r) stack above its cutoff.

    Returns ``(ranks, ambiguous)``, two arrays of length S.  Row i is decided
    against ``RANK_RTOL * max(max(s[i]), floors[i])``; its values may come in
    any order, and ``floors`` may be a scalar.  The floor anchors the cutoff
    to the scale of the input data: without it a matrix that is
    mathematically zero (all singular values round-off) would be measured
    against its own noise and look full rank.  A row is ambiguous, and warns
    once, when some value lies within a factor ``AMBIGUITY_BAND`` of its
    cutoff, i.e. when the verdict would flip under a modest change of the
    threshold.
    """
    s = np.asarray(s, dtype=float)
    cut = RANK_RTOL * np.maximum(s.max(axis=1, initial=0.0), floors)[:, None]
    # ndarray methods rather than their np.* wrappers: most stacks are one row
    ranks = (s > cut).sum(axis=1)
    ambiguous = ((s > cut / AMBIGUITY_BAND) & (s < cut * AMBIGUITY_BAND)).any(axis=1)
    for _ in range(np.count_nonzero(ambiguous)):
        warn_fragile()
    return ranks, ambiguous


def kernel_basis(A, *, floor: float = 0.0) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of the right null space of ``A`` (columns), with ambiguity flag."""
    A = np.asarray(A)
    rows, cols = A.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=A.dtype), False
    if rows == 0 or not np.any(A):
        return np.eye(cols), False
    _, s, vh = np.linalg.svd(A, full_matrices=rows < cols)
    rank, ambiguous = numeric_ranks(s[None], floors=floor)
    return vh[rank[0]:].conj().T, bool(ambiguous[0])


def kernel_dim(A, *, floor: float = 0.0) -> tuple[int, bool]:
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
    rank, ambiguous = numeric_ranks(np.linalg.svd(A, compute_uv=False)[None], floors=floor)
    return cols - int(rank[0]), bool(ambiguous[0])


def orthonormal_columns(A, *, floor: float = 0.0) -> tuple[np.ndarray, bool]:
    """Orthonormal basis of the column space of ``A``, with ambiguity flag."""
    A = np.asarray(A)
    if A.shape[1] == 0 or not np.any(A):
        return A[:, :0].copy(), False
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    rank, ambiguous = numeric_ranks(s[None], floors=floor)
    return u[:, :rank[0]], bool(ambiguous[0])


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
