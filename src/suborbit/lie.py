"""The compact matrix algebra u(n): canonical basis, bracket, trace pairing,
conjugation involution, and centralizer computations.

Elements are skew-Hermitian n x n complex matrices.  The canonical real basis

    (E_jk - E_kj) / sqrt(2)        for j < k,
    i (E_jk + E_kj) / sqrt(2)      for j < k,
    i E_jj,

is orthonormal for the pairing <X, Y> = -Re Tr(XY), so the coordinate map is
an isometry onto R^(n^2) and all subspace arithmetic can be done on plain
coordinate vectors.  The real-matrix basis elements come first, which makes
the entrywise-conjugation involution diagonal (+1 on the first n(n-1)/2
coordinates, -1 on the rest).

Linear maps on a subspace act on the whole stacked basis at once, never one
column at a time: ``coords_to_matrix`` turns the basis columns into a
(d, n, n) stack through ``_basis_data``, broadcast products apply the map,
and ``matrices_to_coords`` reads the results back as columns.
``bracket_form`` gives tr(w [Y_i, Y_j]) as G - G^T from the one Gram matrix
G_ij = tr(w Y_i Y_j), instead of one commutator per pair.

u(n) is a real algebra and nothing here complexifies it: one element is a
``LieElement``, which checks that it lies in u(n), and a stack is a real
(n^2, S) array of coordinate columns, in u(n) by construction.  Subspaces
(``linalg.Subspace``) and adjoint matrices are real too.

``stacked_centralizer`` returns a basis of the common centralizer of its
generators as a ``Subspace``; ``centralizer`` is its one-generator case.
``centralizer_dims`` decides the centralizer dimension and ambiguity flag of
every element of a stack in one call, without a basis: on the whole u(n),
and on so(n) for real x, from one stacked ``eigvalsh`` of -i x (ad x is
normal in these coordinates); elsewhere from one stacked SVD of the adjoint
matrices, and decides every row with one ``linalg.numeric_ranks`` call.
``centralizer_dim`` is its one-element case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .linalg import (RANK_RTOL, Subspace, kernel_basis, numeric_ranks,
                     orthonormal_columns)

HERMITICITY_TOL = 1e-12


def coordinate_entries(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)``: the entry (j, k), j <= k, that each canonical
    coordinate is supported on, in coordinate order; the one record of it."""
    j, k = np.triu_indices(n, 1)
    d = np.arange(n)
    return np.concatenate([j, d, j]), np.concatenate([k, d, k])


@lru_cache(maxsize=None)
def _basis_data(n: int):
    """Stacked basis matrices of u(n), shape (n^2, n, n), plus conjugation signs."""
    rows, cols = coordinate_entries(n)
    idx = np.arange(n * n)
    fixed = idx < real_form_dim(n)
    s = 1.0 / np.sqrt(2.0)
    upper = np.where(rows == cols, 1j, np.where(fixed, s, 1j * s))
    lower = np.where(fixed, -s, upper)
    B = np.zeros((n * n, n, n), dtype=complex)
    B[idx, rows, cols] = upper
    B[idx, cols, rows] = lower
    B.setflags(write=False)
    sg = np.where(fixed, 1.0, -1.0)
    sg.setflags(write=False)
    return B, sg


def real_form_dim(n: int) -> int:
    """Number of canonical coordinates fixed by conjugation (the so(n) part)."""
    return n * (n - 1) // 2


def matrix_to_coords(M: np.ndarray) -> np.ndarray:
    """Coordinates of an arbitrary complex matrix in the canonical basis.

    Uses the complex-bilinear form -Tr(XY), for which the basis is orthonormal;
    the result is real exactly when M is skew-Hermitian.
    """
    M = np.asarray(M)
    n = M.shape[0]
    B, _ = _basis_data(n)
    return -np.einsum("iab,ba->i", B, M)


def coords_to_matrix(v: np.ndarray, n: int) -> np.ndarray:
    """Matrix of a coordinate vector (n^2,), or the (d, n, n) stack of matrices
    of the coordinate columns of a (n^2, d) array."""
    B, _ = _basis_data(n)
    return np.tensordot(np.asarray(v), B, axes=(0, 0))


def matrices_to_coords(Ms: np.ndarray) -> np.ndarray:
    """Coordinate columns (n^2, d) of a (d, n, n) stack; inverts coords_to_matrix."""
    Ms = np.asarray(Ms)
    B, _ = _basis_data(Ms.shape[-1])
    return -np.tensordot(B, Ms, axes=([1, 2], [2, 1]))


def bracket_form(w: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """Skew matrix F_ij = tr(w [Y_i, Y_j]) of a (d, n, n) stack ``Ys``.

    With G_ij = tr(w Y_i Y_j), cyclicity gives tr(w Y_j Y_i) = G_ji, so the
    form is G - G^T and its diagonal is exactly zero.  A (P, n, n) stack of
    ``w`` with a (P, d, n, n) stack of ``Ys`` gives the (P, d, d) forms.
    """
    G = np.einsum("...iab,...jba->...ij", w[..., None, :, :] @ Ys, Ys)
    return G - G.swapaxes(-1, -2)


@dataclass(frozen=True)
class LieElement:
    """An element of u(n): skew-Hermitian matrix plus real canonical coordinates."""

    n: int
    matrix: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        M = np.array(self.matrix, dtype=complex)
        herm_defect = np.max(np.abs(M + M.conj().T))
        scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
        # written so that a NaN or infinite entry fails the check
        if not herm_defect <= HERMITICITY_TOL * scale < np.inf:
            raise ValueError(f"matrix is not finite and skew-Hermitian "
                             f"(defect {herm_defect:.2e})")
        v = np.array(self.coords, dtype=float)
        M.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "coords", v)

    @classmethod
    def _trusted(cls, n: int, M: np.ndarray, v: np.ndarray) -> "LieElement":
        """Wrap fresh arrays that lie in u(n) by construction, unchecked: the
        round-off of a sum or bracket is relative to its operands, so the check
        of ``__post_init__``, scaled by the result, could reject a cancelling sum."""
        M.setflags(write=False)
        v.setflags(write=False)
        X = object.__new__(cls)
        X.__dict__.update(n=n, matrix=M, coords=v)
        return X

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "LieElement":
        M = np.asarray(M, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expected a square matrix")
        c = matrix_to_coords(M)
        return cls(M.shape[0], M, c.real)

    @classmethod
    def from_coords(cls, v: np.ndarray, n: int) -> "LieElement":
        v = np.asarray(v, dtype=float)
        if v.shape != (n * n,):
            raise ValueError(f"expected {n * n} coordinates, got {v.shape}")
        return cls(n, coords_to_matrix(v, n), v)

    @classmethod
    def zero(cls, n: int) -> "LieElement":
        return cls(n, np.zeros((n, n), dtype=complex), np.zeros(n * n))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __add__(self, other: "LieElement") -> "LieElement":
        _check_same_n(self, other)
        return LieElement._trusted(self.n, self.matrix + other.matrix, self.coords + other.coords)

    def __sub__(self, other: "LieElement") -> "LieElement":
        _check_same_n(self, other)
        return LieElement._trusted(self.n, self.matrix - other.matrix, self.coords - other.coords)

    def __neg__(self) -> "LieElement":
        return LieElement._trusted(self.n, -self.matrix, -self.coords)

    def __mul__(self, c: float) -> "LieElement":
        c = float(c)
        return LieElement._trusted(self.n, c * self.matrix, c * self.coords)

    __rmul__ = __mul__


def _check_same_n(X: LieElement, Y: LieElement):
    if X.n != Y.n:
        raise ValueError(f"ambient dimension mismatch: {X.n} vs {Y.n}")


def bracket(X: LieElement, Y: LieElement) -> LieElement:
    """Matrix commutator [X, Y] = XY - YX."""
    _check_same_n(X, Y)
    M = X.matrix @ Y.matrix - Y.matrix @ X.matrix
    return LieElement._trusted(X.n, M, matrix_to_coords(M).real)


def pairing(X: LieElement, Y: LieElement) -> float:
    """Invariant inner product <X, Y> = -Re Tr(XY); positive definite on u(n)."""
    _check_same_n(X, Y)
    return float(-np.trace(X.matrix @ Y.matrix).real)


def sigma(X: LieElement) -> LieElement:
    """Entrywise complex conjugation, the involution with fixed algebra so(n)."""
    M = X.matrix.conj()
    n = X.n
    _, signs = _basis_data(n)
    return LieElement._trusted(n, M, signs * X.coords)


def sigma_signs(n: int) -> np.ndarray:
    return _basis_data(n)[1]


def project(X: LieElement, S: Subspace) -> LieElement:
    """Pairing-orthogonal projection of X onto a real coordinate subspace."""
    return LieElement.from_coords(S.project(X.coords), X.n)


def _ad_stack(mats: np.ndarray, within: Subspace) -> np.ndarray:
    """(m, N, d) stack of ``ad_in_basis`` for each w of a (m, n, n) stack."""
    m, n, _ = mats.shape
    N, d = within.ambient_dim, within.dim
    Ys, W = coords_to_matrix(within.basis, n)[None], mats[:, None]
    C = matrices_to_coords((W @ Ys - Ys @ W).reshape(m * d, n, n)).real
    return C.reshape(N, m, d).transpose(1, 0, 2)


def _stack(C: np.ndarray) -> np.ndarray:
    """The (S, n, n) matrices of the real coordinate columns of ``C`` (n^2, S)."""
    if np.iscomplexobj(C):
        raise ValueError("coordinates are complex; a stack must lie in u(n)")
    return coords_to_matrix(C, isqrt(len(C)))


def ad_in_basis(x: LieElement, within: Subspace) -> np.ndarray:
    """Real matrix of y -> [x, y] restricted to ``within``, in ambient
    coordinates: column j holds the coordinates of [x, b_j]."""
    return _ad_stack(x.matrix[None], within)[0]


def centralizer(x: LieElement, within: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """{y in within : [x, y] = 0} as a subspace of coordinate space."""
    return stacked_centralizer(x.coords[:, None], within, rtol)


def _spectral_singular_values(mats: np.ndarray, within: Subspace):
    """Singular values of ad x on u(n) or so(n) read from the spectrum of x.

    With the orthonormal canonical coordinates ad x of a skew-Hermitian x is
    skew-symmetric, hence normal, so its singular values are the moduli of
    its eigenvalues.  With lambda the eigenvalues of -i x these are
    |lambda_i - lambda_j| over all (i, j) on u(n), and, for real x,
    |lambda_i + lambda_j| over i < j on so(n) (ad x acts there as x on the
    exterior square).  Returns them sorted descending, one row per matrix,
    or None when ``within`` is neither space or some x on so(n) is not real.
    """
    S, n, _ = mats.shape
    N, d = within.ambient_dim, within.dim
    whole = d == N
    if (not (whole or (d == real_form_dim(n) and not np.any(mats.imag)))
            or not np.array_equal(within.basis, np.eye(N, d))):
        return None
    lam = np.linalg.eigvalsh(-1j * mats)
    if whole:
        s = np.abs(lam[:, :, None] - lam[:, None, :]).reshape(S, N)
    else:
        i, j = np.triu_indices(n, 1)
        s = np.abs(lam[:, i] + lam[:, j])
    return -np.sort(-s, axis=1)


def centralizer_dims(C: np.ndarray, within: Subspace,
                     rtol: float = RANK_RTOL) -> tuple[np.ndarray, np.ndarray]:
    """``(dims, ambiguous)`` of the centralizer in ``within`` of each element
    given by a real coordinate column of ``C`` (n^2, S), without any kernel
    basis.

    On the whole u(n), and on so(n) for real x, the singular values of ad x
    come from one stacked ``eigvalsh`` (``_spectral_singular_values``); on any
    other space from one stacked SVD of the adjoint matrices.  Either way the
    ranks are decided by one ``numeric_ranks`` call with the floors |x|_F, as
    ``centralizer`` decides each, and each element keeps its own ambiguity
    flag and warning.
    """
    mats = _stack(C)
    s = _spectral_singular_values(mats, within)
    if s is None:
        s = np.linalg.svd(_ad_stack(mats, within), compute_uv=False)
    ranks, amb = numeric_ranks(s, rtol, np.linalg.norm(mats, axis=(1, 2)))
    return within.dim - ranks, amb | within.ambiguous


def centralizer_dim(x: LieElement, within: Subspace,
                    rtol: float = RANK_RTOL) -> tuple[int, bool]:
    """``(dim, ambiguous)`` of ``centralizer(x, within, rtol)`` without its
    basis: the one-element case of ``centralizer_dims``."""
    dims, amb = centralizer_dims(x.coords[:, None], within, rtol)
    return int(dims[0]), bool(amb[0])


def stacked_centralizer(C: np.ndarray, within: Subspace,
                        rtol: float = RANK_RTOL) -> Subspace:
    """{y in within : [g, y] = 0 for every generator g}, the generators given
    by the real coordinate columns of ``C`` (n^2, S)."""
    if not C.shape[1]:
        return within
    mats = _stack(C)
    A = _ad_stack(mats, within).reshape(len(mats) * within.ambient_dim, within.dim)
    floor = float(np.max(np.linalg.norm(mats, axis=(1, 2))))
    K, amb = kernel_basis(A, rtol, floor=floor)
    return Subspace(within.ambient_dim, within.basis @ K,
                    ambiguous=amb or within.ambiguous)


def _pairwise_brackets(S: Subspace) -> np.ndarray:
    """Real coordinate columns of [b_i, b_j] for i < j, in row-major pair order."""
    mats = coords_to_matrix(S.basis, isqrt(S.ambient_dim))
    i, j = np.triu_indices(S.dim, 1)
    return matrices_to_coords(mats[i] @ mats[j] - mats[j] @ mats[i]).real


def subalgebra_center(S: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """Center of a subalgebra given by its coordinate basis."""
    return stacked_centralizer(S.basis, S, rtol)


def derived_span(S: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """Span of all pairwise brackets of a basis of S (the derived subalgebra span)."""
    # basis elements are unit vectors, so genuine brackets are order one;
    # anchor the rank decision there rather than at the noise level
    Q, amb = orthonormal_columns(_pairwise_brackets(S), rtol, floor=1.0)
    return Subspace(S.ambient_dim, Q, amb)


def bracket_closure_residual(S: Subspace) -> float:
    """How far [S, S] leaves S; zero for subalgebras."""
    C = _pairwise_brackets(S)
    return float(np.max(np.linalg.norm(C - S.project(C), axis=0), initial=0.0))
