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

``centralizer`` and ``stacked_centralizer`` return a basis of the centralizer
as a ``Subspace``; ``centralizer_dim`` returns only its dimension and
ambiguity flag, from the singular values of the same adjoint matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (RANK_RTOL, Subspace, kernel_basis, kernel_dim,
                     orthonormal_columns)

HERMITICITY_TOL = 1e-12


@lru_cache(maxsize=None)
def _basis_data(n: int):
    """Stacked basis matrices of u(n), shape (n^2, n, n), plus conjugation signs."""
    mats = []
    signs = []
    s = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            M = np.zeros((n, n), dtype=complex)
            M[j, k] = s
            M[k, j] = -s
            mats.append(M)
            signs.append(1.0)
    for j in range(n):
        M = np.zeros((n, n), dtype=complex)
        M[j, j] = 1j
        mats.append(M)
        signs.append(-1.0)
    for j in range(n):
        for k in range(j + 1, n):
            M = np.zeros((n, n), dtype=complex)
            M[j, k] = 1j * s
            M[k, j] = 1j * s
            mats.append(M)
            signs.append(-1.0)
    B = np.stack(mats)
    B.setflags(write=False)
    sg = np.asarray(signs)
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
    form is G - G^T and its diagonal is exactly zero.
    """
    G = np.einsum("iab,jba->ij", w @ Ys, Ys)
    return G - G.T


@dataclass(frozen=True)
class LieElement:
    """An element of u(n): skew-Hermitian matrix plus real canonical coordinates."""

    n: int
    matrix: np.ndarray
    coords: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        herm_defect = np.max(np.abs(M + M.conj().T))
        scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
        if herm_defect > HERMITICITY_TOL * scale:
            raise ValueError(f"matrix is not skew-Hermitian (defect {herm_defect:.2e})")
        v = np.asarray(self.coords, dtype=float)
        M = M.copy()
        v = v.copy()
        M.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "coords", v)

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
        return LieElement(self.n, self.matrix + other.matrix, self.coords + other.coords)

    def __sub__(self, other: "LieElement") -> "LieElement":
        _check_same_n(self, other)
        return LieElement(self.n, self.matrix - other.matrix, self.coords - other.coords)

    def __neg__(self) -> "LieElement":
        return LieElement(self.n, -self.matrix, -self.coords)

    def __mul__(self, c: float) -> "LieElement":
        c = float(c)
        return LieElement(self.n, c * self.matrix, c * self.coords)

    __rmul__ = __mul__


def _check_same_n(X: LieElement, Y: LieElement):
    if X.n != Y.n:
        raise ValueError(f"ambient dimension mismatch: {X.n} vs {Y.n}")


def bracket(X: LieElement, Y: LieElement) -> LieElement:
    """Matrix commutator [X, Y] = XY - YX."""
    _check_same_n(X, Y)
    M = X.matrix @ Y.matrix - Y.matrix @ X.matrix
    return LieElement(X.n, M, matrix_to_coords(M).real)


def pairing(X: LieElement, Y: LieElement) -> float:
    """Invariant inner product <X, Y> = -Re Tr(XY); positive definite on u(n)."""
    _check_same_n(X, Y)
    return float(-np.trace(X.matrix @ Y.matrix).real)


def sigma(X: LieElement) -> LieElement:
    """Entrywise complex conjugation, the involution with fixed algebra so(n)."""
    M = X.matrix.conj()
    n = X.n
    _, signs = _basis_data(n)
    return LieElement(n, M, signs * X.coords)


def sigma_signs(n: int) -> np.ndarray:
    return _basis_data(n)[1]


def project(X: LieElement, S: Subspace) -> LieElement:
    """Pairing-orthogonal projection of X onto a real coordinate subspace."""
    return LieElement.from_coords(S.project(X.coords), X.n)


def _as_matrix(x, n: int | None = None) -> np.ndarray:
    if isinstance(x, LieElement):
        return x.matrix
    M = np.asarray(x, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    return M


def _is_skew_hermitian(M: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
    return float(np.max(np.abs(M + M.conj().T))) <= 1e-12 * scale


def _ad_stack(mats: np.ndarray, within: Subspace) -> np.ndarray:
    """``ad_in_basis`` for each w of a (m, n, n) stack, blocks stacked row-wise."""
    m, n, _ = mats.shape
    N, d = within.ambient_dim, within.dim
    real_mode = (not within.is_complex
                 and all(_is_skew_hermitian(W) for W in mats))
    Ys, W = coords_to_matrix(within.basis, n)[None], mats[:, None]
    C = matrices_to_coords((W @ Ys - Ys @ W).reshape(m * d, n, n))
    A = C.reshape(N, m, d).transpose(1, 0, 2).reshape(m * N, d)
    return A.real if real_mode else A


def ad_in_basis(w, within: Subspace) -> np.ndarray:
    """Matrix of y -> [w, y] restricted to ``within``, in ambient coordinates.

    Column j holds the coordinates of [w, b_j].  ``w`` may be any complex
    matrix; for skew-Hermitian w acting on a real subspace the result is cast
    to a real matrix, otherwise it stays complex and realizes the complexified
    adjoint action on the complex span of the basis.
    """
    return _ad_stack(_as_matrix(w)[None], within)


def centralizer(x, within: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """{y in within : [x, y] = 0} as a subspace of coordinate space.

    ``x`` may be a LieElement or a raw complex matrix.  When x is not
    skew-Hermitian (for instance x + lambda*a with complex lambda) or
    ``within`` is complexified, the kernel is taken over C, which computes
    the complexified centralizer.
    """
    W = _as_matrix(x)
    A = ad_in_basis(W, within)
    if np.iscomplexobj(A) and not within.is_complex:
        within = within.complexify()
    K, amb = kernel_basis(A, rtol, floor=float(np.linalg.norm(W)))
    return Subspace(within.ambient_dim, within.basis @ K,
                    ambiguous=amb or within.ambiguous)


def centralizer_dim(x, within: Subspace, rtol: float = RANK_RTOL) -> tuple[int, bool]:
    """``(dim, ambiguous)`` of ``centralizer(x, within, rtol)`` without its basis.

    The same adjoint matrix and the same rank floor decide the dimension, but
    no kernel basis or ``Subspace`` is built.
    """
    W = _as_matrix(x)
    dim, amb = kernel_dim(ad_in_basis(W, within), rtol, floor=float(np.linalg.norm(W)))
    return dim, amb or within.ambiguous


def stacked_centralizer(generators, within: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """{y in within : [g, y] = 0 for every generator g}."""
    mats = [_as_matrix(g) for g in generators]
    if not mats:
        return within
    mats = np.stack(mats)
    A = _ad_stack(mats, within)
    floor = float(np.max(np.linalg.norm(mats, axis=(1, 2))))
    K, amb = kernel_basis(A, rtol, floor=floor)
    return Subspace(within.ambient_dim, within.basis @ K,
                    ambiguous=amb or within.ambiguous)


def _pairwise_brackets(S: Subspace) -> np.ndarray:
    """Real coordinate columns of [b_i, b_j] for i < j, in row-major pair order."""
    n = int(round(np.sqrt(S.ambient_dim)))
    mats = coords_to_matrix(S.basis, n)
    i, j = np.triu_indices(S.dim, 1)
    return matrices_to_coords(mats[i] @ mats[j] - mats[j] @ mats[i]).real


def subalgebra_center(S: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """Center of a subalgebra given by its coordinate basis."""
    n = int(round(np.sqrt(S.ambient_dim)))
    return stacked_centralizer(coords_to_matrix(S.basis, n), S, rtol)


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


def unitary_exp(X: LieElement) -> np.ndarray:
    """Group element exp(X) in U(n), via the spectral decomposition of -iX."""
    H = -1j * X.matrix
    w, V = np.linalg.eigh(H)
    return (V * np.exp(1j * w)) @ V.conj().T


def conjugate(U: np.ndarray, X: LieElement) -> LieElement:
    """Adjoint action of a unitary group element: X -> U X U*."""
    return LieElement.from_matrix(U @ X.matrix @ U.conj().T)
