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

Every bracket the package computes in coordinates comes from one gather of
the sparse structure constants of u(n) (``_structure_constants``, at most two
terms per entry of ad x): ``_sparse_ad_stack`` returns, for a stack of
elements, the matrices of ad x on the columns of a basis, without the rows
that vanish.  Its index bookkeeping (the support, which terms land on which
entry, and where) depends only on n and the coordinates the basis is
supported on, so ``_gather_plan`` makes it once per (n^2, support) and keeps
it, read-only, for at most ``_GATHER_PLANS_MAX`` = 256 supports; a call then
does only the arithmetic.  A coordinate subspace is handed to the gather as
its boolean support mask.  ``ad_in_basis`` and ``centralizer`` read the
gather for one element, ``centralizer_dims`` for a stack, ``bracket_form``
gives tr(w [y_i, y_j]) as Y^T (ad w) Y, and ``bracket_closure_residual``
reads the brackets of a basis from it; no complex matrix is formed on the
way.  ``bracket`` of two ``LieElement`` values is the one matrix commutator.

u(n) is a real algebra and nothing here complexifies it: one element is a
``LieElement``, held by its real coordinates alone, and a stack is a real
(n^2, S) array of coordinate columns, both in u(n) by construction; the gather
refuses complex coordinates.  Subspaces (``linalg.Subspace``) and adjoint
matrices are real too.  Basis element i is supported on the entry (j, k) of
``coordinate_entries`` and, off the diagonal, on (k, j): ``coords_to_matrix``
writes each coordinate there and ``matrix_to_coords`` reads it back, with no
dense basis.  A ``LieElement`` builds its matrix from its coordinates when it
is first read; ``from_matrix`` checks that its input is finite and
skew-Hermitian, and keeps it as that matrix.

``centralizer`` returns a basis of the centralizer of one element as a
``Subspace``.  ``centralizer_dims`` decides the centralizer dimension and
ambiguity flag of every element of a stack in one call, without a basis: on
the whole u(n), and on so(n) for real x, from one stacked ``eigvalsh`` of
-i x (ad x is normal in these coordinates); elsewhere from one stacked SVD
of the gathered adjoint matrices, and decides every row with one
``linalg.numeric_ranks`` call.  ``centralizer_dim`` is its one-element case.
Rank floors are the coordinate norms, which equal |x|_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np

from .linalg import Subspace, kernel_basis, numeric_ranks

HERMITICITY_TOL = 1e-12


@lru_cache(maxsize=None)
def coordinate_entries(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, cols)``: the entry (j, k), j <= k, that each canonical
    coordinate is supported on, in coordinate order; the one record of it."""
    j, k = np.triu_indices(n, 1)
    d = np.arange(n)
    rows, cols = np.concatenate([j, d, j]), np.concatenate([k, d, k])
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def real_form_dim(n: int) -> int:
    """Number of canonical coordinates fixed by conjugation (the so(n) part)."""
    return n * (n - 1) // 2


_S = 1.0 / np.sqrt(2.0)


def matrix_to_coords(M: np.ndarray) -> np.ndarray:
    """Coordinates of a complex matrix (n, n), or the (n^2, ...) coordinate
    columns of a (..., n, n) stack, in the canonical basis.

    Uses the complex-bilinear form -Tr(XY), for which the basis is orthonormal;
    the result is real exactly when M is skew-Hermitian.  Coordinate i reads
    the entries (j, k) and (k, j) of ``coordinate_entries`` only.
    """
    M = np.asarray(M)
    n = M.shape[-1]
    f = real_form_dim(n)
    rows, cols = coordinate_entries(n)
    Mt = np.moveaxis(M, (-2, -1), (0, 1))
    up, lo = _S * Mt[rows[:f], cols[:f]], _S * Mt[cols[:f], rows[:f]]
    # the diagonal by einsum, which bench/test_bench.py requires on the flow path
    diag = np.einsum("ii...->i...", Mt)
    C = np.concatenate([up - lo, -1j * diag, -1j * (lo + up)])
    # at n = 2 every piece is also F-contiguous, and concatenate keeps that
    return np.ascontiguousarray(C)


def coords_to_matrix(v: np.ndarray, n: int) -> np.ndarray:
    """Matrix of a coordinate vector (n^2,), or the (..., n, n) stack of
    matrices of the coordinate columns of a (n^2, ...) array: each coordinate
    is written to its entry (j, k) and, off the diagonal, to (k, j)."""
    v = np.moveaxis(np.asarray(v), 0, -1)
    f = real_form_dim(n)
    rows, cols = coordinate_entries(n)
    j, k, d = rows[:f], cols[:f], rows[f:f + n]
    re, im = _S * v[..., :f], _S * v[..., f + n:]
    M = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
    M[..., j, k] = re + 1j * im
    M[..., k, j] = -re + 1j * im
    M[..., d, d] = 1j * v[..., f:f + n]
    return M


def sigma_signs(n: int) -> np.ndarray:
    """The signs of entrywise conjugation on the canonical coordinates: +1 on
    the so(n) part, -1 on the rest."""
    return np.where(np.arange(n * n) < real_form_dim(n), 1.0, -1.0)


@dataclass(frozen=True)
class LieElement:
    """An element of u(n), held by its real canonical coordinates; the
    skew-Hermitian matrix is built from them when first read."""

    n: int
    coords: np.ndarray

    def __post_init__(self):
        v = np.array(self.coords, dtype=float)
        if v.shape != (self.n * self.n,):
            raise ValueError(f"expected {self.n * self.n} coordinates, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("coordinates are not finite")
        v.setflags(write=False)
        object.__setattr__(self, "coords", v)

    @cached_property
    def matrix(self) -> np.ndarray:
        M = coords_to_matrix(self.coords, self.n)
        M.setflags(write=False)
        return M

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "LieElement":
        """The element of a finite skew-Hermitian matrix, which it keeps as
        ``matrix``."""
        M = np.array(M, dtype=complex)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("expected a square matrix")
        herm_defect = np.max(np.abs(M + M.conj().T))
        scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
        # written so that a NaN or infinite entry fails the check
        if not herm_defect <= HERMITICITY_TOL * scale < np.inf:
            raise ValueError(f"matrix is not finite and skew-Hermitian "
                             f"(defect {herm_defect:.2e})")
        X = cls(M.shape[0], matrix_to_coords(M).real)
        M.setflags(write=False)
        X.__dict__["matrix"] = M
        return X

    @classmethod
    def from_coords(cls, v: np.ndarray, n: int) -> "LieElement":
        return cls(n, v)

    @classmethod
    def zero(cls, n: int) -> "LieElement":
        return cls(n, np.zeros(n * n))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def __add__(self, other: "LieElement") -> "LieElement":
        _check_same_n(self, other)
        return LieElement(self.n, self.coords + other.coords)

    def __sub__(self, other: "LieElement") -> "LieElement":
        _check_same_n(self, other)
        return LieElement(self.n, self.coords - other.coords)

    def __neg__(self) -> "LieElement":
        return LieElement(self.n, -self.coords)

    def __mul__(self, c: float) -> "LieElement":
        return LieElement(self.n, float(c) * self.coords)

    __rmul__ = __mul__


def _check_same_n(X: LieElement, Y: LieElement):
    if X.n != Y.n:
        raise ValueError(f"ambient dimension mismatch: {X.n} vs {Y.n}")


def bracket(X: LieElement, Y: LieElement) -> LieElement:
    """Matrix commutator [X, Y] = XY - YX."""
    _check_same_n(X, Y)
    M = X.matrix @ Y.matrix - Y.matrix @ X.matrix
    return LieElement(X.n, matrix_to_coords(M).real)


def pairing(X: LieElement, Y: LieElement) -> float:
    """Invariant inner product <X, Y> = -Re Tr(XY); positive definite on u(n).
    The coordinates are orthonormal for it, so it is their dot product."""
    _check_same_n(X, Y)
    return float(X.coords @ Y.coords)


def sigma(X: LieElement) -> LieElement:
    """Entrywise complex conjugation, the involution with fixed algebra so(n)."""
    return LieElement(X.n, sigma_signs(X.n) * X.coords)


def project(X: LieElement, S: Subspace) -> LieElement:
    """Pairing-orthogonal projection of X onto a real coordinate subspace."""
    return LieElement.from_coords(S.project(X.coords), X.n)


def ad_in_basis(x: LieElement, within: Subspace) -> np.ndarray:
    """Real matrix of y -> [x, y] restricted to ``within``, in ambient
    coordinates: column j holds the coordinates of [x, b_j]."""
    A, rows = _sparse_ad_stack(x.coords[:, None], within.basis)
    out = np.zeros((within.ambient_dim, within.dim))
    out[rows] = A[0]
    return out


def centralizer(x: LieElement, within: Subspace) -> Subspace:
    """{y in within : [x, y] = 0} as a subspace of coordinate space.

    The kernel of the gathered adjoint matrix, its rank read against the
    floor |x|_F, as ``centralizer_dims`` decides it."""
    A, _ = _sparse_ad_stack(x.coords[:, None], within.basis)
    K, amb = kernel_basis(A[0], floor=x.norm())
    return Subspace(within.ambient_dim, within.basis @ K,
                    ambiguous=amb or within.ambiguous)


@lru_cache(maxsize=None)
def _structure_constants(n: int):
    """The nonzero structure constants of u(n) in canonical coordinates.

    Returns ``(i, c, l, v)``: for each entry (i[p], c[p]) of ad x that some
    x reaches, ad x there is ``v[0, p] x[l[0, p]] + v[1, p] x[l[1, p]]``, as
    no entry has more than two terms; an entry with one term repeats its
    index in the second slot with v = 0.

    Built from [E_pq, E_rs] = delta_qr E_ps - delta_sp E_rq with no dense
    table.  A basis element is a sum of one or two matrix units, each times a
    unit in {1, -1, i} and 2^(-e/2), e = 1 off the diagonal, and coordinate i
    of E_ps is -B_i[s, p].  All terms of one constant carry the same power of
    2^(-1/2), so their integer real parts are summed exactly before it is
    applied; the imaginary parts cancel, as brackets lie in u(n).
    """
    N = n * n
    rows, cols = coordinate_entries(n)
    j = np.arange(N)
    fixed, off = j < real_form_dim(n), rows != cols
    # the matrix units: element, row, column and unit of each
    el = np.concatenate([j, j[off]])
    ur = np.concatenate([rows, cols[off]])
    uc = np.concatenate([cols, rows[off]])
    uu = np.concatenate([np.where(fixed, 1, 1j), np.where(fixed, -1, 1j)[off]])
    # the units at each entry: the real-form element first, then the other
    at = np.full((N, 2), -1)
    at[ur * n + uc, (off & ~fixed)[el].astype(int)] = np.arange(len(el))
    # every unit ending in column q times every unit starting in row q, their
    # product E_ps read as coordinate i by the unit r of b_i at (s, p)
    t1 = np.argsort(uc, kind="stable").reshape(n, -1, 1, 1)
    t2 = np.argsort(ur, kind="stable").reshape(n, 1, -1, 1)
    t1, t2, r = np.broadcast_arrays(t1, t2, at[uc[t2] * n + ur[t1], [0, 1]])
    w = (-uu[t1] * uu[t2] * uu[r]).real * (r >= 0)
    hit = w != 0
    i, l, c, w = el[r[hit]], el[t1[hit]], el[t2[hit]], w[hit]
    # each product is a term of [b_l, b_c] and, negated, of [b_c, b_l]; keys
    # in (i, c, l) order group the terms of each entry (i, c) of ad x
    key = np.concatenate([(i * N + c) * N + l, (i * N + l) * N + c])
    key, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, np.concatenate([w, -w]))
    ic, l = np.divmod(key[w != 0], N)
    i, c = np.divmod(ic, N)
    e = off.astype(int)
    v = w[w != 0] * 2.0 ** (-(e[i] + e[l] + e[c]) / 2)
    ic, start, row = np.unique(ic, return_index=True, return_inverse=True)
    L, V = np.tile(l[start], (2, 1)), np.zeros((2, len(ic)))
    slot = np.arange(len(row)) - start[row]
    L[slot, row], V[slot, row] = l, v
    i, c = np.divmod(ic, N)
    for a in (i, c, L, V):
        a.setflags(write=False)
    return i, c, L, V


# one sweep --max-n 6 reads 108 supports; a plan is under 0.6 MB at n = 16
_GATHER_PLANS_MAX = 256


@lru_cache(maxsize=_GATHER_PLANS_MAX)
def _gather_plan(N: int, mask_bytes: bytes):
    """``(support, target, l0, l1, v0, v1)``, read-only: the index bookkeeping
    of ``_sparse_ad_stack`` on the coordinates marked by ``mask_bytes``, the
    bytes of a boolean (N,) array.  Entry p of ad x on that support lands in
    row ``target[p]`` of the flattened (N * len(support), S) stack and is
    ``v0[p] x[l0[p]] + v1[p] x[l1[p]]``; ``v0`` and ``v1`` are columns."""
    i, c, l, v = _structure_constants(isqrt(N))
    mask = np.frombuffer(mask_bytes, dtype=bool)
    support = mask.nonzero()[0]
    col = mask.cumsum() - 1
    on = mask[c].nonzero()[0]
    plan = (support, i[on] * len(support) + col[c[on]], l[0, on], l[1, on],
            v[0, on, None], v[1, on, None])
    for a in plan:
        a.setflags(write=False)
    return plan


def _sparse_ad_stack(C: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(A, rows)``: the matrix of y -> [x, y] on the columns of ``basis``
    (n^2, d), for each element x given by a real coordinate column of ``C``
    (n^2, S), on the rows ``rows`` only, an (S, len(rows), d) stack; every
    other row is zero across the whole stack.  A boolean ``basis`` (n^2,)
    stands for the coordinate columns it marks.

    Gathered from ``_structure_constants`` by the plan of the coordinates that
    ``basis`` is supported on (``_gather_plan``, made once per (n^2, support)):
    the terms of ad x there, without the rows that vanish across the whole
    stack, times the basis rows on that support unless those are the
    identity, as on a coordinate subspace.  Complex coordinates are refused:
    they name no element of u(n).
    """
    if np.iscomplexobj(C):
        raise ValueError("coordinates are complex; a stack must lie in u(n)")
    N, S = C.shape
    # ndarray methods rather than their np.* wrappers: most calls are small
    mask = basis if basis.ndim == 1 else basis.any(axis=1)
    support, target, l0, l1, v0, v1 = _gather_plan(N, mask.tobytes())
    d = len(support)
    A = np.zeros((N * d, S))
    A[target] = v0 * C[l0] + v1 * C[l1]
    A = A.reshape(N, d, S).transpose(2, 0, 1)
    rows = A.any(axis=(0, 2)).nonzero()[0]
    A = A[:, rows]
    if basis.ndim == 1:
        return A, rows
    B = basis[support]
    return (A if np.array_equal(B, np.eye(*B.shape)) else A @ B), rows


def _spectral_singular_values(C: np.ndarray, within: Subspace):
    """Singular values of ad x on u(n) or so(n) read from the spectrum of
    each x given by a coordinate column of ``C`` (n^2, S).

    With the orthonormal canonical coordinates ad x of a skew-Hermitian x is
    skew-symmetric, hence normal, so its singular values are the moduli of
    its eigenvalues.  With lambda the eigenvalues of -i x these are
    |lambda_i - lambda_j| over all (i, j) on u(n), and, for real x (zero past
    the so(n) coordinates), |lambda_i + lambda_j| over i < j on so(n) (ad x
    acts there as x on the exterior square).  Returns them sorted descending,
    one row per element, or None when ``within`` is neither space, some x on
    so(n) is not real, or ``C`` is complex.
    """
    N, S = C.shape
    n, d = isqrt(N), within.dim
    whole = d == N
    if (np.iscomplexobj(C)
            or not (whole or (d == real_form_dim(n) and not np.any(C[d:])))
            or not np.array_equal(within.basis, np.eye(N, d))):
        return None
    lam = np.linalg.eigvalsh(-1j * coords_to_matrix(C, n))
    if whole:
        s = np.abs(lam[:, :, None] - lam[:, None, :]).reshape(S, N)
    else:
        i, j = np.triu_indices(n, 1)
        s = np.abs(lam[:, i] + lam[:, j])
    return -np.sort(-s, axis=1)


def centralizer_dims(C: np.ndarray, within: Subspace) -> tuple[np.ndarray, np.ndarray]:
    """``(dims, ambiguous)`` of the centralizer in ``within`` of each element
    given by a real coordinate column of ``C`` (n^2, S), without any kernel
    basis.

    On the whole u(n), and on so(n) for real x, the singular values of ad x
    come from one stacked ``eigvalsh`` (``_spectral_singular_values``); on any
    other space from one stacked SVD of the adjoint matrices gathered without
    the rows that vanish across the whole stack (``_sparse_ad_stack``).
    Either way the ranks are decided by one ``numeric_ranks`` call with the
    floors |x|_F, the coordinate norms, as ``centralizer`` decides each, and
    each element keeps its own ambiguity flag and warning.
    """
    s = _spectral_singular_values(C, within)
    if s is None:
        s = np.linalg.svd(_sparse_ad_stack(C, within.basis)[0], compute_uv=False)
    ranks, amb = numeric_ranks(s, floors=np.linalg.norm(C, axis=0))
    return within.dim - ranks, amb | within.ambiguous


def centralizer_dim(x: LieElement, within: Subspace) -> tuple[int, bool]:
    """``(dim, ambiguous)`` of ``centralizer(x, within)`` without its basis:
    the one-element case of ``centralizer_dims``."""
    dims, amb = centralizer_dims(x.coords[:, None], within)
    return int(dims[0]), bool(amb[0])


def bracket_form(w: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Skew matrix F_ij = tr(w [y_i, y_j]) of the coordinate columns y_i of
    ``Y`` (n^2, d) and the coordinates (n^2,) of w; a P-stack, w (n^2, P) with
    Y (n^2, P, d), gives the (P, d, d) forms of the pairs (w_p, Y_p).

    tr(w [y_i, y_j]) = tr([w, y_i] y_j) is G = Y^T (ad w) Y, with ad w gathered
    on the coordinates Y is supported on; (G - G^T) / 2 is returned, exactly
    skew with a zero diagonal.
    """
    N = len(w)
    W = w.reshape(N, -1)
    Ys = Y.reshape(N, W.shape[1], -1).transpose(1, 0, 2)
    on = Ys.any(axis=(0, 2))
    A, rows = _sparse_ad_stack(W, on)
    G = Ys[:, rows].transpose(0, 2, 1) @ A @ Ys[:, on]
    F = 0.5 * (G - G.transpose(0, 2, 1))
    return F.reshape(w.shape[1:] + F.shape[1:])


def bracket_closure_residual(S: Subspace) -> float:
    """How far [S, S] leaves S; zero for subalgebras.  The brackets
    [b_i, b_j], i < j, of the basis are read off one gather of ad b_i on it."""
    A, rows = _sparse_ad_stack(S.basis, S.basis)
    i, j = np.triu_indices(S.dim, 1)
    C = np.zeros((S.ambient_dim, len(i)))
    C[rows] = A[i, :, j].T
    return float(np.max(np.linalg.norm(C - S.project(C), axis=0), initial=0.0))
