"""Reference constructions the tests check the package against: direct,
one-element-at-a-time forms of what the package computes in stacked or
structural form, the complex matrix-commutator forms of the brackets it
gathers from the structure constants, that gather with its index bookkeeping
redone on every call, and the generic SVD forms of what it reads off in
closed form, which neither ``run_case`` nor the command line reaches."""

from math import isqrt

import numpy as np

from suborbit.generic import (_MAX_HALVINGS, _REDUCTION_SAMPLES,
                              _TRIES_PER_RADIUS, is_in_R, sample_coords)
from suborbit.invariants import _real_part, _shift_coeff_powers, gradient
from suborbit.lie import (LieElement, _structure_constants, ad_in_basis,
                          bracket, centralizer, centralizer_dims,
                          coords_to_matrix, matrix_to_coords, pairing, project)
from suborbit.linalg import (Subspace, full_space, kernel_basis, kernel_dim,
                             numeric_ranks, orthonormal_columns)
from suborbit.orbit import AlgebraPair
from suborbit.pencil import _N_REAL, PencilReport, genuine_eigenvalues


# -- the group action ---------------------------------------------------------

def unitary_exp(X: LieElement) -> np.ndarray:
    """Group element exp(X) in U(n), via the spectral decomposition of -iX."""
    w, V = np.linalg.eigh(-1j * X.matrix)
    return (V * np.exp(1j * w)) @ V.conj().T


def conjugate(U: np.ndarray, X: LieElement) -> LieElement:
    """Adjoint action of a unitary group element: X -> U X U*."""
    return LieElement.from_matrix(U @ X.matrix @ U.conj().T)


# -- subspace arithmetic ------------------------------------------------------

def span(vectors: np.ndarray, ambient_dim: int | None = None) -> Subspace:
    """Subspace spanned by the columns of ``vectors``."""
    V = np.asarray(vectors)
    if V.ndim == 1:
        V = V.reshape(-1, 1)
    Q, amb = orthonormal_columns(V)
    return Subspace(V.shape[0] if ambient_dim is None else ambient_dim, Q, amb)


def complement(S: Subspace, within: Subspace | None = None) -> Subspace:
    """Orthogonal complement of ``S``, inside ``within`` or inside the ambient space."""
    if within is None:
        if S.dim == 0:
            return full_space(S.ambient_dim)
        K, amb = kernel_basis(S.basis.conj().T)
        return Subspace(S.ambient_dim, K, S.ambiguous or amb)
    K, amb = kernel_basis(S.basis.conj().T @ within.basis)
    return Subspace(S.ambient_dim, within.basis @ K,
                    S.ambiguous or within.ambiguous or amb)


def sum_spaces(S: Subspace, T: Subspace) -> Subspace:
    Q, amb = orthonormal_columns(np.hstack([S.basis, T.basis]))
    return Subspace(S.ambient_dim, Q, S.ambiguous or T.ambiguous or amb)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if S.ambient_dim != T.ambient_dim:
        raise ValueError("subspaces live in different ambient spaces")
    if S.dim == 0 or T.dim == 0:
        return Subspace(S.ambient_dim, np.zeros((S.ambient_dim, 0)),
                        S.ambiguous or T.ambiguous)
    stacked = np.hstack([S.basis, -T.basis])
    K, amb = kernel_basis(stacked)
    vecs = S.basis @ K[: S.dim]
    Q, amb2 = orthonormal_columns(vecs)
    return Subspace(S.ambient_dim, Q, S.ambiguous or T.ambiguous or amb or amb2)


# -- brackets as complex matrix commutators -----------------------------------

def matrix_stack(C: np.ndarray) -> np.ndarray:
    """The (S, n, n) matrices of the real coordinate columns of ``C`` (n^2, S)."""
    if np.iscomplexobj(C):
        raise ValueError("coordinates are complex; a stack must lie in u(n)")
    return coords_to_matrix(C, isqrt(len(C)))


def ad_stack(mats: np.ndarray, within: Subspace) -> np.ndarray:
    """(m, N, d) stack of ``ad_in_basis`` for each w of a (m, n, n) stack, as
    the coordinates of the commutators W Y - Y W with the basis matrices."""
    Ys, W = coords_to_matrix(within.basis, mats.shape[-1])[None], mats[:, None]
    return matrix_to_coords(W @ Ys - Ys @ W).real.transpose(1, 0, 2)


def trace_bracket_form(w: np.ndarray, Ys: np.ndarray) -> np.ndarray:
    """Skew matrix F_ij = tr(w [Y_i, Y_j]) of a (d, n, n) stack ``Ys`` and a
    matrix ``w``, as G - G^T with G_ij = tr(w Y_i Y_j); a (P, n, n) stack of
    ``w`` with a (P, d, n, n) stack of ``Ys`` gives the (P, d, d) forms."""
    G = np.einsum("...iab,...jba->...ij", w[..., None, :, :] @ Ys, Ys)
    return G - G.swapaxes(-1, -2)


def pairwise_brackets(S: Subspace) -> np.ndarray:
    """Real coordinate columns of [b_i, b_j] for i < j, in row-major pair order."""
    mats = coords_to_matrix(S.basis, isqrt(S.ambient_dim))
    i, j = np.triu_indices(S.dim, 1)
    return matrix_to_coords(mats[i] @ mats[j] - mats[j] @ mats[i]).real


def uncached_sparse_ad_stack(C: np.ndarray, basis: np.ndarray):
    """``lie._sparse_ad_stack`` on a basis (n^2, d) with no plan: the support,
    scatter targets and structure-constant terms are found anew on each call,
    then the same arithmetic in the same order gives ``(A, rows)``."""
    if np.iscomplexobj(C):
        raise ValueError("coordinates are complex; a stack must lie in u(n)")
    N, S = C.shape
    i, c, l, v = _structure_constants(isqrt(N))
    mask = basis.any(axis=1)
    support = mask.nonzero()[0]
    d = len(support)
    col = mask.cumsum() - 1
    on = mask[c].nonzero()[0]
    (l0, l1), (v0, v1) = l[:, on], v[:, on]
    A = np.zeros((N * d, S))
    A[i[on] * d + col[c[on]]] = v0[:, None] * C[l0] + v1[:, None] * C[l1]
    A = A.reshape(N, d, S).transpose(2, 0, 1)
    rows = A.any(axis=(0, 2)).nonzero()[0]
    A, B = A[:, rows], basis[support]
    return (A if np.array_equal(B, np.eye(*B.shape)) else A @ B), rows


# -- centralizers of whole bases ----------------------------------------------

def stacked_centralizer(C: np.ndarray, within: Subspace) -> Subspace:
    """{y in within : [g, y] = 0 for every generator g}, the generators given
    by the real coordinate columns of ``C`` (n^2, S): one kernel of the
    stacked adjoint matrices, read against the largest |g|_F."""
    if not C.shape[1]:
        return within
    mats = matrix_stack(C)
    A = ad_stack(mats, within).reshape(len(mats) * within.ambient_dim, within.dim)
    floor = float(np.max(np.linalg.norm(mats, axis=(1, 2))))
    K, amb = kernel_basis(A, floor=floor)
    return Subspace(within.ambient_dim, within.basis @ K,
                    ambiguous=amb or within.ambiguous)


def subalgebra_center(S: Subspace) -> Subspace:
    """Center of a subalgebra given by its coordinate basis."""
    return stacked_centralizer(S.basis, S)


def derived_span(S: Subspace) -> Subspace:
    """Span of all pairwise brackets of a basis of S (the derived subalgebra span)."""
    # basis elements are unit vectors, so genuine brackets are order one;
    # anchor the rank decision there rather than at the noise level
    Q, amb = orthonormal_columns(pairwise_brackets(S), floor=1.0)
    return Subspace(S.ambient_dim, Q, amb)


def reduction_spaces(setup, x0: LieElement, seed: int) -> dict:
    """The spaces and rank of ``generic.ReducedSetup`` built by the generic
    route: k^x0 as a centralizer, g0 as the common centralizer of a basis of
    it, the rest as intersections and a center, and the rank of g0 as the
    smallest centralizer dimension over sampled points of g0."""
    kx = centralizer(x0, setup.k)
    g0 = stacked_centralizer(kx.basis, setup.g)
    k0 = intersect(g0, setup.k)
    m0 = intersect(g0, setup.m)
    C = sample_coords(g0, seed, 29, _REDUCTION_SAMPLES)
    rank_g0 = min(g0.dim, int(centralizer_dims(C, g0)[0].min()))
    return {"k_x0": kx, "g0": g0, "k0": k0, "m0": m0,
            "g0_tilde": intersect(g0, setup.g_tilde),
            "k0_tilde": intersect(k0, setup.g_tilde),
            "m0_tilde": intersect(m0, setup.g_tilde),
            "z_g0": subalgebra_center(g0), "rank_g0": rank_g0}


def complex_centralizer_dims(mats: np.ndarray, within: Subspace) -> list:
    """dim over C of the centralizer of each complex matrix w of a (S, n, n)
    stack in the complexification of ``within``: the rank of the vectorised
    brackets [w, b_j], read against the floor |w|_F.  The basis matrices are
    Frobenius-orthonormal, so no canonical coordinates are needed."""
    Ys = coords_to_matrix(within.basis, mats.shape[-1])
    dims = []
    for w in mats:
        s = np.linalg.svd((w @ Ys - Ys @ w).reshape(within.dim, w.size).T,
                          compute_uv=False)
        rank = numeric_ranks(s[None], floors=np.linalg.norm(w))[0][0]
        dims.append(within.dim - int(rank))
    return dims


def reduced_pair(red, space: str) -> AlgebraPair:
    """The reduced pair "m0" or "m0_tilde" of a ``generic.ReducedSetup``."""
    if space == "m0":
        return AlgebraPair(space, red.g0, red.k0, red.m0)
    return AlgebraPair(space, red.g0_tilde, red.k0_tilde, red.m0_tilde)


# -- the pencil analyzer, one parameter at a time -------------------------------

def pencil_isotropy_check_loop(B1: np.ndarray, B2: np.ndarray,
                               seed: int = 0) -> PencilReport:
    """``pencil.pencil_isotropy_check`` on two independent real skew forms,
    deciding each scanned form t1*B1 + t2*B2 by its own ``kernel_basis`` and
    taking the isotropy residual one form at a time."""
    d = B1.shape[0]
    rng = np.random.default_rng([seed, 41])
    thetas = np.concatenate([[0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4],
                             np.pi * (np.arange(_N_REAL) + 0.5) / _N_REAL])
    params = [(np.cos(t), np.sin(t)) for t in thetas]
    floor = max(float(np.linalg.norm(B1)), float(np.linalg.norm(B2)))
    kernels = [kernel_basis(t1 * B1 + t2 * B2, floor=floor)[0] for t1, t2 in params]
    dims = [K.shape[1] for K in kernels]
    r_min = min(dims)
    vecs = [K for K in kernels if K.shape[1] == r_min > 0]
    L = orthonormal_columns(np.hstack(vecs))[0] if vecs else np.zeros((d, 0))
    residual = 0.0
    for t1, t2 in params:
        if L.shape[1]:
            residual = max(residual, float(np.max(np.abs(L.T @ (t1 * B1 + t2 * B2) @ L))))
    isotropic = residual < 1e-9
    cc = kernel_dim(B2, floor=floor)[0] == r_min
    if cc:
        count, _, ambiguous = genuine_eigenvalues(B1, B2, r_min, rng)
        cc = count == 0 and not ambiguous
    return PencilReport(r_min, L.shape[1], isotropic,
                        isotropic and 2 * L.shape[1] == d + r_min, cc, residual,
                        dims.count(r_min))


# -- the generic stratum, one point at a time -----------------------------------

def sample_element(space: Subspace, rng, n: int) -> LieElement:
    """The element of ``space`` with the coefficients ``rng.standard_normal``
    draws next."""
    coeffs = rng.standard_normal(space.dim)
    return LieElement.from_coords(space.basis @ coeffs, n)


def perturb_into_R_loop(setup, x0: LieElement, dims_m, dims_mt, seed: int):
    """``generic.perturb_into_R`` deciding one sphere point at a time: radius
    1, 1/2, ..., four directions of m_tilde on each, drawn from
    ``default_rng([seed, 19, h, t])``; the first point generic for both pairs."""
    if is_in_R(setup, x0, "m", dims_m) and is_in_R(setup, x0, "m_tilde", dims_mt):
        return x0, 0.0
    radius = 1.0
    for h in range(_MAX_HALVINGS):
        for t in range(_TRIES_PER_RADIUS):
            d = np.random.default_rng([seed, 19, h, t]).standard_normal(setup.m_tilde.dim)
            d = d / np.linalg.norm(d)
            x = x0 + LieElement.from_coords(radius * (setup.m_tilde.basis @ d), setup.n)
            if is_in_R(setup, x, "m", dims_m) and is_in_R(setup, x, "m_tilde", dims_mt):
                return x, radius
        radius *= 0.5
    raise RuntimeError("no generic point found near the witness")


# -- roots --------------------------------------------------------------------

def positive_roots(datum):
    """Positive roots for the simple system induced by the anchored permutation."""
    position = {idx: t for t, idx in enumerate(datum.permutation)}
    return {(j, k) for (j, k) in datum.roots if position[j] < position[k]}


def x_pi_template(datum, c_alpha: dict, d_beta: dict) -> np.ndarray:
    """General complex witness: principal-nilpotent part plus positive-root tail.

    c_alpha maps simple roots to nonzero coefficients of the opposite
    generators; d_beta maps positive transversal roots to tail coefficients.
    Returns a plain complex matrix (not an algebra element in general).
    """
    if datum.pi is None:
        raise ValueError("no simple system available; the dominance condition failed")
    if set(c_alpha) != set(datum.pi):
        raise ValueError("coefficients must cover exactly the simple system")
    if any(c == 0 for c in c_alpha.values()):
        raise ValueError("principal-nilpotent coefficients must be nonzero")
    pos_m = positive_roots(datum) & set(datum.delta_m)
    M = np.zeros((datum.n, datum.n), dtype=complex)
    for (j, k), c in c_alpha.items():
        M[k, j] += c
    for root, dcoef in d_beta.items():
        if root not in pos_m:
            raise ValueError(f"{root} is not a positive transversal root")
        M[root[0], root[1]] += dcoef
    return M


# -- the moment map, one point at a time ----------------------------------------

def ad_a_on_m(setup) -> np.ndarray:
    """Matrix of ad a restricted to m, in the basis of m, from ``ad_in_basis``."""
    return setup.m.coeffs(ad_in_basis(setup.a, setup.m))


def ad_a_inverse_apply(setup, x: LieElement) -> LieElement:
    """(ad a|_m)^(-1) applied to an element of m, by a linear solve."""
    c = np.linalg.solve(ad_a_on_m(setup), setup.m.coeffs(x.coords))
    return LieElement.from_coords(setup.m.basis @ c, setup.n)


def moment_beta(data, x: LieElement) -> LieElement:
    """Quadratic moment map value (1/2) [ad_a^(-1) x, x] projected to the isotropy algebra."""
    half = 0.5 * bracket(ad_a_inverse_apply(data.setup, x), x)
    return project(half, data.pair.k)


def moment_differential(data, x0: LieElement, y: LieElement) -> LieElement:
    """Exact differential of the quadratic moment map at x0 applied to y."""
    t1 = bracket(ad_a_inverse_apply(data.setup, x0), y)
    t2 = bracket(ad_a_inverse_apply(data.setup, y), x0)
    return project(0.5 * (t1 + t2), data.pair.k)


# -- the flow operator, one point at a time --------------------------------------

def phi_ab(spec, x: LieElement) -> LieElement:
    """phi(x) = (ad a|_m)^(-1) [b, x] for the b of a ``FlowSpec``, by a linear
    solve on m instead of the flow-space matrix."""
    return ad_a_inverse_apply(spec.setup, bracket(spec.b, x))


# -- the shifted invariants, one member at a time -------------------------------

def shift_coeff_matrices(x_mat: np.ndarray, a_mat: np.ndarray, k: int) -> list:
    """Matrix coefficients of (x + t*a)^k as a polynomial in t, degree 0..k."""
    for coeffs in _shift_coeff_powers(x_mat, a_mat, k):
        pass
    return coeffs


def shifted_invariant_eval(family, member, x: LieElement) -> float:
    """Value of the shift coefficient (k, s) at x."""
    C = shift_coeff_matrices(x.matrix, family.setup.a.matrix, member.k)
    return _real_part(member.k, complex(np.trace(C[member.s])))


def poisson_bracket_can(family, f, g, x: LieElement) -> float:
    """Canonical fiberwise bracket -<x, [grad f, grad g]> of two members, with
    gradients in the family's space."""
    return -pairing(x, bracket(gradient(family, f, x), gradient(family, g, x)))
