"""Reference constructions the tests check the package against: direct,
one-element-at-a-time forms of what the package computes in stacked or
structural form, which neither ``run_case`` nor the command line reaches."""

import numpy as np

from suborbit.invariants import _real_part, _shift_coeff_powers, gradient
from suborbit.lie import LieElement, bracket, coords_to_matrix, pairing, project
from suborbit.linalg import (RANK_RTOL, Subspace, full_space, kernel_basis,
                             numeric_rank, orthonormal_columns)
from suborbit.orbit import AlgebraPair


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


def complex_centralizer_dims(mats: np.ndarray, within: Subspace,
                             rtol: float = RANK_RTOL) -> list:
    """dim over C of the centralizer of each complex matrix w of a (S, n, n)
    stack in the complexification of ``within``: the rank of the vectorised
    brackets [w, b_j], read against the floor |w|_F.  The basis matrices are
    Frobenius-orthonormal, so no canonical coordinates are needed."""
    Ys = coords_to_matrix(within.basis, mats.shape[-1])
    dims = []
    for w in mats:
        s = np.linalg.svd((w @ Ys - Ys @ w).reshape(within.dim, w.size).T,
                          compute_uv=False)
        dims.append(within.dim - numeric_rank(s, rtol, np.linalg.norm(w))[0])
    return dims


def reduced_pair(red, space: str) -> AlgebraPair:
    """The reduced pair "m0" or "m0_tilde" of a ``generic.ReducedSetup``."""
    if space == "m0":
        return AlgebraPair(space, red.g0, red.k0, red.m0)
    return AlgebraPair(space, red.g0_tilde, red.k0_tilde, red.m0_tilde)


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

def ad_a_inverse_apply(setup, x: LieElement) -> LieElement:
    """(ad a|_m)^(-1) applied to an element of m."""
    c = setup.m.coeffs(x.coords)
    return LieElement.from_coords(setup.m.basis @ (setup.ad_a_m_inv @ c), setup.n)


def moment_beta(data, x: LieElement) -> LieElement:
    """Quadratic moment map value (1/2) [ad_a^(-1) x, x] projected to the isotropy algebra."""
    half = 0.5 * bracket(ad_a_inverse_apply(data.setup, x), x)
    return project(half, data.pair.k)


def moment_differential(data, x0: LieElement, y: LieElement) -> LieElement:
    """Exact differential of the quadratic moment map at x0 applied to y."""
    t1 = bracket(ad_a_inverse_apply(data.setup, x0), y)
    t2 = bracket(ad_a_inverse_apply(data.setup, y), x0)
    return project(0.5 * (t1 + t2), data.pair.k)


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
