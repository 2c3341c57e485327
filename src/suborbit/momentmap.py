"""The symplectic form on the transversal space and its quadratic moment map.

Inverting ad a on m produces a nondegenerate skew form

    beta(y1, y2) = <y1, (ad a|_m)^(-1) y2>,

for which the isotropy action is Hamiltonian with the equivariant moment map

    mu(x) = (1/2) [ad_a^(-1)(x), x]_k   (isotropy-algebra component).

The minimal centralizer dimension of mu over a subspace V computes the
minimal dimension of m(x) intersected with ad_a^(-1) ad x (k) over V, which
is the quantity that decides whether the singular-form kernel condition can
hold on V.  Both routes are implemented; the moment route is the workhorse
and the direct intersection provides spot cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# centralizer is unused here but stays importable: bench/test_bench.py checks
# that the layer tracer wraps it at this lookup site
from .lie import (LieElement, ad_in_basis, bracket, centralizer,  # noqa: F401
                  centralizer_dim, centralizer_dims, coords_to_matrix,
                  matrices_to_coords, project)
from .linalg import Subspace, intersect, span
from .generic import (GenericDims, in_R_mask, m_of_x, sample_coords,
                      sample_element)
from .orbit import AlgebraPair, OrbitSetup, _operator_on


@dataclass(frozen=True)
class MomentData:
    """Anchor-inversion data on the transversal space of one algebra pair."""

    setup: OrbitSetup
    pair: AlgebraPair
    ad_a: np.ndarray
    ad_a_inv: np.ndarray
    beta: np.ndarray

    @property
    def space(self) -> Subspace:
        return self.pair.m


def build_moment_data(setup: OrbitSetup, space: str = "m") -> MomentData:
    """Moment-map data for the chosen pair; validates invertibility and skewness."""
    pair = setup.pair(space)
    if pair.m is setup.m_tilde:
        raise ValueError("ad a maps m_tilde onto m_prime, so it has no inverse on "
                         "m_tilde; moment data exist only on m")
    if pair.m is setup.m:
        A, A_inv = setup.ad_a_m, setup.ad_a_m_inv
    else:
        a = setup.a.matrix
        A = _operator_on(pair.m, lambda Ys: a @ Ys - Ys @ a)
        A_inv = np.linalg.inv(A)
    if np.max(np.abs(A @ A_inv - np.eye(pair.m.dim))) > 1e-10:
        raise RuntimeError("ad a is numerically singular on the chosen space")
    beta = A_inv
    if np.max(np.abs(beta + beta.T)) > 1e-12 * max(1.0, np.max(np.abs(beta))):
        raise RuntimeError("the inverted anchor form is not skew")
    return MomentData(setup, pair, A, A_inv, beta)


def ad_a_inverse(data: MomentData, x: LieElement) -> LieElement:
    c = data.space.coeffs(x.coords)
    return LieElement.from_coords(data.space.basis @ (data.ad_a_inv @ c), data.setup.n)


def beta_form(data: MomentData, y1: LieElement, y2: LieElement) -> float:
    c1 = data.space.coeffs(y1.coords)
    c2 = data.space.coeffs(y2.coords)
    return float(c1 @ (data.beta @ c2))


def moment_beta(data: MomentData, x: LieElement) -> LieElement:
    """Quadratic moment map value (1/2) [ad_a^(-1) x, x] projected to the isotropy algebra."""
    half = 0.5 * bracket(ad_a_inverse(data, x), x)
    return project(half, data.pair.k)


def moment_differential(data: MomentData, x0: LieElement, y: LieElement) -> LieElement:
    """Exact differential of the quadratic moment map at x0 applied to y."""
    t1 = bracket(ad_a_inverse(data, x0), y)
    t2 = bracket(ad_a_inverse(data, y), x0)
    return project(0.5 * (t1 + t2), data.pair.k)


def m_a_estimate(data: MomentData, V: Subspace, dims: GenericDims,
                 samples: int = 25, seed: int = 0, cross_checks: int = 3) -> int:
    """Minimum over generic samples of V of the centralizer defect of the moment value.

    Returns min dim k^(mu(x)) - dim z(g) over samples x in V that attain the
    generic centralizer dimensions.  Only valid in the regime where the
    generic isotropy centralizer is the center of the algebra; other setups
    must be reduced first.  The moment values of all accepted samples are
    computed as one stack; the first few accepted samples are cross-checked
    against the direct intersection dim(m(x) ^ ad_a^(-1) ad x (k)).
    """
    setup = data.setup
    dim_z = setup.z_of_g.dim
    if dims.p != dim_z:
        raise ValueError(
            "moment route needs the generic isotropy centralizer to be the center "
            f"(dim {dim_z}), got generic dimension {dims.p}; reduce the pair first")
    n = setup.n
    C = sample_coords(V, seed, 43, samples)
    xs = coords_to_matrix(C, n)
    accepted = np.flatnonzero(in_R_mask(setup, xs, data.pair, dims))
    if accepted.size == 0:
        raise ValueError("no sample of V attained the generic centralizer dimensions")
    alphas = _moment_stack(data, C[:, accepted], xs[accepted])
    vals = centralizer_dims(alphas, data.pair.k, setup.rank_tol)[0] - dim_z
    for i, val in zip(accepted[:cross_checks], vals):
        direct = _direct_intersection_dim(data, LieElement.from_coords(C[:, i], n))
        if direct != val:
            raise RuntimeError(
                f"moment route ({val}) disagrees with the direct "
                f"intersection ({direct}) at a sampled point")
    return int(vals.min())


def _moment_stack(data: MomentData, C: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """``moment_beta`` of every point as a (S, n, n) stack, from the coordinate
    columns ``C`` (N, S) of the points and their matrices ``xs`` (S, n, n)."""
    space, n = data.space, data.setup.n
    ys = coords_to_matrix(space.basis @ (data.ad_a_inv @ space.coeffs(C)), n)
    half = 0.5 * matrices_to_coords(ys @ xs - xs @ ys).real
    return coords_to_matrix(data.pair.k.project(half), n)


def _direct_intersection_dim(data: MomentData, x: LieElement) -> int:
    setup = data.setup
    mx = m_of_x(setup, x, data.pair)
    ad_x_k = ad_in_basis(x, data.pair.k)
    W = span(ad_x_k, setup.ambient_dim, setup.rank_tol)
    if W.dim == 0:
        return intersect(mx, data.space, setup.rank_tol).dim
    coeffs = data.space.coeffs(W.basis)
    pulled = data.space.basis @ (data.ad_a_inv @ coeffs)
    W_inv = span(pulled, setup.ambient_dim, setup.rank_tol)
    return intersect(mx, W_inv, setup.rank_tol).dim


def regular_in_kprime_test(setup: OrbitSetup, samples: int = 25, seed: int = 0,
                           kprime: Subspace | None = None,
                           k: Subspace | None = None,
                           rank_k: int | None = None) -> bool:
    """Whether the anti-fixed part of the isotropy algebra contains regular elements.

    Samples the anti-fixed part and asks for the minimal centralizer dimension
    inside the isotropy algebra to reach its rank (the sum of the block sizes
    for the full setup).
    """
    kprime = setup.k_prime if kprime is None else kprime
    k = setup.k if k is None else k
    rank_k = setup.n if rank_k is None else rank_k
    best = k.dim
    for i in range(samples):
        rng = np.random.default_rng([seed, 47, i])
        xi = sample_element(kprime, rng, setup.n)
        best = min(best, centralizer_dim(xi, k, setup.rank_tol)[0])
        if best == rank_k:
            return True
    return best == rank_k
