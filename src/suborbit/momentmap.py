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
from .orbit import AlgebraPair, OrbitSetup, ad_a_inverse_apply

# the first accepted samples of m_a_estimate checked against the direct route
_CROSS_CHECKS = 3


@dataclass(frozen=True)
class MomentData:
    """Anchor-inversion data on m: ``ad_a_inv`` is (ad a|_m)^(-1), and also
    the matrix of the skew form beta, in the basis of m."""

    setup: OrbitSetup
    pair: AlgebraPair
    ad_a_inv: np.ndarray

    @property
    def space(self) -> Subspace:
        return self.pair.m


def build_moment_data(setup: OrbitSetup, space: str = "m") -> MomentData:
    """Moment-map data on m; validates that the inverted anchor form is skew."""
    pair = setup.pair(space)
    if pair.m is not setup.m:
        raise ValueError(f"moment data are built only on m, got {pair.name}; ad a "
                         "maps m_tilde onto m_prime, so it has no inverse on m_tilde")
    beta = setup.ad_a_m_inv
    if np.max(np.abs(beta + beta.T)) > 1e-12 * max(1.0, np.max(np.abs(beta))):
        raise RuntimeError("the inverted anchor form is not skew")
    return MomentData(setup, pair, beta)


def beta_form(data: MomentData, y1: LieElement, y2: LieElement) -> float:
    c1 = data.space.coeffs(y1.coords)
    c2 = data.space.coeffs(y2.coords)
    return float(c1 @ (data.ad_a_inv @ c2))


def moment_beta(data: MomentData, x: LieElement) -> LieElement:
    """Quadratic moment map value (1/2) [ad_a^(-1) x, x] projected to the isotropy algebra."""
    half = 0.5 * bracket(ad_a_inverse_apply(data.setup, x), x)
    return project(half, data.pair.k)


def moment_differential(data: MomentData, x0: LieElement, y: LieElement) -> LieElement:
    """Exact differential of the quadratic moment map at x0 applied to y."""
    t1 = bracket(ad_a_inverse_apply(data.setup, x0), y)
    t2 = bracket(ad_a_inverse_apply(data.setup, y), x0)
    return project(0.5 * (t1 + t2), data.pair.k)


def m_a_estimate(data: MomentData, V: Subspace, dims: GenericDims,
                 samples: int = 25, seed: int = 0) -> int:
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
    for i, val in zip(accepted[:_CROSS_CHECKS], vals):
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


def regular_in_kprime_test(setup: OrbitSetup, samples: int = 25, seed: int = 0) -> bool:
    """Whether the anti-fixed part of the isotropy algebra contains regular elements.

    Samples the anti-fixed part and asks for the minimal centralizer dimension
    inside the isotropy algebra to reach its rank, the sum n of the block sizes.
    """
    best = setup.k.dim
    for i in range(samples):
        rng = np.random.default_rng([seed, 47, i])
        xi = sample_element(setup.k_prime, rng, setup.n)
        best = min(best, centralizer_dim(xi, setup.k, setup.rank_tol)[0])
        if best == setup.n:
            return True
    return best == setup.n
