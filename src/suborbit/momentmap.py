"""The symplectic form on the transversal space and its quadratic moment map.

Inverting ad a on m produces a nondegenerate skew form

    beta(y1, y2) = <y1, (ad a|_m)^(-1) y2>,

for which the isotropy action is Hamiltonian with the equivariant moment map

    mu(x) = (1/2) [ad_a^(-1)(x), x]_k   (isotropy-algebra component).

The minimal centralizer defect of mu over a subspace V equals the minimal
dimension of m(x) intersected with ad_a^(-1) ad x (k) over V, which is the
kernel of the singular form on the slice m(x): the moment route computes it
for every sample, and the first few are cross-checked against that kernel as
``pencil.kronecker_test`` decides it.  Regular elements of the anti-fixed
isotropy part are certified by one diagonal witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# centralizer is unused here but stays importable: bench/test_bench.py checks
# that the layer tracer wraps it at this lookup site
from .lie import (LieElement, centralizer,  # noqa: F401
                  centralizer_dim, centralizer_dims, coords_to_matrix,
                  matrices_to_coords)
from .linalg import Subspace
from .generic import GenericDims, in_R_mask, sample_coords
from .orbit import AlgebraPair, OrbitSetup
from .pencil import SINGULAR, form_matrix, singular_kernel_dim

# the first accepted samples of m_a_estimate checked against the singular kernel
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


def build_moment_data(setup: OrbitSetup) -> MomentData:
    """Moment-map data on m, the one space where ad a is invertible (it maps
    m_tilde onto m_prime); validates that the inverted anchor form is skew."""
    beta = setup.ad_a_m_inv
    if np.max(np.abs(beta + beta.T)) > 1e-12 * max(1.0, np.max(np.abs(beta))):
        raise RuntimeError("the inverted anchor form is not skew")
    return MomentData(setup, setup.pair("m"), beta)


def m_a_estimate(data: MomentData, V: Subspace, dims: GenericDims,
                 samples: int = 25, seed: int = 0) -> int:
    """Minimum over generic samples of V of the centralizer defect of the moment value.

    Returns min dim k^(mu(x)) - dim z(g) over samples x in V that attain the
    generic centralizer dimensions.  Only valid in the regime where the
    generic isotropy centralizer is the center of the algebra; other setups
    must be reduced first.  The moment values of all accepted samples are
    computed as one stack; at the first few accepted samples the defect is
    cross-checked against the kernel of the singular form on m(x), which is
    m(x) ^ ad_a^(-1) ad x (k).
    """
    setup = data.setup
    dim_z = setup.z_of_g.dim
    if dims.p != dim_z:
        raise ValueError(
            "moment route needs the generic isotropy centralizer to be the center "
            f"(dim {dim_z}), got generic dimension {dims.p}; reduce the pair first")
    n = setup.n
    C = sample_coords(V, seed, 43, samples)
    accepted = np.flatnonzero(in_R_mask(setup, C, data.pair, dims))
    if accepted.size == 0:
        raise ValueError("no sample of V attained the generic centralizer dimensions")
    alphas = _moment_stack(data, C[:, accepted])
    vals = centralizer_dims(alphas, data.pair.k, setup.rank_tol)[0] - dim_z
    for i, val in zip(accepted[:_CROSS_CHECKS], vals):
        F_a = form_matrix(setup, LieElement.from_coords(C[:, i], n), SINGULAR)
        kernel = singular_kernel_dim(setup, F_a)[0]
        if kernel != val:
            raise RuntimeError(
                f"moment route ({val}) disagrees with the singular-form "
                f"kernel ({kernel}) at a sampled point")
    return int(vals.min())


def _moment_stack(data: MomentData, C: np.ndarray) -> np.ndarray:
    """The coordinate columns (N, S) of the moment values (1/2) [ad_a^(-1) x, x]_k
    of the points with coordinate columns ``C`` (N, S)."""
    space, n = data.space, data.setup.n
    xs = coords_to_matrix(C, n)
    ys = coords_to_matrix(space.basis @ (data.ad_a_inv @ space.coeffs(C)), n)
    half = 0.5 * matrices_to_coords(ys @ xs - xs @ ys).real
    return data.pair.k.project(half)


def regular_in_kprime_test(setup: OrbitSetup) -> bool:
    """Whether the anti-fixed part k' of the isotropy algebra contains regular elements.

    The witness xi = i*diag(1, ..., n) lies in k' for every partition, and it
    is regular when its centralizer in k is the diagonal torus: dim k^xi = n.
    """
    xi = LieElement.from_matrix(np.diag(1j * np.arange(1, setup.n + 1)))
    return (setup.k_prime.contains(xi.coords, 1e-12)
            and centralizer_dim(xi, setup.k, setup.rank_tol)[0] == setup.n)
