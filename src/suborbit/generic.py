"""Generic-dimension estimation, the genericity stratum membership test, the
bracket-compatible slice m(x), and the reduction to the centralizer of a
witness isotropy algebra.

Zariski-generic quantities are estimated by sampling: the bad sets are proper
algebraic subsets, so independent Gaussian samples attain the generic value
almost surely.  Estimates report whether the minimum was attained by at least
80 percent of the samples; downstream consumers refuse to run on estimates
that did not stabilize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import (LieElement, ad_in_basis, bracket_closure_residual,
                  centralizer, centralizer_dim, centralizer_dims, derived_span,
                  sigma_signs, stacked_centralizer, subalgebra_center)
from .linalg import (Subspace, equal_spaces, intersect, kernel_basis,
                     subspace_residual)
from .orbit import AlgebraPair, OrbitSetup


@dataclass(frozen=True)
class GenericDims:
    """Generic centralizer dimensions over a sampled transversal space.

    q is the minimal ambient-centralizer dimension, p the minimal isotropy
    centralizer dimension, r = q - p their difference.
    """

    space: str
    q: int
    p: int
    r: int
    sample_count: int
    stabilized: bool


def sample_element(space: Subspace, rng, n: int) -> LieElement:
    coeffs = rng.standard_normal(space.dim)
    return LieElement.from_coords(space.basis @ coeffs, n)


# key -> the longest standard normal draw made from default_rng(key) so far
_NORMALS: dict = {}
_NORMALS_MAX_KEYS = 4096


def seeded_normals(key, size: int) -> np.ndarray:
    """``default_rng(key).standard_normal(size)``, read-only.

    The generator fills its draws one value after another, so a shorter draw
    from the same key is a prefix of a longer one: each key is drawn once at
    the longest size asked for and shorter draws are served as its prefix.
    A run reuses few keys across many spaces and points, so most draws after
    the first pass come from the cache; its oldest keys are dropped beyond
    ``_NORMALS_MAX_KEYS``.
    """
    key = tuple(key)
    z = _NORMALS.get(key)
    if z is None or len(z) < size:
        if z is None and len(_NORMALS) >= _NORMALS_MAX_KEYS:
            del _NORMALS[next(iter(_NORMALS))]
        z = np.random.default_rng(key).standard_normal(size)
        z.setflags(write=False)
        _NORMALS[key] = z
    return z[:size]


def sample_coords(space: Subspace, seed: int, stream: int, samples: int) -> np.ndarray:
    """Coordinate columns (N, samples) of the elements ``sample_element`` draws
    from the generators ``default_rng([seed, stream, i])``, i < samples."""
    return np.stack([space.basis @ seeded_normals((seed, stream, i), space.dim)
                     for i in range(samples)], axis=1)


def estimate_generic_dims(setup: OrbitSetup, space, samples: int = 25,
                          seed: int = 0) -> GenericDims:
    """Minimal centralizer dimensions over Gaussian samples of the space."""
    if samples < 10:
        raise ValueError("need at least 10 samples for a stable estimate")
    pair = setup.pair(space)
    C = sample_coords(pair.m, seed, 7, samples)
    qs = centralizer_dims(C, pair.g, setup.rank_tol)[0]
    ps = centralizer_dims(C, pair.k, setup.rank_tol)[0]
    q = int(qs.min())
    p = int(ps.min())
    hit = np.mean((qs == q) & (ps == p))
    return GenericDims(pair.name, q, p, q - p, samples, bool(hit >= 0.8))


def in_R_mask(setup: OrbitSetup, C: np.ndarray, space, dims: GenericDims) -> np.ndarray:
    """``is_in_R`` for each element given by a coordinate column of ``C`` (n^2, S).

    q is decided for the whole stack, p only where q matched, so exactly the
    rank decisions of ``is_in_R`` are made.
    """
    if not dims.stabilized:
        raise ValueError("generic dimensions did not stabilize; resample first")
    pair = setup.pair(space)
    hit = centralizer_dims(C, pair.g, setup.rank_tol)[0] == dims.q
    if hit.any():
        hit[hit] = centralizer_dims(C[:, hit], pair.k, setup.rank_tol)[0] == dims.p
    return hit


def is_in_R(setup: OrbitSetup, x: LieElement, space, dims: GenericDims) -> bool:
    """Whether both centralizer dimensions of x attain the generic minima."""
    return bool(in_R_mask(setup, x.coords[:, None], space, dims)[0])


@dataclass(frozen=True)
class GenericPoint:
    """A point already found in the generic stratum of ``space``, with its
    slice m(x) there when that was built.

    A caller that has decided both at a point hands them on in one of these,
    so the functions it calls next read them instead of deciding them again.
    The space ("m", "m_tilde") states a point generic for both pairs.
    """

    x: LieElement
    space: str | AlgebraPair | tuple
    slice: Subspace | None = None


def m_of_x(setup: OrbitSetup, x: LieElement, space) -> Subspace:
    """The slice {y in space : [x, y] stays in the space}.

    Computed as the kernel of the isotropy-component of ad x restricted to the
    space; complements the image of ad x on the isotropy algebra.
    """
    pair = setup.pair(space)
    A = ad_in_basis(x, pair.m)
    comp = pair.k.basis.T @ A
    K, amb = kernel_basis(comp, setup.rank_tol, floor=float(np.linalg.norm(x.matrix)))
    return Subspace(pair.m.ambient_dim, pair.m.basis @ K,
                    ambiguous=amb or pair.m.ambiguous)


# perturb_into_R halves its radius this many times, drawing this many points
# on each sphere
_MAX_HALVINGS = 12
_TRIES_PER_RADIUS = 4


def perturb_into_R(setup: OrbitSetup, x0: LieElement, dims_m: GenericDims,
                   dims_mt: GenericDims, seed: int = 0) -> tuple[LieElement, float]:
    """Move x0 inside the fixed part of m until it is generic for both pairs.

    Resamples on spheres of shrinking radius around x0 and returns the first
    point generic for the full pair and for the fixed pair, together with the
    radius used (0.0 when x0 itself is already generic).
    """
    if is_in_R(setup, x0, "m", dims_m) and is_in_R(setup, x0, "m_tilde", dims_mt):
        return x0, 0.0
    radius = 1.0
    for h in range(_MAX_HALVINGS):
        for t in range(_TRIES_PER_RADIUS):
            rng = np.random.default_rng([seed, 19, h, t])
            d = rng.standard_normal(setup.m_tilde.dim)
            d = d / np.linalg.norm(d)
            x = x0 + LieElement.from_coords(radius * (setup.m_tilde.basis @ d), setup.n)
            if is_in_R(setup, x, "m", dims_m) and is_in_R(setup, x, "m_tilde", dims_mt):
                return x, radius
        radius *= 0.5
    raise RuntimeError("no generic point found near the witness; "
                       "the generic dimension estimates may be off")


@dataclass
class ReducedSetup:
    """Everything attached to the centralizer of the witness isotropy algebra."""

    setup: OrbitSetup
    anchor_x0: LieElement
    k_x0: Subspace
    g0: Subspace
    k0: Subspace
    m0: Subspace
    g0_tilde: Subspace
    k0_tilde: Subspace
    m0_tilde: Subspace
    z_g0: Subspace
    rank_g0: int
    dims_m0: GenericDims
    r_m: int
    checks: dict


# points sampled for each generic estimate and for the anchor consistency checks
_REDUCTION_SAMPLES = 12


def reduction_data(setup: OrbitSetup, x0: LieElement | GenericPoint,
                   dims_m: GenericDims, dims_mt: GenericDims,
                   seed: int = 0) -> ReducedSetup:
    """Centralizer-of-isotropy reduction anchored at a doubly generic point.

    Requires x0 generic for both the full and the fixed pair, and rejects
    other anchors.  A ``GenericPoint`` of space ("m", "m_tilde") states both
    memberships, so only the isotropy algebra k^x0, whose basis the reduction
    needs, is computed at x0.  The returned
    bundle carries consistency checks: the reduced ambient space is a
    conjugation-stable subalgebra containing the anchor element of the orbit,
    sampled generic points of the reduced transversal reproduce the witness
    isotropy algebra and the full slice, and the defect r is preserved.
    """
    if isinstance(x0, GenericPoint):
        if x0.space != ("m", "m_tilde"):
            raise ValueError(f"anchor stated generic for {x0.space!r}, "
                             "not for both pairs")
        x0 = x0.x
    elif not (is_in_R(setup, x0, "m", dims_m) and is_in_R(setup, x0, "m_tilde", dims_mt)):
        raise ValueError("anchor is not generic for both the full and the fixed pair")
    kx = centralizer(x0, setup.k, setup.rank_tol)

    n = setup.n
    g0 = stacked_centralizer(kx.basis, setup.g, setup.rank_tol)
    k0 = intersect(g0, setup.k, setup.rank_tol)
    m0 = intersect(g0, setup.m, setup.rank_tol)
    g0_tilde = intersect(g0, setup.g_tilde, setup.rank_tol)
    k0_tilde = intersect(k0, setup.g_tilde, setup.rank_tol)
    m0_tilde = intersect(m0, setup.g_tilde, setup.rank_tol)
    z_g0 = subalgebra_center(g0, setup.rank_tol)

    checks = {}
    checks["g0_is_subalgebra"] = bracket_closure_residual(g0) < 1e-10
    checks["a_in_g0"] = g0.contains(setup.a.coords, 1e-10)
    checks["sigma_invariant"] = all(_sigma_stable(S, n) for S in (g0, k0, m0))
    checks["g0_splits"] = g0.dim == k0.dim + m0.dim
    checks["g0_tilde_splits"] = g0_tilde.dim == k0_tilde.dim + m0_tilde.dim

    # rank of the reduced algebra: generic centralizer dimension inside g0
    rank_g0 = _generic_dim_within(g0, setup, seed)

    pair0 = AlgebraPair("m0", g0, k0, m0)
    dims_m0 = estimate_generic_dims(setup, pair0, _REDUCTION_SAMPLES, seed)
    checks["r_preserved"] = dims_m0.r == dims_m.r
    checks["r_equals_rank_minus_center"] = dims_m.r == rank_g0 - z_g0.dim

    # sampled points of the reduced transversal that are generic for the full
    # pair must reproduce the isotropy algebra and the slice of the anchor
    match_k, match_slice, semis_ok = _anchor_consistency(
        setup, x0, kx, pair0, dims_m, seed, g0)
    checks["isotropy_constant_on_m0"] = match_k
    checks["slice_agrees_on_m0"] = match_slice
    checks["centralizer_splits_semisimple"] = semis_ok

    return ReducedSetup(setup, x0, kx, g0, k0, m0, g0_tilde, k0_tilde, m0_tilde,
                        z_g0, rank_g0, dims_m0, dims_m.r, checks)


def _sigma_stable(S: Subspace, n: int) -> bool:
    signs = sigma_signs(n)
    B = signs[:, None] * S.basis
    return subspace_residual(Subspace(S.ambient_dim, B), S) < 1e-10


def _generic_dim_within(algebra: Subspace, setup: OrbitSetup, seed: int) -> int:
    C = sample_coords(algebra, seed, 29, _REDUCTION_SAMPLES)
    return min(algebra.dim, int(centralizer_dims(C, algebra, setup.rank_tol)[0].min()))


def _anchor_consistency(setup, x0, kx, pair0, dims_m, seed, g0):
    match_k = True
    match_slice = True
    checked = 0
    for i in range(_REDUCTION_SAMPLES):
        rng = np.random.default_rng([seed, 37, i])
        x = sample_element(pair0.m, rng, setup.n)
        if not is_in_R(setup, x, "m", dims_m):
            continue
        checked += 1
        kxi = centralizer(x, setup.k, setup.rank_tol)
        if not equal_spaces(kxi, kx, 1e-7):
            match_k = False
        m0x = m_of_x(setup, x, pair0)
        mx = m_of_x(setup, x, "m")
        if not equal_spaces(m0x, mx, 1e-7):
            match_slice = False
        if checked >= 3:
            break
    # dim g^x0 must split as the reduced centralizer plus the semisimple part
    g0x0_dim = centralizer_dim(x0, g0, setup.rank_tol)[0]
    semis = derived_span(kx, setup.rank_tol)
    semis_ok = dims_m.q == g0x0_dim + semis.dim
    return match_k and checked > 0, match_slice and checked > 0, semis_ok
