"""Generic-dimension estimation, the genericity stratum membership test, the
bracket-compatible slice m(x), and the reduction to the centralizer of a
witness isotropy algebra, read off the witness's zero columns.

Zariski-generic quantities are estimated by sampling: the bad sets are proper
algebraic subsets, so independent Gaussian samples attain the generic value
almost surely.  Estimates report whether the minimum was attained by at least
80 percent of the samples; downstream consumers refuse to run on estimates
that did not stabilize.
A seeded search for a generic point draws its whole budget as one coordinate
stack, screens it with one ``in_R_mask`` call per space, and reads the
surviving columns in draw order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import (LieElement, ad_in_basis, bracket_closure_residual,
                  centralizer, centralizer_dim, centralizer_dims,
                  coordinate_entries, sigma_signs)
from .linalg import Subspace, equal_spaces, kernel_basis, subspace_residual
from .orbit import AlgebraPair, OrbitSetup, _block_identities, _coordinates


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
    """Coordinate columns (N, samples) of the elements
    ``space.basis @ default_rng([seed, stream, i]).standard_normal(space.dim)``,
    i < samples; an (N, 0) stack when ``samples`` is 0."""
    cols = [space.basis @ seeded_normals((seed, stream, i), space.dim)
            for i in range(samples)]
    return np.stack(cols, axis=1) if cols else np.zeros((space.ambient_dim, 0))


def estimate_generic_dims(setup: OrbitSetup, space, samples: int = 25,
                          seed: int = 0) -> GenericDims:
    """Minimal centralizer dimensions over Gaussian samples of the space."""
    if samples < 10:
        raise ValueError("need at least 10 samples for a stable estimate")
    pair = setup.pair(space)
    C = sample_coords(pair.m, seed, 7, samples)
    qs = centralizer_dims(C, pair.g)[0]
    ps = centralizer_dims(C, pair.k)[0]
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
    hit = centralizer_dims(C, pair.g)[0] == dims.q
    if hit.any():
        hit[hit] = centralizer_dims(C[:, hit], pair.k)[0] == dims.p
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
    K, amb = kernel_basis(comp, floor=x.norm())
    return Subspace(pair.m.ambient_dim, pair.m.basis @ K,
                    ambiguous=amb or pair.m.ambiguous)


# perturb_into_R halves its radius this many times, drawing this many points
# on each sphere
_MAX_HALVINGS = 12
_TRIES_PER_RADIUS = 4


def perturb_into_R(setup: OrbitSetup, x0: LieElement, dims_m: GenericDims,
                   dims_mt: GenericDims, seed: int = 0) -> tuple[LieElement, float]:
    """Move x0 inside the fixed part of m until it is generic for both pairs.

    Returns x0 with radius 0.0 when it is already generic.  Otherwise screens
    x0 + radius * d as one stack, d the unit directions of m_tilde drawn from
    the keys [seed, 19, h, t] on the spheres of radius 2^-h, and returns the
    first draw generic for both pairs, with its radius.
    """
    if is_in_R(setup, x0, "m", dims_m) and is_in_R(setup, x0, "m_tilde", dims_mt):
        return x0, 0.0
    Z = np.stack([seeded_normals((seed, 19, h, t), setup.m_tilde.dim)
                  for h in range(_MAX_HALVINGS) for t in range(_TRIES_PER_RADIUS)],
                 axis=1)
    radii = 0.5 ** np.repeat(np.arange(_MAX_HALVINGS), _TRIES_PER_RADIUS)
    directions = setup.m_tilde.basis @ (Z / np.linalg.norm(Z, axis=0))
    C = x0.coords[:, None] + directions * radii
    hit = in_R_mask(setup, C, "m", dims_m)
    hit[hit] = in_R_mask(setup, C[:, hit], "m_tilde", dims_mt)
    hits = np.flatnonzero(hit)
    if not hits.size:
        raise RuntimeError("no generic point found near the witness; "
                           "the generic dimension estimates may be off")
    return LieElement.from_coords(C[:, hits[0]], setup.n), float(radii[hits[0]])


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


# points sampled for the reduced generic estimate and the anchor consistency checks
_REDUCTION_SAMPLES = 12


def reduction_data(setup: OrbitSetup, x0: LieElement | GenericPoint,
                   dims_m: GenericDims, dims_mt: GenericDims,
                   seed: int = 0) -> ReducedSetup:
    """Centralizer-of-isotropy reduction anchored at a doubly generic point x0,
    read off the set W of columns where x0 is exactly zero.

    A ``GenericPoint`` of space ("m", "m_tilde") states x0 generic for both
    pairs; any other anchor is decided here and rejected unless it is.  W must
    lie in one block and ``dims_m.p`` must be 1 + |W|^2, or ``ValueError`` is
    raised.  Then, with u(V) the matrices supported on V x V and I_V the
    identity on V,

        k^x0 = u(W) + iR I_{W perp},  g0 = u(W perp) + iR I_W,
        z(g0) = span(i I_W, i I_{W perp}),  rank g0 = n - |W| + dim z(g0) - 1,

    so every space is a coordinate mask of u(n) plus at most one line, and no
    rank is decided to build it.  Proof: x0 is skew-Hermitian, so its W rows
    vanish with its W columns; as W lies in one block, u(W) + iR I lies in
    k^x0.  Both have dimension p = 1 + |W|^2, x0 being generic on m, so they
    are equal.  By Schur's lemma the commutant of u(W) + iR I in u(n) is
    u(W perp) + iR I_W.

    The checks state that g0 is a conjugation-stable subalgebra containing a,
    that sampled generic points of m0 reproduce k^x0 and the full slice, that
    r is preserved, and that dim g^x0 is the centralizer dimension of x0 in
    g0 plus dim [k^x0, k^x0] = dim k^x0 - dim z(g0), k^x0 being reductive
    with centre z(g0).
    """
    if isinstance(x0, GenericPoint):
        if x0.space != ("m", "m_tilde"):
            raise ValueError(f"anchor stated generic for {x0.space!r}, "
                             "not for both pairs")
        x0 = x0.x
    elif not (is_in_R(setup, x0, "m", dims_m) and is_in_R(setup, x0, "m_tilde", dims_mt)):
        raise ValueError("anchor is not generic for both the full and the fixed pair")

    n = setup.n
    W = ~np.any(x0.matrix, axis=0)
    w = int(np.count_nonzero(W))
    rows, cols = coordinate_entries(n)
    owner = np.repeat(np.arange(len(setup.multiplicities)), setup.multiplicities)
    in_k = owner[rows] == owner[cols]
    on_W = W[rows] & W[cols]
    if not in_k[on_W].all():
        raise ValueError("the zero columns of the anchor span more than one block")
    if dims_m.p != 1 + w * w:
        raise ValueError(f"the anchor has {w} zero columns, but its isotropy "
                         f"dimension p = {dims_m.p} is not 1 + {w}^2")
    off_W = ~W[rows] & ~W[cols]
    fixed = sigma_signs(n) > 0
    z_g0 = _block_identities(W.astype(int), rows, cols)
    # i*I_{W perp} and, when W is not empty, i*I_W
    line_off, line_W = z_g0.basis[:, :1], z_g0.basis[:, 1:]
    kx = _coordinates_and(on_W, line_off)
    g0 = _coordinates_and(off_W, line_W)
    k0 = _coordinates_and(off_W & in_k, line_W)
    m0 = _coordinates(off_W & ~in_k)
    g0_tilde = _coordinates(off_W & fixed)
    k0_tilde = _coordinates(off_W & in_k & fixed)
    m0_tilde = _coordinates(off_W & ~in_k & fixed)
    rank_g0 = n - w + z_g0.dim - 1

    checks = {}
    checks["g0_is_subalgebra"] = bracket_closure_residual(g0) < 1e-10
    checks["a_in_g0"] = g0.contains(setup.a.coords, 1e-10)
    checks["sigma_invariant"] = all(_sigma_stable(S, n) for S in (g0, k0, m0))
    checks["g0_splits"] = g0.dim == k0.dim + m0.dim
    checks["g0_tilde_splits"] = g0_tilde.dim == k0_tilde.dim + m0_tilde.dim

    pair0 = AlgebraPair("m0", g0, k0, m0)
    dims_m0 = estimate_generic_dims(setup, pair0, _REDUCTION_SAMPLES, seed)
    checks["r_preserved"] = dims_m0.r == dims_m.r
    checks["r_equals_rank_minus_center"] = dims_m.r == rank_g0 - z_g0.dim

    # sampled points of the reduced transversal that are generic for the full
    # pair must reproduce the isotropy algebra and the slice of the anchor
    match_k, match_slice = _anchor_consistency(setup, kx, pair0, dims_m, seed)
    checks["isotropy_constant_on_m0"] = match_k
    checks["slice_agrees_on_m0"] = match_slice
    checks["centralizer_splits_semisimple"] = (
        dims_m.q == centralizer_dim(x0, g0)[0] + kx.dim - z_g0.dim)

    return ReducedSetup(setup, x0, kx, g0, k0, m0, g0_tilde, k0_tilde, m0_tilde,
                        z_g0, rank_g0, dims_m0, dims_m.r, checks)


def _coordinates_and(mask, lines: np.ndarray) -> Subspace:
    """Span of the canonical coordinates ``mask`` selects and of the unit
    columns ``lines``, which are supported off the mask."""
    return Subspace(mask.size, np.hstack([np.eye(mask.size)[:, mask], lines]))


def _sigma_stable(S: Subspace, n: int) -> bool:
    signs = sigma_signs(n)
    B = signs[:, None] * S.basis
    return subspace_residual(Subspace(S.ambient_dim, B), S) < 1e-10


def _anchor_consistency(setup, kx, pair0, dims_m, seed):
    # the first three draws of the reduced transversal generic for the full pair
    C = sample_coords(pair0.m, seed, 37, _REDUCTION_SAMPLES)
    found = np.flatnonzero(in_R_mask(setup, C, "m", dims_m))[:3]
    match_k = match_slice = found.size > 0
    for i in found:
        x = LieElement.from_coords(C[:, i], setup.n)
        same_k = equal_spaces(centralizer(x, setup.k), kx, 1e-7)
        same_slice = equal_spaces(m_of_x(setup, x, pair0), m_of_x(setup, x, "m"), 1e-7)
        match_k, match_slice = match_k and same_k, match_slice and same_slice
    return match_k, match_slice
