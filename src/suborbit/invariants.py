"""The family of shifted trace-power integrals on m or on its fixed part.

For each power k = 2..n the trace of (x + t*a)^k is a polynomial in the shift
parameter t; its coefficients, restricted to the chosen space, form a finite
generating set for the whole shifted family (evaluating the polynomial at any
t is a linear combination of the coefficients).  Coefficients are extracted
exactly by convolving matrix word expansions, never by numerical fitting, and
gradients come from exact differentiation of the word expansion followed by a
skew-Hermitian split and a pairing-orthogonal projection.  At each point one
shift recursion, run up to the largest power, gives the values of every
member, and one gives all of their gradients; ``involutivity_suite`` runs
one recursion over the stack of all its points.

Traces of odd powers are purely imaginary on skew-Hermitian matrices, so the
real-valued member for odd k takes the imaginary part; this rescales the
member by a unit and changes nothing about gradients spans or brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import LieElement, bracket_form, coords_to_matrix, matrix_to_coords
from .linalg import Subspace, orthonormal_columns, subspace_residual
from .generic import GenericDims, GenericPoint, is_in_R, m_of_x, sample_coords
from .orbit import AlgebraPair, OrbitSetup


@dataclass(frozen=True)
class Member:
    """One coefficient function: power k, shift order s (0 <= s <= k-1)."""

    k: int
    s: int

    @property
    def name(self) -> str:
        return f"h_{self.k}_{self.s}"


@dataclass(frozen=True)
class IntegralFamily:
    setup: OrbitSetup
    space: "str | AlgebraPair"
    members: tuple[Member, ...]
    pruned: tuple[Member, ...]

    @property
    def domain(self) -> Subspace:
        return self.setup.pair(self.space).m


def _shift_coeff_powers(x_mat: np.ndarray, a_mat: np.ndarray, k_max: int):
    """Yield the matrix coefficients of (x + t*a)^k for k = 0, 1, ..., k_max.

    ``x_mat`` may be one matrix or a (P, n, n) stack; for a stack every
    coefficient after the first is a (P, n, n) stack as well.
    """
    coeffs = [np.eye(x_mat.shape[-1], dtype=complex)]
    yield coeffs
    for _ in range(k_max):
        nxt = [c @ x_mat for c in coeffs] + [np.zeros(x_mat.shape, dtype=complex)]
        for s in range(1, len(coeffs) + 1):
            nxt[s] = nxt[s] + coeffs[s - 1] @ a_mat
        coeffs = nxt
        yield coeffs


def _real_part(k: int, z):
    return z.real if k % 2 == 0 else z.imag


def member_values(family: IntegralFamily, x) -> np.ndarray:
    """Values of all members at x, in the order of ``family.members``.

    One shift recursion up to the largest power serves every member: its
    state after k steps holds the matrix coefficients of (x + t*a)^k.  For a
    (R, n, n) stack ``x`` it runs over the whole stack and gives (R, M).
    """
    X = x.matrix if isinstance(x, LieElement) else x
    members = family.members
    vals = np.zeros(X.shape[:-2] + (len(members),))
    k_max = max((m.k for m in members), default=0)
    for k, C in enumerate(_shift_coeff_powers(X, family.setup.a.matrix, k_max)):
        for i, m in enumerate(members):
            if m.k == k:
                vals[..., i] = _real_part(k, np.trace(C[m.s], axis1=-2, axis2=-1))
    return vals


def _raw_gradient_matrix(k: int, D: np.ndarray) -> np.ndarray:
    """Unprojected gradient of a power-k member from its word derivative ``D``.

    d/dt tr((x + t v + shift)^k) = k tr((x + shift)^(k-1) v) by cyclicity, so
    the raw derivative matrix D is the shift coefficient of the power k-1; its
    skew-Hermitian part is the only piece the pairing sees on u(n).
    """
    if k % 2 == 1:
        D = -1j * D
    return -k * 0.5 * (D - D.conj().swapaxes(-1, -2))


def _member_gradients(family: IntegralFamily, x, members=None) -> np.ndarray:
    """In-space gradient coordinates (N, M) at x of ``members`` (default: the
    family's), from one shift recursion: its state after k-1 steps holds the
    word derivatives of power k.  For a (P, n, n) stack of points ``x`` the
    one recursion runs over the whole stack and the result is (N, P, M)."""
    members = family.members if members is None else members
    X = x.matrix if isinstance(x, LieElement) else x
    lead = X.shape[:-2]
    N = family.setup.ambient_dim
    if not members:
        return np.zeros((N,) + lead + (0,))
    k_max = max(m.k for m in members)
    C = list(_shift_coeff_powers(X, family.setup.a.matrix, k_max - 1))
    raws = np.stack([_raw_gradient_matrix(m.k, C[m.k - 1][m.s]) for m in members],
                    axis=-3)
    G = family.domain.project(matrix_to_coords(raws.reshape(-1, *X.shape[-2:])).real)
    return G.reshape((N,) + lead + (len(members),))


def gradient(family: IntegralFamily, member: Member, x: LieElement) -> LieElement:
    """Pairing gradient of the member inside the family's space."""
    return LieElement.from_coords(_member_gradients(family, x, (member,))[:, 0],
                                  family.setup.n)


def build_family(setup: OrbitSetup, space) -> IntegralFamily:
    """All nonvanishing shift coefficients of powers 2..n on the chosen space.

    Member (k, s) sums the words with k-s letters x and s letters a.  It
    vanishes identically on the space, and is pruned, exactly when
    - the space lies in m and s = k-1: the member is k tr(x a^(k-1)), and x
      has no block-diagonal part;
    - the space lies in the fixed part and k-s is odd: a transposed word has
      x^T = -x and a^T = a, so the member is (-1)^(k-s) times itself;
    - the space lies in m, there are two blocks and k-s is odd: a is affine
      in J = diag(I, -I) and J x J = -x, so conjugating by J flips its sign;
    - the space is zero: every member has degree k-s >= 1 in x.
    That no other member vanishes is checked against random probes in tests.
    """
    pair = setup.pair(space)
    in_m = subspace_residual(pair.m, setup.m) < 1e-10
    fixed = subspace_residual(pair.m, setup.g_tilde) < 1e-10
    two_blocks = len(setup.multiplicities) == 2

    def vanishes(k, s):
        odd = (k - s) % 2 == 1
        return (pair.m.dim == 0 or (in_m and (s == k - 1 or (two_blocks and odd)))
                or (fixed and odd))

    candidates = [Member(k, s) for k in range(2, setup.n + 1) for s in range(k)]
    return IntegralFamily(setup, space if isinstance(space, AlgebraPair) else pair.name,
                          tuple(m for m in candidates if not vanishes(m.k, m.s)),
                          tuple(m for m in candidates if vanishes(m.k, m.s)))


def involutivity_suite(family: IntegralFamily, n_points: int = 100,
                       seed: int = 0) -> float:
    """Largest scaled pairwise bracket residual over random points of the space.

    The residual for a pair is |{f, g}(x)| divided by the product of the
    gradient norms (floored at one), which makes the verdict insensitive to
    the overall scale of the family members.  The points are drawn as one
    coordinate array, every member gradient at all of them comes from one
    shift recursion over their (P, n, n) stack, and every bracket from one
    P-stacked ``bracket_form``.
    """
    if n_points < 1:
        raise ValueError("need at least one sample point")
    if not family.members:
        return 0.0
    n = family.setup.n
    C = sample_coords(family.domain, seed, 11, n_points)
    G = _member_gradients(family, coords_to_matrix(C, n))
    # {f, g}(x) = -<x, [grad f, grad g]> = tr(x [grad f, grad g])
    vals = np.abs(bracket_form(C, G))
    norms = np.linalg.norm(G, axis=0)
    return float(np.max(vals / np.maximum(1.0, norms[:, :, None] * norms[:, None, :])))


# isotropy residual of a complete span, relative to max(1, |x|_F); n <= 8
# measures < 4e-11
_ISOTROPY_RTOL = 1e-8


@dataclass(frozen=True)
class CompletenessReport:
    span_dim: int
    target_dim: int
    complete: bool
    isotropy_residual: float
    slice_dim: int
    membership_residual: float
    ambiguous: bool


def completeness_check(setup: OrbitSetup, family: IntegralFamily,
                       x: LieElement | GenericPoint, dims: GenericDims,
                       space=None) -> CompletenessReport:
    """Rank of the gradient span at x against the maximal isotropic dimension.

    The target is (r + dim slice) / 2 where the slice is the bracket
    compatible subspace at x; the span must also be isotropic for the
    canonical fiberwise form, up to ``_ISOTROPY_RTOL`` times max(1, |x|_F).
    Rejects a ``LieElement`` outside the generic stratum.  A ``GenericPoint``
    states that membership, and its slice when built, so neither is decided
    again; its space stands in for ``space``.
    """
    if isinstance(x, GenericPoint):
        space, mx, x = x.space, x.slice, x.x
    else:
        space = family.space if space is None else space
        if not is_in_R(setup, x, space, dims):
            raise ValueError("point is not generic for the selected space")
        mx = None
    if mx is None:
        mx = m_of_x(setup, x, space)
    G = _member_gradients(family, x)
    # one rank decision gives the span dimension and an orthonormal span
    Q, amb = orthonormal_columns(G)
    span_dim = Q.shape[1]
    target = (dims.r + mx.dim) / 2
    target_dim = int(round(target))
    iso = float(np.max(np.abs(bracket_form(x.coords, Q)), initial=0.0))
    memb = float(np.max(np.linalg.norm(G - mx.project(G), axis=0), initial=0.0))
    complete = (span_dim == target_dim and abs(target - target_dim) < 1e-9
                and iso <= _ISOTROPY_RTOL * max(1.0, x.norm()))
    return CompletenessReport(span_dim, target_dim, complete, iso, mx.dim, memb,
                              amb or mx.ambiguous)
