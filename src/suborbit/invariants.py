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

from .lie import (LieElement, bracket, bracket_form, coords_to_matrix,
                  matrices_to_coords, pairing)
from .linalg import Subspace, orthonormal_columns, subspace_residual
from .generic import GenericDims, is_in_R, m_of_x, sample_coords
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


def shift_coeff_matrices(x_mat: np.ndarray, a_mat: np.ndarray, k: int) -> list:
    """Matrix coefficients of (x + t*a)^k as a polynomial in t, degree 0..k."""
    for coeffs in _shift_coeff_powers(x_mat, a_mat, k):
        pass
    return coeffs


def _real_part(k: int, z: complex) -> float:
    return float(z.real if k % 2 == 0 else z.imag)


def shifted_invariant_eval(family: IntegralFamily, member: Member,
                           x: LieElement) -> float:
    """Value of the shift coefficient (k, s) at x."""
    C = shift_coeff_matrices(x.matrix, family.setup.a.matrix, member.k)
    return _real_part(member.k, complex(np.trace(C[member.s])))


def member_values(family: IntegralFamily, x: LieElement) -> np.ndarray:
    """Values of all members at x, in the order of ``family.members``.

    One shift recursion up to the largest power serves every member: its
    state after k steps is what ``shift_coeff_matrices`` returns for power k,
    so each value equals ``shifted_invariant_eval`` bit for bit.
    """
    members = family.members
    vals = np.zeros(len(members))
    k_max = max((m.k for m in members), default=0)
    for k, C in enumerate(_shift_coeff_powers(x.matrix, family.setup.a.matrix, k_max)):
        for i, m in enumerate(members):
            if m.k == k:
                vals[i] = _real_part(k, complex(np.trace(C[m.s])))
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
    G = family.domain.project(matrices_to_coords(raws.reshape(-1, *X.shape[-2:])).real)
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


def as_gradient_fn(family: IntegralFamily, f):
    """Normalize a Member or a callable x -> LieElement to a gradient provider."""
    if isinstance(f, Member):
        return lambda x: gradient(family, f, x)
    if callable(f):
        return f
    raise TypeError(f"expected a Member or a gradient callable, got {type(f)!r}")


def poisson_bracket_can(family: IntegralFamily, f, g, x: LieElement) -> float:
    """Canonical fiberwise bracket -<x, [grad f, grad g]> with gradients in the space."""
    gf = as_gradient_fn(family, f)(x)
    gg = as_gradient_fn(family, g)(x)
    return -pairing(x, bracket(gf, gg))


def involutivity_suite(family: IntegralFamily, extra=None, n_points: int = 100,
                       seed: int = 0) -> float:
    """Largest scaled pairwise bracket residual over random points of the space.

    The residual for a pair is |{f, g}(x)| divided by the product of the
    gradient norms (floored at one), which makes the verdict insensitive to
    the overall scale of the family members.  The points are drawn as one
    coordinate array and every member gradient at all of them comes from one
    shift recursion over their (P, n, n) stack; only ``extra`` sees one
    ``LieElement`` per point.
    """
    if n_points < 1:
        raise ValueError("need at least one sample point")
    extra_fn = None if extra is None else as_gradient_fn(family, extra)
    if not family.members and extra_fn is None:
        return 0.0
    n = family.setup.n
    C = sample_coords(family.domain, seed, 11, n_points)
    xs = coords_to_matrix(C, n)
    G = _member_gradients(family, xs)
    if extra_fn is not None:
        extra_G = [extra_fn(LieElement.from_coords(c, n)).coords for c in C.T]
        G = np.concatenate([G, np.stack(extra_G, axis=1)[:, :, None]], axis=2)
    # {f, g}(x) = -<x, [grad f, grad g]> = Re tr(x [grad f, grad g])
    vals = np.abs(bracket_form(xs, coords_to_matrix(G, n)).real)
    norms = np.linalg.norm(G, axis=0)
    return float(np.max(vals / np.maximum(1.0, norms[:, :, None] * norms[:, None, :])))


@dataclass(frozen=True)
class CompletenessReport:
    span_dim: int
    target_dim: int
    complete: bool
    isotropy_residual: float
    slice_dim: int
    membership_residual: float
    ambiguous: bool


def completeness_check(setup: OrbitSetup, family: IntegralFamily, x: LieElement,
                       dims: GenericDims, space=None) -> CompletenessReport:
    """Rank of the gradient span at x against the maximal isotropic dimension.

    The target is (r + dim slice) / 2 where the slice is the bracket
    compatible subspace at x; the span must also be isotropic for the
    canonical fiberwise form.  Rejects points outside the generic stratum.
    """
    space = family.space if space is None else space
    if not is_in_R(setup, x, space, dims):
        raise ValueError("point is not generic for the selected space")
    G = _member_gradients(family, x)
    # one rank decision gives the span dimension and an orthonormal span
    Q, amb = orthonormal_columns(G, setup.rank_tol)
    span_dim = Q.shape[1]
    mx = m_of_x(setup, x, space)
    target = (dims.r + mx.dim) / 2
    target_dim = int(round(target))
    F = bracket_form(x.matrix, coords_to_matrix(Q, setup.n))
    iso = float(np.max(np.abs(F.real), initial=0.0))
    memb = float(np.max(np.linalg.norm(G - mx.project(G), axis=0), initial=0.0))
    complete = span_dim == target_dim and abs(target - target_dim) < 1e-9
    return CompletenessReport(span_dim, target_dim, complete, iso, mx.dim, memb,
                              amb or mx.ambiguous)
