"""The family of shifted trace-power integrals on m or on its fixed part.

For each power k = 2..n the trace of (x + t*a)^k is a polynomial in the shift
parameter t; its coefficients, restricted to the chosen space, form a finite
generating set for the whole shifted family (evaluating the polynomial at any
t is a linear combination of the coefficients).  Coefficients are extracted
exactly by convolving matrix word expansions, never by numerical fitting, and
gradients come from exact differentiation of the word expansion followed by a
skew-Hermitian split and a pairing-orthogonal projection.

Traces of odd powers are purely imaginary on skew-Hermitian matrices, so the
real-valued member for odd k takes the imaginary part; this rescales the
member by a unit and changes nothing about gradients spans or brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import (LieElement, bracket, bracket_form, coords_to_matrix,
                  pairing, project)
from .linalg import Subspace, numeric_rank, orthonormal_columns
from .generic import GenericDims, is_in_R, m_of_x
from .orbit import AlgebraPair, OrbitSetup

_PROBE_SEED = 7349
_PRUNE_TOL = 1e-10


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
    """Yield the matrix coefficients of (x + t*a)^k for k = 0, 1, ..., k_max."""
    n = x_mat.shape[0]
    coeffs = [np.eye(n, dtype=complex)]
    yield coeffs
    for _ in range(k_max):
        nxt = [c @ x_mat for c in coeffs] + [np.zeros((n, n), dtype=complex)]
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


def _raw_gradient_matrix(setup: OrbitSetup, member: Member, x: LieElement) -> np.ndarray:
    """Unprojected gradient: skew-Hermitian part of the exact word derivative.

    d/dt tr((x + t v + shift)^k) = k tr((x + shift)^(k-1) v) by cyclicity, so
    the raw derivative matrix is the shift coefficient of the power k-1; its
    skew-Hermitian part is the only piece the pairing sees on u(n).
    """
    k, s = member.k, member.s
    C = shift_coeff_matrices(x.matrix, setup.a.matrix, k - 1)
    D = C[s]
    if k % 2 == 1:
        D = -1j * D
    return -k * 0.5 * (D - D.conj().T)


def gradient(family: IntegralFamily, member: Member, x: LieElement) -> LieElement:
    """Pairing gradient of the member inside the family's space."""
    raw = _raw_gradient_matrix(family.setup, member, x)
    return project(LieElement.from_matrix(raw), family.domain)


def _member_is_zero(setup: OrbitSetup, space: Subspace, member: Member) -> bool:
    rng = np.random.default_rng([_PROBE_SEED, member.k, member.s])
    a_norm = max(1.0, setup.a.norm())
    for _ in range(4):
        x = LieElement.from_coords(space.basis @ rng.standard_normal(space.dim), setup.n)
        scale = max(1.0, x.norm()) ** (member.k - member.s) * a_norm ** member.s
        C = shift_coeff_matrices(x.matrix, setup.a.matrix, member.k)
        val = _real_part(member.k, complex(np.trace(C[member.s])))
        if abs(val) > _PRUNE_TOL * scale:
            return False
        g = LieElement.from_matrix(_raw_gradient_matrix(setup, member, x))
        if np.linalg.norm(space.project(g.coords)) > _PRUNE_TOL * member.k * scale:
            return False
    return True


def build_family(setup: OrbitSetup, space, max_power: int | None = None) -> IntegralFamily:
    """All nonvanishing shift coefficients of powers 2..n on the chosen space.

    Coefficients that vanish identically on the space are pruned: the top
    coefficient of each power is constant, the order k-1 coefficient pairs x
    against a power of the anchor inside the isotropy algebra, and on the
    fixed part every coefficient of the wrong parity dies because conjugation
    flips the sign of the shift.
    """
    kmax = setup.n if max_power is None else max_power
    pair = setup.pair(space)
    members = []
    pruned = []
    for k in range(2, kmax + 1):
        for s in range(0, k):
            mem = Member(k, s)
            if _member_is_zero(setup, pair.m, mem):
                pruned.append(mem)
            else:
                members.append(mem)
    return IntegralFamily(setup, space if isinstance(space, AlgebraPair) else pair.name,
                          tuple(members), tuple(pruned))


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
    the overall scale of the family members.
    """
    if n_points < 1:
        raise ValueError("need at least one sample point")
    grads = [as_gradient_fn(family, m) for m in family.members]
    if extra is not None:
        grads.append(as_gradient_fn(family, extra))
    if not grads:
        return 0.0
    space = family.domain
    n = family.setup.n
    worst = 0.0
    for i in range(n_points):
        rng = np.random.default_rng([seed, 11, i])
        x = LieElement.from_coords(space.basis @ rng.standard_normal(space.dim), n)
        gs = [g(x) for g in grads]
        # {f, g}(x) = -<x, [grad f, grad g]> = Re tr(x [grad f, grad g])
        vals = np.abs(bracket_form(x.matrix, np.stack([g.matrix for g in gs])).real)
        norms = np.array([g.norm() for g in gs])
        worst = max(worst, float(np.max(vals / np.maximum(1.0, np.outer(norms, norms)))))
    return worst


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
    grads = [gradient(family, m, x) for m in family.members]
    G = np.stack([g.coords for g in grads], axis=1)
    sv = np.linalg.svd(G, compute_uv=False)
    span_dim, amb = numeric_rank(sv, setup.rank_tol)
    mx = m_of_x(setup, x, space)
    target = (dims.r + mx.dim) / 2
    target_dim = int(round(target))
    # orthonormalize the span and evaluate the form on it
    Q, _ = orthonormal_columns(G, setup.rank_tol)
    F = bracket_form(x.matrix, coords_to_matrix(Q, setup.n))
    iso = float(np.max(np.abs(F.real), initial=0.0))
    memb = max((float(np.linalg.norm(g.coords - mx.project(g.coords)))
                for g in grads), default=0.0)
    complete = span_dim == target_dim and abs(target - target_dim) < 1e-9
    return CompletenessReport(span_dim, target_dim, complete, iso, mx.dim, memb,
                              amb or mx.ambiguous)
