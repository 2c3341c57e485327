"""Fiberwise skew-form pencils, their kernels, and the Kronecker verdict.

At a generic point x the two compatible Poisson structures restrict to a
pencil of skew forms on the slice m(x):

    B(lambda): (y1, y2) -> -<x + lambda*a, [y1, y2]>
    B(sing):   (y1, y2) -> -<a, [y1, y2]>

The pencil is Kronecker at x exactly when the complexified kernels have the
generic dimension r for every parameter value, including the singular one.
In (k, m) coordinates ad(x + lambda*a) is [[0, X_km], [X_mk, X_mm +
lambda*D]] with ker X_km = m(x), so dim ker ad(x + lambda*a) on gl(n) is p
plus dim ker B(lambda): ``kronecker_test`` decides the small pencil on m(x)
for every lambda in C and at infinity, the finite lambda by two random
projections (Hochstenbach, Mehl and Plestenjak, SIMAX 2019).  Both forms it
reads, F_x = B(0) and F_a = B(sing), are real; ``form_matrix`` builds them as
Y^T (ad w) Y from the structure constants (``lie.bracket_form``), and a
complex lambda enters only as F_x + lambda*F_a.

A standalone analyzer for arbitrary pairs of skew forms computes the minimal
real kernel dimension, the sum of kernels over minimizing parameters, its
isotropy, and the maximality verdict, side by side with the complex
constant-rank criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

# centralizer is unused here but stays importable: bench/test_bench.py checks
# that the layer tracer wraps it at this lookup site
from .lie import LieElement, bracket_form, centralizer  # noqa: F401
from .linalg import (Subspace, kernel_basis, kernel_dim, numeric_rank,
                     orthonormal_columns, warn_fragile)
from .generic import GenericDims, GenericPoint, is_in_R, m_of_x
from .orbit import OrbitSetup

SINGULAR = "singular"

# pencil_isotropy_check scans this many real parameters beyond its fixed ones
_N_REAL = 50


def form_matrix(setup: OrbitSetup, x: LieElement, lam, space: str = "m",
                domain: Subspace | None = None) -> np.ndarray:
    """Real skew matrix of the pencil form at parameter ``lam`` on the slice
    basis.

    ``lam`` is a real scalar, or the module constant SINGULAR for the form
    that pairs against the anchor alone.  The form at a complex parameter is
    F(0) + lam*F(SINGULAR), as the pencil is linear in lam.
    """
    if np.iscomplexobj(lam):
        raise ValueError(f"the pencil parameter must be real, got {lam!r}")
    if domain is None:
        domain = m_of_x(setup, x, space)
    w = setup.a.coords if lam == SINGULAR else x.coords + float(lam) * setup.a.coords
    # the pairing is the negated trace form, so the form value -<w, [y_i, y_j]>
    # is the plain trace tr(w [y_i, y_j])
    return bracket_form(w, domain.basis)


# a cross-projection gap at most _GENUINE_GAP marks an eigenvalue genuine, one
# of at least _SPURIOUS_GAP spurious; up to n = 9 genuine gaps measure below
# 1e-9 and spurious ones above 2e-4
_GENUINE_GAP = 1e-8
_SPURIOUS_GAP = 1e-5


def genuine_eigenvalues(F_x: np.ndarray, F_a: np.ndarray, r: int,
                        rng) -> tuple[int, float | None, bool]:
    """Finite eigenvalues of F_x + lambda*F_a, a pencil of normal rank s - r
    whose F_a has rank s - r, as ``(count, gap, ambiguous)``.

    Each of two Gaussian pairs U, V (s x (s - r)) from ``rng`` gives the
    regular pencil U^T (F_x + lambda*F_a) V: the genuine eigenvalues, and
    others that move with U and V.  The gap of an eigenvalue of the first is
    its chordal distance to the nearest of the second, with the pencil scaled
    to |F_x| = |F_a|.  count is the number of gaps up to ``_GENUINE_GAP`` and
    gap the smallest (None without eigenvalues); a gap strictly between the
    two cutoffs decides nothing, sets ``ambiguous`` and warns.
    """
    s = F_x.shape[0]
    if s == r:
        return 0, None, False
    scale = np.linalg.norm(F_a) / (np.linalg.norm(F_x) or 1.0)
    eigs = []
    for _ in range(2):
        U, V = rng.standard_normal((2, s, s - r))
        eigs.append(-scale * np.linalg.eigvals(
            np.linalg.solve(U.T @ F_a @ V, U.T @ F_x @ V)))
    e1, e2 = eigs[0][:, None], eigs[1][None, :]
    gaps = (np.abs(e1 - e2)
            / np.sqrt((1 + np.abs(e1) ** 2) * (1 + np.abs(e2) ** 2))).min(axis=1)
    ambiguous = bool(np.any((gaps > _GENUINE_GAP) & (gaps < _SPURIOUS_GAP)))
    if ambiguous:
        warn_fragile("pencil eigenvalue gap between the genuine and spurious cutoffs")
    return int(np.count_nonzero(gaps <= _GENUINE_GAP)), float(gaps.min()), ambiguous


def singular_kernel_dim(setup: OrbitSetup, F_a: np.ndarray) -> tuple[int, bool]:
    """``(dim, ambiguous)`` of the kernel of the singular form ``F_a`` on m(x),
    which is m(x) ^ ad_a^(-1) ad x (k), decided against the floor |a|_F."""
    return kernel_dim(F_a, floor=setup.a.norm())


@dataclass(frozen=True)
class KroneckerVerdict:
    """Outcome of the pencil test at one point.

    generic: the point attains both generic centralizer dimensions;
    singular_ok: the singular form's kernel on m(x) has dimension r (lambda
    at infinity); pencil_ok: with singular_ok, no finite eigenvalue, decided
    with no gap in the ambiguous band; kronecker = singular_ok and pencil_ok.
    finite_eigenvalues counts the genuine ones, and projection_gap, the
    smallest cross-projection gap, is the margin of that count.
    """

    generic: bool
    singular_ok: bool
    pencil_ok: bool
    kronecker: bool
    r: int
    q: int
    singular_kernel_dim: int
    finite_eigenvalues: int
    projection_gap: float | None
    ambiguous: bool
    # the point with its slice, for generic points; not part of the report
    point: GenericPoint | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


def kronecker_test(setup: OrbitSetup, x: LieElement, dims: GenericDims,
                   seed: int = 0) -> KroneckerVerdict:
    """Pencil verdict at x on the slice m(x) of the full pair, for every
    lambda in C and at infinity.

    Points outside the generic stratum are rejected with every flag false.
    At generic points the singular form's kernel is compared against r, and
    then ``genuine_eigenvalues`` runs on the generator ``[seed, 23]``.  Its
    normal rank s - r is certain when q = n, since no centralizer in gl(n)
    is smaller than n; otherwise the kernel at one seeded real lambda must
    be r too, and a difference counts as eigenvalues.  The verdict carries
    the point with the slice it built as a ``GenericPoint``.
    """
    if not is_in_R(setup, x, "m", dims):
        return KroneckerVerdict(False, False, False, False, dims.r, dims.q,
                                -1, 0, None, False)
    domain = m_of_x(setup, x, "m")
    F_x = form_matrix(setup, x, 0.0, "m", domain)
    F_a = form_matrix(setup, x, SINGULAR, "m", domain)
    si_dim, ambiguous = singular_kernel_dim(setup, F_a)
    singular_ok = si_dim == dims.r
    count, gap, gap_amb = 0, None, False
    rng = np.random.default_rng([seed, 23])
    if singular_ok and dims.q > setup.n:
        lam = rng.standard_normal()
        kd, amb = kernel_dim(F_x + lam * F_a,
                             floor=float(np.linalg.norm(x.coords + lam * setup.a.coords)))
        count, ambiguous = abs(kd - dims.r), ambiguous or amb
    if singular_ok and count == 0:
        count, gap, gap_amb = genuine_eigenvalues(F_x, F_a, dims.r, rng)
    pencil_ok = singular_ok and count == 0 and not gap_amb
    return KroneckerVerdict(True, singular_ok, pencil_ok, singular_ok and pencil_ok,
                            dims.r, dims.q, si_dim, count, gap,
                            domain.ambiguous or ambiguous or gap_amb,
                            GenericPoint(x, "m", domain))


@dataclass(frozen=True)
class PencilReport:
    """Analyzer output for one pair of skew forms."""

    r_min: int
    kernel_sum_dim: int
    isotropic: bool
    maximal: bool
    complex_constant_rank: bool
    isotropy_residual: float
    minimizing_count: int


def pencil_isotropy_check(B1: np.ndarray, B2: np.ndarray, seed: int = 0) -> PencilReport:
    """Kernel-sum analysis of the pencil t1*B1 + t2*B2 of real skew forms.

    Scans the real projective parameter line, collects kernels at the
    parameters of minimal kernel dimension, and reports whether their sum is
    isotropic for every sampled form and whether it is maximal isotropic
    (dimension (d + r_min)/2).  The independent complex criterion, constancy
    of the complexified kernel dimension over all of C and infinity, is
    decided as in ``kronecker_test`` and reported alongside.
    """
    B1 = np.asarray(B1, dtype=float)
    B2 = np.asarray(B2, dtype=float)
    if B1.shape != B2.shape or B1.ndim != 2 or B1.shape[0] != B1.shape[1]:
        raise ValueError("expected two square matrices of equal size")
    scale = max(np.max(np.abs(B1)), np.max(np.abs(B2)), 1e-300)
    for B in (B1, B2):
        if np.max(np.abs(B + B.T)) > 1e-10 * scale:
            raise ValueError("forms must be skew-symmetric")
    stacked = np.stack([B1.ravel(), B2.ravel()])
    sv = np.linalg.svd(stacked, compute_uv=False)
    rank2, _ = numeric_rank(sv)
    if rank2 < 2:
        raise ValueError("forms are linearly dependent; the pencil is a line, not a plane")

    d = B1.shape[0]
    rng = np.random.default_rng([seed, 41])
    thetas = np.concatenate([
        [0.0, np.pi / 2, np.pi / 4, 3 * np.pi / 4],
        np.pi * (np.arange(_N_REAL) + 0.5) / _N_REAL,
    ])
    params = [(np.cos(t), np.sin(t)) for t in thetas]

    floor = max(float(np.linalg.norm(B1)), float(np.linalg.norm(B2)))
    kernels = []
    dims = []
    for t1, t2 in params:
        F = t1 * B1 + t2 * B2
        K, _ = kernel_basis(F, floor=floor)
        dims.append(K.shape[1])
        kernels.append(K)
    r_min = int(min(dims))

    vecs = [K for K, dd in zip(kernels, dims) if dd == r_min and K.shape[1] > 0]
    minimizing = sum(1 for dd in dims if dd == r_min)
    if vecs:
        L, _ = orthonormal_columns(np.hstack(vecs))
    else:
        L = np.zeros((d, 0))
    L_dim = L.shape[1]

    residual = 0.0
    for t1, t2 in params:
        F = t1 * B1 + t2 * B2
        if L_dim:
            residual = max(residual, float(np.max(np.abs(L.T @ F @ L))))
    isotropic = residual < 1e-9

    maximal = isotropic and (2 * L_dim == d + r_min)

    # B1 + lambda*B2 is Kronecker when B2 (lambda at infinity) has kernel
    # r_min and no finite lambda is an eigenvalue
    cc = kernel_dim(B2, floor=floor)[0] == r_min
    if cc:
        count, _, ambiguous = genuine_eigenvalues(B1, B2, r_min, rng)
        cc = count == 0 and not ambiguous
    return PencilReport(r_min, L_dim, isotropic, maximal, cc, residual, minimizing)
