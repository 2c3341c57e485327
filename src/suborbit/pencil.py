"""Fiberwise skew-form pencils, their kernels, and the Kronecker verdict.

At a generic point x the two compatible Poisson structures restrict to a
pencil of skew forms on the slice m(x):

    B(lambda): (y1, y2) -> -<x + lambda*a, [y1, y2]>
    B(sing):   (y1, y2) -> -<a, [y1, y2]>

The pencil is Kronecker at x exactly when the complexified kernels have the
generic dimension r for every parameter value, including the singular one.
``kronecker_test`` decides the singular form's kernel against r and the
complexified centralizer of x + lambda*a against q at the sampled lambdas of
``sweep_lambdas``: a structured set plus draws from a complex annulus.  A bad
parameter set is the zero locus of a polynomial, so draws miss it almost surely.

A standalone analyzer for arbitrary pairs of skew forms computes the minimal
real kernel dimension, the sum of kernels over minimizing parameters, its
isotropy, and the maximality verdict, side by side with the complex
constant-rank criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# centralizer is unused here but stays importable: bench/test_bench.py checks
# that the layer tracer wraps it at this lookup site
from .lie import (LieElement, ad_in_basis, bracket_form, centralizer,  # noqa: F401
                  coords_to_matrix)
from .linalg import (RANK_RTOL, Subspace, kernel_basis, kernel_dim,
                     numeric_rank, orthonormal_columns, pencil_kernel_dims)
from .generic import GenericDims, GenericPoint, is_in_R, m_of_x
from .orbit import OrbitSetup

SINGULAR = "singular"

_STRUCTURED_LAMBDAS = (0.0, 1.0, -1.0, 1j, -1j)

# pencil_isotropy_check scans this many real and this many complex parameters
# beyond its fixed ones
_N_REAL = 50
_N_COMPLEX = 24


def annulus_samples(rng, count: int) -> np.ndarray:
    """Area-uniform complex samples from the annulus 0.5 <= |z| <= 2."""
    r = np.sqrt(rng.uniform(0.5 ** 2, 2.0 ** 2, count))
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    return r * np.exp(1j * th)


def sweep_lambdas(seed: int, stream: int, n_lambda: int) -> np.ndarray:
    """The structured parameters 0, 1, -1, i, -i followed by ``n_lambda``
    annulus draws from the generator keyed by ``[seed, stream]``."""
    rng = np.random.default_rng([seed, stream])
    return np.concatenate([_STRUCTURED_LAMBDAS, annulus_samples(rng, n_lambda)])


def form_matrix(setup: OrbitSetup, x: LieElement, lam, space: str = "m",
                domain: Subspace | None = None) -> np.ndarray:
    """Skew matrix of the pencil form at parameter ``lam`` on the slice basis.

    ``lam`` is a complex scalar, or the module constant SINGULAR for the form
    that pairs against the anchor alone.  Entries use the complex-bilinear
    trace pairing, so complex parameters give the complexified form.
    """
    if domain is None:
        domain = m_of_x(setup, x, space)
    if lam == SINGULAR:
        w = setup.a.matrix
    else:
        lam = complex(lam)
        w = x.matrix + lam * setup.a.matrix
    # the bilinear pairing is the negated trace form, so the form value
    # -<w, [y_i, y_j]> is the plain trace tr(w [y_i, y_j])
    F = bracket_form(w, coords_to_matrix(domain.basis, setup.n))
    if F.size == 0:
        return F.real
    if np.max(np.abs(F.imag)) < 1e-13 * max(1.0, float(np.max(np.abs(F)))):
        return F.real
    return F


@dataclass(frozen=True)
class KroneckerVerdict:
    """Outcome of the pencil test at one point.

    generic: the point attains both generic centralizer dimensions;
    singular_ok: the singular form's kernel on m(x) has dimension r (lambda
    at infinity); pencil_ok: the complexified centralizer of x + lambda*a has
    dimension q at every sampled lambda; kronecker = singular_ok and pencil_ok.
    """

    generic: bool
    singular_ok: bool
    pencil_ok: bool
    kronecker: bool
    r: int
    q: int
    singular_kernel_dim: int
    lambda_samples: tuple
    centralizer_dims: tuple
    ambiguous: bool
    ambiguous_lambdas: tuple = ()
    # the point with its slice, for generic points; not part of the report
    point: GenericPoint | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "generic": self.generic,
            "singular_ok": self.singular_ok,
            "pencil_ok": self.pencil_ok,
            "kronecker": self.kronecker,
            "r": self.r,
            "q": self.q,
            "singular_kernel_dim": self.singular_kernel_dim,
            "lambda_samples": [[z.real, z.imag] for z in self.lambda_samples],
            "centralizer_dims": list(self.centralizer_dims),
            "ambiguous": self.ambiguous,
            "ambiguous_lambdas": [[z.real, z.imag] for z in self.ambiguous_lambdas],
        }


def kronecker_test(setup: OrbitSetup, x: LieElement, dims: GenericDims,
                   n_lambda: int = 20, seed: int = 0, space: str = "m") -> KroneckerVerdict:
    """Full pencil verdict at x for the chosen pair of algebras.

    Points outside the generic stratum are rejected with every flag false and
    no parameter sweep.  For generic points the singular-form kernel on the
    slice is compared against r, and the complexified centralizers at the
    ``sweep_lambdas(seed, 23, n_lambda)`` parameters against q; the verdict
    carries the point with the slice it built as a ``GenericPoint``.
    """
    pair = setup.pair(space)
    if not is_in_R(setup, x, space, dims):
        return KroneckerVerdict(False, False, False, False, dims.r, dims.q,
                                -1, (), (), False)
    domain = m_of_x(setup, x, space)
    F_si = form_matrix(setup, x, SINGULAR, space, domain)
    si_dim, si_amb = kernel_dim(F_si.astype(complex), setup.rank_tol,
                                floor=float(np.linalg.norm(setup.a.matrix)))
    singular_ok = si_dim == dims.r

    # the adjoint matrix is ad x + lam * ad a, so it is built once and every
    # parameter value is a linear combination
    lams = sweep_lambdas(seed, 23, n_lambda)
    floors = np.linalg.norm(x.matrix + lams[:, None, None] * setup.a.matrix,
                            axis=(1, 2))
    ad_x = ad_in_basis(x, pair.g)
    ad_a = ad_in_basis(setup.a, pair.g)
    cdims, c_amb = pencil_kernel_dims(ad_x, ad_a, lams, setup.rank_tol, floors)
    fragile = c_amb | pair.g.ambiguous
    pencil_ok = bool(np.all(cdims == dims.q))
    return KroneckerVerdict(True, singular_ok, pencil_ok,
                            singular_ok and pencil_ok, dims.r, dims.q, si_dim,
                            tuple(complex(l) for l in lams),
                            tuple(int(d) for d in cdims),
                            domain.ambiguous or si_amb or bool(fragile.any()),
                            tuple(complex(l) for l in lams[fragile]),
                            GenericPoint(x, space, domain))


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
    of the complexified kernel dimension, is evaluated on random complex
    parameters and reported alongside.
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
    rank2, _ = numeric_rank(sv, RANK_RTOL)
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
        K, _ = kernel_basis(F, RANK_RTOL, floor)
        dims.append(K.shape[1])
        kernels.append(K)
    r_min = int(min(dims))

    vecs = [K for K, dd in zip(kernels, dims) if dd == r_min and K.shape[1] > 0]
    minimizing = sum(1 for dd in dims if dd == r_min)
    if vecs:
        L, _ = orthonormal_columns(np.hstack(vecs), RANK_RTOL)
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

    cc = True
    complex_params = [(1.0, 1j), (1j, 1.0), (1.0, 1.0 + 1j)]
    zs = annulus_samples(rng, _N_COMPLEX)
    complex_params += [(1.0, z) for z in zs[: _N_COMPLEX // 2]]
    complex_params += [(z, 1.0) for z in zs[_N_COMPLEX // 2:]]
    for t1, t2 in complex_params:
        F = t1 * B1.astype(complex) + t2 * B2.astype(complex)
        kd, _ = kernel_dim(F, RANK_RTOL, floor)
        if kd != r_min:
            cc = False
            break
    return PencilReport(r_min, L_dim, isotropic, maximal, cc, residual, minimizing)
