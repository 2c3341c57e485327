"""Orbit context on u(n) for a block-scalar diagonal anchor.

Given multiplicities (n_1, ..., n_p) and a spectrum of pairwise distinct reals,
the anchor is a = diag(i*l_1 repeated n_1 times, ..., i*l_p repeated n_p
times).  Its isotropy algebra k is the block-diagonal sum of the u(n_j), m is
the pairing-orthogonal complement, and entrywise conjugation splits everything
into fixed (real, so(n)-type) and anti-fixed (i*symmetric) parts.  As a is
diagonal, these are coordinate masks over ``lie.coordinate_entries``: k holds
the coordinates whose row and column share a block, the fixed part the ones
conjugation keeps.  z(k) is spanned by the block identities and z(g) by iI.
ad a scales entry (j, k) by i(l_j - l_k) (``entry_gaps``), so it is inverted on
m entry by entry; a spectrum whose gaps the rank rule cannot separate is refused.
The module also builds the explicit real element of the fixed part of m
whose isotropy algebra inside k has the smallest possible dimension; that
element anchors all genericity and reduction arguments downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import AMBIGUITY_BAND, RANK_RTOL, Subspace, equal_spaces, full_space
from .lie import (LieElement, centralizer, centralizer_dim, coordinate_entries,
                  sigma, sigma_signs)


@dataclass(frozen=True)
class AlgebraPair:
    """An (ambient algebra, isotropy algebra, transversal) triple of subspaces.

    The verification machinery only ever needs this triple: centralizers are
    taken inside g-like and k-like spaces, samples are drawn from the m-like
    space.  The full setup and the reduced setup both expose their data this
    way.
    """

    name: str
    g: Subspace
    k: Subspace
    m: Subspace


@dataclass
class OrbitSetup:
    """Full algebra and orbit context for one (multiplicities, spectrum) choice."""

    n: int
    multiplicities: tuple[int, ...]
    spectrum: tuple[float, ...]
    a: LieElement
    g: Subspace
    g_tilde: Subspace
    g_prime: Subspace
    k: Subspace
    m: Subspace
    k_tilde: Subspace
    k_prime: Subspace
    m_tilde: Subspace
    m_prime: Subspace
    z_of_k: Subspace
    z_of_g: Subspace

    @property
    def ambient_dim(self) -> int:
        return self.n * self.n

    def pair(self, space) -> AlgebraPair:
        """Resolve a space selector ('m' or 'm_tilde', or a pair) to an AlgebraPair."""
        if isinstance(space, AlgebraPair):
            return space
        if space == "m":
            return AlgebraPair("m", self.g, self.k, self.m)
        if space == "m_tilde":
            return AlgebraPair("m_tilde", self.g_tilde, self.k_tilde, self.m_tilde)
        raise ValueError(f"unknown space selector {space!r}")


def block_scalar(setup_or_mult, values) -> LieElement:
    """Block-scalar diagonal element diag(i*v_1 I_{n_1}, ..., i*v_p I_{n_p})."""
    if isinstance(setup_or_mult, OrbitSetup):
        mult = setup_or_mult.multiplicities
    else:
        mult = tuple(setup_or_mult)
    values = list(values)
    if len(values) != len(mult):
        raise ValueError(f"got {len(values)} block values for {len(mult)} blocks")
    diag = np.concatenate([np.full(nj, 1j * float(v)) for nj, v in zip(mult, values)])
    return LieElement.from_matrix(np.diag(diag))


def entry_gaps(x: LieElement) -> np.ndarray:
    """The (n, n) gaps l_j - l_k of a diagonal x = i*diag(l): ad x scales
    entry (j, k) of a matrix by i(l_j - l_k)."""
    l = x.matrix.diagonal().imag
    return l[:, None] - l[None, :]


def build_setup(multiplicities, spectrum) -> OrbitSetup:
    """Construct the full orbit context; validates the inputs and all splittings."""
    mult = tuple(int(m) for m in multiplicities)
    spec = tuple(float(s) for s in spectrum)
    if len(mult) != len(spec):
        raise ValueError("multiplicities and spectrum must have the same length")
    if any(m <= 0 for m in mult):
        raise ValueError("multiplicities must be positive integers")
    bad = [s for s in spec if not np.isfinite(s)]
    if bad:
        raise ValueError(f"spectrum entries must be finite, got {bad}")
    if len(set(spec)) != len(spec):
        raise ValueError("spectrum entries must be pairwise distinct")
    n = sum(mult)
    if n < 2:
        raise ValueError("need total dimension n >= 2")

    a = block_scalar(mult, spec)
    # every gap must clear k's rank cutoff RANK_RTOL * max(largest gap, |a|_F) tenfold
    with np.errstate(over="ignore", invalid="ignore"):
        norm_a = a.norm()
        rel = np.diff(np.sort(spec)).min(initial=np.inf) / max(float(np.ptp(spec)), norm_a)
    if not (np.isfinite(norm_a) and rel > AMBIGUITY_BAND * RANK_RTOL):
        raise ValueError(f"spectrum values too close to separate: smallest gap / "
                         f"max(largest gap, |a|_F = {norm_a:.3g}) = {rel:.3g}, "
                         f"bound {AMBIGUITY_BAND * RANK_RTOL:g}")
    rows, cols = coordinate_entries(n)
    owner = np.repeat(np.arange(len(mult)), mult)
    in_k = owner[rows] == owner[cols]
    fixed = sigma_signs(n) > 0
    g = full_space(n * n)
    g_tilde, g_prime = _coordinates(fixed), _coordinates(~fixed)
    k, m = _coordinates(in_k), _coordinates(~in_k)
    k_tilde, k_prime = _coordinates(in_k & fixed), _coordinates(in_k & ~fixed)
    m_tilde, m_prime = _coordinates(~in_k & fixed), _coordinates(~in_k & ~fixed)
    z_of_k = _block_identities(owner, rows, cols)
    z_of_g = _block_identities(np.zeros(n, dtype=int), rows, cols)

    setup = OrbitSetup(n, mult, spec, a, g, g_tilde, g_prime, k, m,
                       k_tilde, k_prime, m_tilde, m_prime, z_of_k, z_of_g)
    _validate_setup(setup)
    return setup


def _coordinates(mask) -> Subspace:
    """Span of the canonical coordinates that a boolean mask selects."""
    return Subspace(mask.size, np.eye(mask.size)[:, mask])


def _block_identities(owner, rows, cols) -> Subspace:
    """Normalised i*I_b for each block label b of ``owner`` (one per diagonal position)."""
    diag = np.flatnonzero(rows == cols)
    block = owner[rows[diag]]
    Z = np.zeros((rows.size, owner.max() + 1))
    Z[diag, block] = 1.0 / np.sqrt(np.bincount(owner)[block])
    return Subspace(rows.size, Z)


def _validate_setup(st: OrbitSetup):
    checks = []
    # the k mask against the definition of k as the centralizer of a
    checks.append(("k = centralizer of a",
                   equal_spaces(centralizer(st.a, st.g), st.k)))
    # anchor location and conjugation behavior
    checks.append(("a in k_prime", st.k_prime.contains(st.a.coords, 1e-12)))
    checks.append(("a in z(k)", st.z_of_k.contains(st.a.coords, 1e-12)))
    checks.append(("sigma(a) = -a",
                   np.allclose(sigma(st.a).coords, -st.a.coords, atol=1e-12)))
    # dimension bookkeeping for every splitting
    mult = st.multiplicities
    n = st.n
    dk = sum(m * m for m in mult)
    dkt = sum(m * (m - 1) // 2 for m in mult)
    checks.append(("dim k", st.k.dim == dk))
    checks.append(("dim m", st.m.dim == n * n - dk))
    checks.append(("dim k_tilde", st.k_tilde.dim == dkt))
    checks.append(("dim k_prime", st.k_prime.dim == dk - dkt))
    dmt = n * (n - 1) // 2 - dkt
    checks.append(("dim m_tilde", st.m_tilde.dim == dmt))
    checks.append(("dim m_prime", st.m_prime.dim == dmt))
    checks.append(("dim z(k)", st.z_of_k.dim == len(mult)))
    checks.append(("dim z(g)", st.z_of_g.dim == 1))
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise RuntimeError(f"orbit setup self-checks failed: {failed}")


@dataclass(frozen=True)
class WitnessReport:
    """Construction record for the minimal-isotropy witness."""

    expected_dim: int
    centralizer_dim: int
    chain_expected_dim: int
    chain_dim: int
    block_order: tuple[int, ...]
    index_permutation: tuple[int, ...]
    attempts: int
    case: str


def _expected_witness_dims(sm) -> tuple[int, int, str]:
    """(final isotropy dim, chain-only isotropy dim, case label) for sorted sizes."""
    p = len(sm)
    if p == 2:
        d = sm[0] + (sm[1] - sm[0]) ** 2
        return d, d, "two_block"
    chain = sm[p - 2] + (sm[p - 1] - sm[p - 2]) ** 2
    n2 = sum(sm[: p - 2])
    gap = sm[p - 1] - sm[p - 2] - n2
    if gap <= 0:
        return 1, chain, "center_only"
    return 1 + gap * gap, chain, "center_plus_unitary_tail"


def build_witness_x0(setup: OrbitSetup, seed: int = 0) -> tuple[LieElement, WitnessReport]:
    """Real element of the fixed part of m with minimal isotropy dimension in k.

    The element is assembled blockwise after sorting the multiplicities in
    ascending order: a chain of rectangular "diagonal" pieces linking
    consecutive blocks, a generic real point of the submodule that the tail
    of the largest block cannot see, and a unit-diagonal pattern in the
    remaining module.  The chain diagonals carry strictly increasing entries
    1, 2, ...; equal entries would enlarge the isotropy algebra whenever a
    linked block has size above one.
    """
    if len(setup.multiplicities) < 2:
        raise ValueError("need at least two blocks")
    mult = list(setup.multiplicities)
    p = len(mult)
    order = sorted(range(p), key=lambda j: (mult[j], j))
    sm = [mult[j] for j in order]
    offs_orig = np.concatenate([[0], np.cumsum(mult)])
    ids = np.concatenate([np.arange(offs_orig[j], offs_orig[j + 1]) for j in order])
    off = np.concatenate([[0], np.cumsum(sm)])
    n = setup.n

    expected, chain_expected, case = _expected_witness_dims(sm)

    def place(M, bj, bl, X):
        M[off[bj]:off[bj + 1], off[bl]:off[bl + 1]] += X
        M[off[bl]:off[bl + 1], off[bj]:off[bj + 1]] -= X.T

    chain = np.zeros((n, n))
    for j in range(p - 1):
        X = np.zeros((sm[j], sm[j + 1]))
        X[np.arange(sm[j]), np.arange(sm[j])] = np.arange(1, sm[j] + 1)
        place(chain, j, j + 1, X)

    chain_sorted = chain.copy()
    attempts = 0
    for attempt in range(5):
        attempts = attempt + 1
        M = chain_sorted.copy()
        if p >= 3:
            rng = np.random.default_rng([seed, 17, attempt])
            q = sm[p - 2]
            n2 = off[p - 2]
            tail = sm[p - 1] - q
            for j in range(p - 2):
                X = np.zeros((sm[j], sm[p - 1]))
                X[:, :q] = rng.standard_normal((sm[j], q))
                if tail > 0:
                    rows = np.arange(off[j], off[j + 1])
                    hits = rows[rows < min(n2, tail)]
                    for t in hits:
                        X[t - off[j], q + t] = 1.0
                place(M, j, p - 1, X)
        M_orig = np.zeros((n, n))
        M_orig[np.ix_(ids, ids)] = M
        x0 = LieElement.from_matrix(M_orig.astype(complex))
        dim = centralizer_dim(x0, setup.k)[0]
        if dim == expected:
            break
    else:
        raise RuntimeError(
            f"witness construction did not reach isotropy dimension {expected} "
            f"(got {dim} after {attempts} attempts)")

    if not setup.m_tilde.contains(x0.coords, 1e-12):
        raise RuntimeError("witness left the fixed part of m")

    chain_orig = np.zeros((n, n))
    chain_orig[np.ix_(ids, ids)] = chain_sorted
    chain_dim = centralizer_dim(LieElement.from_matrix(chain_orig), setup.k)[0]
    if chain_dim != chain_expected:
        raise RuntimeError(
            f"chain stage has isotropy dimension {chain_dim}, expected {chain_expected}")

    report = WitnessReport(expected, dim, chain_expected, chain_dim,
                           tuple(order), tuple(int(i) for i in ids), attempts, case)
    return x0, report
