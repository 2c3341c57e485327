"""Root data for the diagonal torus of u(n), the anchored permutation, and the
principal-nilpotent regularity witness.

Roots of the complexified algebra relative to the diagonal torus are the
differences of coordinate functionals, encoded as ordered index pairs (j, k)
with matrix generator E_jk.  Splitting them by whether the corresponding
diagonal entries of the anchor coincide separates isotropy roots from
transversal roots.  When no block holds more than half of the indices, a
permutation making adjacent anchor entries distinct produces a simple system
of transversal roots; the sum of the corresponding (E_root - E_(-root))
generators is a real skew-symmetric element whose whole shifted line has
centralizer dimension equal to the rank, which certifies the constant-rank
half of the pencil condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import LieElement
from .linalg import pencil_kernel_dims
from .orbit import OrbitSetup
from .pencil import _STRUCTURED_LAMBDAS, annulus_samples


@dataclass(frozen=True)
class RootDatum:
    """Root bookkeeping for one orbit setup (index pairs are 0-based)."""

    n: int
    block_of: tuple[int, ...]
    roots: tuple[tuple[int, int], ...]
    delta_k: tuple[tuple[int, int], ...]
    delta_m: tuple[tuple[int, int], ...]
    permutation: tuple[int, ...] | None
    pi: tuple[tuple[int, int], ...] | None


def root_split(setup: OrbitSetup) -> RootDatum:
    """All n(n-1) roots split by whether they vanish on the anchor.

    The simple system attached to the anchored permutation is included when
    the dominance condition holds, otherwise the permutation and the simple
    system are left empty.
    """
    n = setup.n
    block_of = np.repeat(np.arange(len(setup.multiplicities)), setup.multiplicities)
    roots = [(j, k) for j in range(n) for k in range(n) if j != k]
    delta_k = tuple(r for r in roots if block_of[r[0]] == block_of[r[1]])
    delta_m = tuple(r for r in roots if block_of[r[0]] != block_of[r[1]])
    try:
        perm = anchored_permutation(setup)
        pi = tuple((perm[j], perm[j + 1]) for j in range(n - 1))
    except ValueError:
        perm, pi = None, None
    return RootDatum(n, tuple(int(b) for b in block_of), tuple(roots),
                     delta_k, delta_m, perm, pi)


def anchored_permutation(setup: OrbitSetup) -> tuple[int, ...]:
    """Ordering of the matrix indices with pairwise distinct adjacent anchor entries.

    Greedy construction: repeatedly take an index from the block with the most
    unused indices among blocks different from the previous one, breaking ties
    by block label.  Succeeds whenever no block exceeds all the others
    combined; otherwise the dominance hypothesis genuinely fails and the
    reduction route must be taken instead.
    """
    mult = list(setup.multiplicities)
    if max(mult) > sum(mult) - max(mult):
        raise ValueError(
            "the largest block exceeds the rest combined; no adjacent-distinct "
            "ordering exists, reduce the setup instead")
    offs = np.concatenate([[0], np.cumsum(mult)])
    remaining = list(mult)
    next_index = [int(offs[b]) for b in range(len(mult))]
    out = []
    prev = -1
    for _ in range(setup.n):
        candidates = [b for b in range(len(mult)) if remaining[b] > 0 and b != prev]
        b = max(candidates, key=lambda bb: (remaining[bb], -bb))
        out.append(next_index[b])
        next_index[b] += 1
        remaining[b] -= 1
        prev = b
    return tuple(out)


def build_x_pi(datum: RootDatum, scales=None) -> LieElement:
    """Real skew-symmetric witness: sum of (E_root - E_(-root)) over the simple system.

    Optional per-root nonzero real scales multiply the individual summands.
    The simple system must avoid the isotropy roots, which the anchored
    permutation guarantees.
    """
    if datum.pi is None:
        raise ValueError("no simple system available; the dominance condition failed")
    pi = datum.pi
    if scales is None:
        scales = [1.0] * len(pi)
    scales = [float(c) for c in scales]
    if len(scales) != len(pi):
        raise ValueError(f"need {len(pi)} scales, got {len(scales)}")
    if any(c == 0.0 for c in scales):
        raise ValueError("every scale must be nonzero")
    dk = set(datum.delta_k)
    if any(r in dk for r in pi):
        raise ValueError("simple system touches the isotropy roots")
    M = np.zeros((datum.n, datum.n), dtype=complex)
    for c, (j, k) in zip(scales, pi):
        M[j, k] += c
        M[k, j] -= c
    return LieElement.from_matrix(M)


def x_pi_template(datum: RootDatum, c_alpha: dict, d_beta: dict) -> np.ndarray:
    """General complex witness: principal-nilpotent part plus positive-root tail.

    c_alpha maps simple roots to nonzero coefficients of the opposite
    generators; d_beta maps positive transversal roots to tail coefficients.
    Returns a plain complex matrix (not an algebra element in general).
    """
    if datum.pi is None:
        raise ValueError("no simple system available; the dominance condition failed")
    if set(c_alpha) != set(datum.pi):
        raise ValueError("coefficients must cover exactly the simple system")
    if any(c == 0 for c in c_alpha.values()):
        raise ValueError("principal-nilpotent coefficients must be nonzero")
    pos = _positive_roots(datum)
    pos_m = {r for r in pos if r in set(datum.delta_m)}
    M = np.zeros((datum.n, datum.n), dtype=complex)
    for (j, k), c in c_alpha.items():
        M[k, j] += c
    for root, dcoef in d_beta.items():
        if root not in pos_m:
            raise ValueError(f"{root} is not a positive transversal root")
        M[root[0], root[1]] += dcoef
    return M


def _positive_roots(datum: RootDatum):
    """Positive roots for the simple system induced by the anchored permutation."""
    perm = datum.permutation
    position = {idx: t for t, idx in enumerate(perm)}
    return {(j, k) for (j, k) in datum.roots if position[j] < position[k]}


def verify_regular_pencil(setup: OrbitSetup, x, n_lambda: int = 20,
                          seed: int = 0) -> bool:
    """Whether the complex centralizer dimension along x + lambda*a stays at n.

    ``x`` may be an algebra element or a plain complex matrix.  The check runs
    at lambda = 0, at four structured unit values, and at random draws from a
    complex annulus; the centralizer dimension is computed from the vectorized
    commutation equations, independent of the basis machinery used elsewhere.
    The whole sweep is decided by one ``linalg.pencil_kernel_dims`` call.
    """
    X = x.matrix if isinstance(x, LieElement) else np.asarray(x, dtype=complex)
    n = setup.n
    rng = np.random.default_rng([seed, 31])
    lams = np.concatenate([_STRUCTURED_LAMBDAS, annulus_samples(rng, n_lambda)])
    eye = np.eye(n)
    # the commutation matrix of x + lambda*a is affine in lambda
    ad_x = np.kron(X, eye) - np.kron(eye, X.T)
    ad_a = np.kron(setup.a.matrix, eye) - np.kron(eye, setup.a.matrix.T)
    return bool(np.all(pencil_kernel_dims(ad_x, ad_a, lams, setup.rank_tol)[0] == n))
