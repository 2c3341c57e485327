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

That certificate is structural.  In the anchored order the witness is
tridiagonal with a nonzero subdiagonal and the anchor is diagonal, so every
x + lambda*a, lambda in C, is an unreduced Hessenberg matrix: deleting its
first row and last column leaves a triangular matrix with nonzero diagonal,
so x + lambda*a - mu has rank at least n - 1 for every mu, x + lambda*a is
nonderogatory, and its complex centralizer has dimension exactly n.
``verify_regular_pencil`` checks this pattern and nothing else: it makes no
rank decision, and an input without the pattern is left uncertified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import LieElement
from .linalg import RANK_RTOL
from .orbit import OrbitSetup


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


def verify_regular_pencil(setup: OrbitSetup, x) -> bool:
    """Whether x + lambda*a is certified nonderogatory for every lambda in C.

    ``x`` may be an algebra element or a plain complex matrix.  True means
    x + lambda*a is an unreduced Hessenberg matrix for every lambda, so its
    complex centralizer has dimension exactly n on the whole line: the anchor
    is exactly diagonal and, in the anchored permutation order, X has exact
    zeros below its subdiagonal and every subdiagonal entry above
    ``linalg.RANK_RTOL`` times its Frobenius norm.  False means only that no
    certificate exists (zero, a generic matrix, a setup with no anchored
    permutation); it does not say that some x + lambda*a is derogatory.
    """
    X = x.matrix if isinstance(x, LieElement) else np.asarray(x, dtype=complex)
    A = setup.a.matrix
    if np.any(A - np.diag(np.diag(A))):
        return False
    try:
        perm = list(anchored_permutation(setup))
    except ValueError:
        return False
    H = X[np.ix_(perm, perm)]
    cut = RANK_RTOL * np.linalg.norm(H)
    return not np.any(np.tril(H, -2)) and bool(np.all(np.abs(np.diag(H, -1)) > cut))
