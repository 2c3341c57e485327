"""Root splitting, the anchored permutation, and the nilpotent regularity witness."""

import dataclasses

import numpy as np
import pytest

from suborbit import (LieElement, anchored_permutation, build_setup, build_x_pi,
                      root_split, sample_element, sigma, verify_regular_pencil)
from suborbit.cli import _partitions
from reference import complex_centralizer_dims, positive_roots, x_pi_template


@pytest.mark.parametrize("mult,nk,nm", [
    ((1, 1, 1), 0, 6),
    ((1, 1, 2), 2, 10),
    ((2, 2), 4, 8),
])
def test_root_split_sizes(mult, nk, nm):
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    rd = root_split(st)
    assert len(rd.roots) == st.n * (st.n - 1)
    assert len(rd.delta_k) == nk
    assert len(rd.delta_m) == nm
    # isotropy roots join equal anchor entries, transversal roots distinct ones
    diag = np.diag(st.a.matrix)
    for (j, k) in rd.delta_k:
        assert diag[j] == diag[k]
    for (j, k) in rd.delta_m:
        assert diag[j] != diag[k]


def test_permutation_identity_when_distinct():
    st = build_setup((1, 1, 1), (1.0, 2.0, 3.0))
    assert anchored_permutation(st) == (0, 1, 2)


def test_permutation_interleaves_repeats(setup_112):
    perm = anchored_permutation(setup_112)
    diag = np.diag(setup_112.a.matrix)
    reordered = diag[list(perm)]
    assert all(reordered[i] != reordered[i + 1] for i in range(3))


def test_permutation_rejected_when_dominant():
    st = build_setup((1, 3), (1.0, 2.0))
    with pytest.raises(ValueError, match="reduce"):
        anchored_permutation(st)
    assert root_split(st).pi is None


def test_x_pi_u2():
    st = build_setup((1, 1), (1.0, 2.0))
    xp = build_x_pi(root_split(st))
    assert np.allclose(xp.matrix, np.array([[0, 1], [-1, 0]]))


def test_x_pi_u3_identity_chain():
    st = build_setup((1, 1, 1), (1.0, 2.0, 3.0))
    xp = build_x_pi(root_split(st))
    expect = np.zeros((3, 3))
    expect[0, 1], expect[1, 0] = 1, -1
    expect[1, 2], expect[2, 1] = 1, -1
    assert np.allclose(xp.matrix, expect)


def test_x_pi_membership_and_symmetry(setup_112):
    rd = root_split(setup_112)
    xp = build_x_pi(rd)
    assert setup_112.m_tilde.contains(xp.coords, 1e-12)
    assert np.array_equal(sigma(xp).coords, xp.coords)


def test_x_pi_zero_scale_rejected(setup_112):
    rd = root_split(setup_112)
    with pytest.raises(ValueError, match="nonzero"):
        build_x_pi(rd, scales=[1.0, 0.0, 1.0])


def test_regular_pencil_on_witnesses(setup_112, setup_111):
    for st in (setup_112, setup_111):
        xp = build_x_pi(root_split(st))
        assert verify_regular_pencil(st, xp)


def test_regular_pencil_rejects_zero(setup_112):
    assert not verify_regular_pencil(setup_112, LieElement.zero(4))


def test_regular_pencil_scaled_witness(setup_112):
    rd = root_split(setup_112)
    xp = build_x_pi(rd, scales=[2.0, -1.0, 0.5])
    assert verify_regular_pencil(setup_112, xp)


def test_complex_template_witness(setup_112):
    rd = root_split(setup_112)
    c = {r: 1.0 + 0.5j for r in rd.pi}
    pos_m = sorted(r for r in set(rd.delta_m) & positive_roots(rd))
    d = {pos_m[0]: 0.3 - 0.2j, pos_m[-1]: 1.1j}
    M = x_pi_template(rd, c, d)
    assert verify_regular_pencil(setup_112, M)


def test_complex_template_validates_coefficients(setup_112):
    rd = root_split(setup_112)
    with pytest.raises(ValueError):
        x_pi_template(rd, {rd.pi[0]: 1.0}, {})  # incomplete simple system
    c = {r: 1.0 for r in rd.pi}
    c[rd.pi[0]] = 0.0
    with pytest.raises(ValueError, match="nonzero"):
        x_pi_template(rd, c, {})


def test_exhaustive_small_partitions_regular():
    # every partition with no dominant block up to rank five
    cases = [(1, 1), (1, 1, 1), (2, 2), (1, 1, 2), (1, 1, 1, 1),
             (1, 2, 2), (1, 1, 1, 2), (1, 1, 1, 1, 1)]
    for mult in cases:
        st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
        xp = build_x_pi(root_split(st))
        assert verify_regular_pencil(st, xp), mult


def test_u3_witness_passes_all_pencil_flags(setup_111):
    from suborbit import estimate_generic_dims, kronecker_test
    st = setup_111
    dims = estimate_generic_dims(st, "m", 25, seed=3)
    xp = build_x_pi(root_split(st))
    v = kronecker_test(st, xp, dims, seed=6)
    assert v.generic and v.singular_ok and v.pencil_ok and v.kronecker


def test_kronecker_agreement_with_regular_pencil(setup_112, dims_112):
    # the pencil-side flag of the full verdict agrees with the direct
    # vectorized computation on the same point
    from suborbit import kronecker_test
    rd = root_split(setup_112)
    xp = build_x_pi(rd)
    v = kronecker_test(setup_112, xp, dims_112["m"], seed=5)
    direct = verify_regular_pencil(setup_112, xp)
    if v.generic:
        assert v.pencil_ok == direct
    else:
        assert direct  # regularity of the witness holds regardless


NON_DOMINANT_N7 = [tuple(part) for n in range(2, 8) for part in _partitions(n)
                   if 2 * max(part) <= n]


@pytest.mark.parametrize("mult", NON_DOMINANT_N7,
                         ids=[",".join(map(str, m)) for m in NON_DOMINANT_N7])
def test_certificate_agrees_with_sweep_on_x_pi(mult):
    # the reference is independent of the certificate: the complex
    # centralizer dimension of x_pi + lambda*a on g, decided per lambda
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    xp = build_x_pi(root_split(st))
    rng = np.random.default_rng([0, 31])
    lams = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    dims = complex_centralizer_dims(xp.matrix + lams[:, None, None] * st.a.matrix, st.g)
    assert verify_regular_pencil(st, xp)
    assert list(dims) == [st.n] * 25


def _uncertified_inputs(st):
    perm = anchored_permutation(st)
    below = build_x_pi(root_split(st)).matrix.copy()
    below[perm[2], perm[0]] = 0.5
    generic = sample_element(st.m_tilde, np.random.default_rng(9), st.n).matrix
    return {"zero": np.zeros((st.n, st.n), dtype=complex),
            "x_pi plus an entry below the subdiagonal": below,
            "generic m_tilde element": generic}


@pytest.mark.parametrize("which", ["zero", "x_pi plus an entry below the subdiagonal",
                                   "generic m_tilde element"])
def test_uncertified_inputs_return_false(setup_112, which, svd_calls):
    # False means "no certificate", whatever the centralizer dimensions along
    # x + lambda*a: a generic m_tilde element has no Hessenberg pattern in the
    # anchored order
    X = _uncertified_inputs(setup_112)[which]
    svd_calls.clear()
    assert verify_regular_pencil(setup_112, X) is False
    assert svd_calls == []


def test_certificate_needs_an_anchored_permutation_and_a_diagonal_anchor(setup_112):
    # a tridiagonal x with nonzero subdiagonal, on a dominant setup
    st = build_setup((1, 3), (1.0, 2.0))
    chain = np.diag(np.ones(st.n - 1), -1) - np.diag(np.ones(st.n - 1), 1)
    assert not verify_regular_pencil(st, chain.astype(complex))
    # x_pi of (1,1,2) against an anchor with an off-diagonal entry
    xp = build_x_pi(root_split(setup_112)).matrix
    tilted = setup_112.a.matrix + 0.1 * chain
    st_tilted = dataclasses.replace(setup_112, a=LieElement.from_matrix(tilted))
    assert verify_regular_pencil(setup_112, xp)
    assert not verify_regular_pencil(st_tilted, xp)


NON_DOMINANT_N6 = [m for m in NON_DOMINANT_N7 if sum(m) <= 6]


@pytest.mark.parametrize("mult", NON_DOMINANT_N6,
                         ids=[",".join(map(str, m)) for m in NON_DOMINANT_N6])
def test_certificate_holds_on_the_template_class(mult, svd_calls):
    # nonzero simple coefficients plus a positive transversal tail pass; one
    # entry below the subdiagonal of the anchored order takes the pattern away
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    rd = root_split(st)
    rng = np.random.default_rng([*mult, 47])
    c = {r: complex(*rng.uniform(0.5, 2.0, 2) * rng.choice([-1, 1], 2))
         for r in rd.pi}
    pos_m = sorted(set(rd.delta_m) & positive_roots(rd))
    d = {r: complex(*rng.uniform(0.1, 1.0, 2)) for r in pos_m}
    M = x_pi_template(rd, c, d)
    svd_calls.clear()
    assert verify_regular_pencil(st, M)
    if st.n >= 3:
        perm = rd.permutation
        M[perm[2], perm[0]] = 0.5
        assert not verify_regular_pencil(st, M)
    assert svd_calls == []
