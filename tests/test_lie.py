"""Bracket, pairing, involution, and subspace arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from suborbit import (LieElement, RankAmbiguityWarning, Subspace, bracket,
                      centralizer, complement, full_space, intersect, pairing,
                      project, sigma, span, subspace_residual, sum_spaces,
                      build_setup)
from suborbit.lie import (ad_in_basis, bracket_closure_residual, bracket_form,
                          centralizer_dim, conjugate, coords_to_matrix,
                          derived_span, matrices_to_coords, matrix_to_coords,
                          unitary_exp)
from suborbit.linalg import equal_spaces, kernel_basis, numeric_rank


def _elem(coords, n):
    return LieElement.from_coords(np.asarray(coords, dtype=float), n)


coords3 = arrays(np.float64, 9, elements=st.floats(-10, 10))


def test_bracket_hand_value():
    # [E12 - E21, i(E12 + E21)] = 2i(E11 - E22) in u(2)
    X = LieElement.from_matrix(np.array([[0, 1], [-1, 0]], dtype=complex))
    Y = LieElement.from_matrix(np.array([[0, 1j], [1j, 0]]))
    Z = bracket(X, Y)
    assert np.allclose(Z.matrix, np.diag([2j, -2j]))


def test_bracket_self_is_zero():
    X = LieElement.from_matrix(np.array([[1j, 2 + 1j], [-2 + 1j, -3j]]))
    assert bracket(X, X).norm() == 0.0


def test_bracket_dimension_mismatch():
    X = LieElement.from_matrix(np.diag([1j, -1j]))
    Y = LieElement.from_matrix(np.diag([1j, -1j, 0]))
    with pytest.raises(ValueError):
        bracket(X, Y)


@settings(max_examples=60, deadline=None)
@given(coords3, coords3, coords3)
def test_bracket_jacobi_identity(a, b, c):
    X, Y, Z = _elem(a, 3), _elem(b, 3), _elem(c, 3)
    J = bracket(bracket(X, Y), Z) + bracket(bracket(Y, Z), X) + bracket(bracket(Z, X), Y)
    scale = max(1.0, X.norm() * Y.norm() * Z.norm())
    assert J.norm() <= 1e-10 * scale


@settings(max_examples=60, deadline=None)
@given(coords3, coords3, coords3)
def test_pairing_ad_invariance(a, b, c):
    X, Y, Z = _elem(a, 3), _elem(b, 3), _elem(c, 3)
    val = pairing(bracket(Z, X), Y) + pairing(X, bracket(Z, Y))
    scale = max(1.0, X.norm() * Y.norm() * Z.norm())
    assert abs(val) <= 1e-10 * scale


def test_pairing_hand_values():
    D = LieElement.from_matrix(np.diag([1j, -1j]))
    assert pairing(D, D) == pytest.approx(2.0, abs=1e-14)
    X = LieElement.from_matrix(np.array([[0, 1], [-1, 0]], dtype=complex))
    Y = LieElement.from_matrix(np.array([[0, 1j], [1j, 0]]))
    assert pairing(X, Y) == pytest.approx(0.0, abs=1e-14)


def test_pairing_positive_definite():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = _elem(rng.standard_normal(16), 4)
        assert pairing(x, x) == pytest.approx(x.norm() ** 2, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(coords3)
def test_sigma_involution_and_isometry(a):
    X = _elem(a, 3)
    assert np.array_equal(sigma(sigma(X)).coords, X.coords)
    assert pairing(sigma(X), sigma(X)) == pytest.approx(pairing(X, X), rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(coords3, coords3)
def test_sigma_is_automorphism(a, b):
    X, Y = _elem(a, 3), _elem(b, 3)
    lhs = sigma(bracket(X, Y))
    rhs = bracket(sigma(X), sigma(Y))
    assert np.allclose(lhs.coords, rhs.coords, atol=1e-10 * max(1.0, X.norm() * Y.norm()))


def test_sigma_fixed_and_antifixed():
    X = LieElement.from_matrix(np.array([[0, 1], [-1, 0]], dtype=complex))
    assert np.array_equal(sigma(X).coords, X.coords)
    I2 = LieElement.from_matrix(1j * np.eye(2))
    assert np.allclose(sigma(I2).matrix, -1j * np.eye(2))


def test_coords_roundtrip_exact():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5):
        v = rng.standard_normal(n * n)
        x = LieElement.from_coords(v, n)
        assert np.max(np.abs(matrix_to_coords(x.matrix).real - v)) < 1e-12
        y = LieElement.from_matrix(x.matrix)
        assert np.max(np.abs(y.coords - v)) < 1e-12


def test_from_matrix_rejects_non_skew():
    with pytest.raises(ValueError):
        LieElement.from_matrix(np.array([[1.0, 0], [0, 1.0]]))


def test_subspace_intersection_self(setup_112):
    k = setup_112.k
    again = intersect(k, k)
    assert again.dim == k.dim
    assert subspace_residual(again, k) < 1e-10


def test_complement_dimensions(setup_112):
    # complement of k in u(4) has dimension 16 - 6 = 10
    m = complement(setup_112.k)
    assert m.dim == 10
    assert subspace_residual(m, setup_112.m) < 1e-10


def test_projection_idempotent(setup_112):
    rng = np.random.default_rng(2)
    x = LieElement.from_coords(rng.standard_normal(16), 4)
    p1 = project(x, setup_112.m)
    p2 = project(p1, setup_112.m)
    assert np.allclose(p1.coords, p2.coords, atol=1e-13)
    # projection is pairing-orthogonal: the residual is orthogonal to the space
    resid = x - p1
    assert abs(pairing(resid, p1)) < 1e-10


def test_sum_and_intersection_dims(setup_112):
    st = setup_112
    total = sum_spaces(st.k_tilde, st.k_prime)
    assert total.dim == st.k.dim
    assert intersect(st.k_tilde, st.k_prime).dim == 0


def test_centralizer_of_anchor_block_sizes():
    st = build_setup((1, 1, 2), (1.0, 2.0, 3.0))
    c = centralizer(st.a, st.g)
    assert c.dim == 6
    zero = LieElement.zero(4)
    assert centralizer(zero, st.g).dim == 16


def test_centralizer_witness_112(setup_112):
    from suborbit import build_witness_x0
    x0, rep = build_witness_x0(setup_112, seed=0)
    assert centralizer(x0, setup_112.k).dim == 1


def test_complex_centralizer_dimension(setup_112):
    # shifted complex line: dim over C of the centralizer in the complexified algebra
    st = setup_112
    rng = np.random.default_rng(3)
    x = LieElement.from_coords(st.m.basis @ rng.standard_normal(10), 4)
    w = x.matrix + (0.3 + 0.7j) * st.a.matrix
    c = centralizer(w, st.g)
    assert c.is_complex
    assert c.dim == 4


def test_rank_ambiguity_warning():
    # a map with a singular value sitting exactly at the threshold scale
    A = np.diag([1.0, 1e-9])
    with pytest.warns(RankAmbiguityWarning):
        span(A)


def test_unitary_conjugation_preserves_pairing(setup_112):
    rng = np.random.default_rng(4)
    xi = LieElement.from_coords(setup_112.k.basis @ rng.standard_normal(6), 4)
    U = unitary_exp(xi)
    assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-12)
    x = LieElement.from_coords(rng.standard_normal(16), 4)
    y = LieElement.from_coords(rng.standard_normal(16), 4)
    assert pairing(conjugate(U, x), conjugate(U, y)) == pytest.approx(
        pairing(x, y), rel=1e-10, abs=1e-10)


def test_empty_and_full_subspaces():
    S = Subspace(4, np.zeros((4, 0)))
    assert S.dim == 0
    assert complement(S).dim == 4
    F = full_space(4)
    assert intersect(F, F).dim == 4
    assert complement(F).dim == 0


@pytest.mark.filterwarnings("ignore::suborbit.RankAmbiguityWarning")
@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (9, 3), elements=st.floats(-5, 5)),
       arrays(np.float64, (9, 2), elements=st.floats(-5, 5)))
def test_subspace_dimension_laws(A, B):
    S = span(A, 9)
    T = span(B, 9)
    inside = complement(T, within=S)           # part of S orthogonal to T
    assert inside.dim + intersect(S, T).dim <= S.dim + 1  # rank slack only
    total = sum_spaces(S, T)
    assert total.dim <= S.dim + T.dim
    assert total.dim >= max(S.dim, T.dim)
    # complement within the ambient space always restores the full dimension
    assert S.dim + complement(S).dim == 9


# -- the stacked-basis kernel against the per-column reference ---------------

STACK_TOL = 1e-13


def _close(A, B):
    assert A.shape == B.shape
    scale = max(1.0, float(np.max(np.abs(B), initial=0.0)))
    assert float(np.max(np.abs(A - B), initial=0.0)) <= STACK_TOL * scale


def _random_subspace(n, d, seed):
    return span(np.random.default_rng(seed).standard_normal((n * n, d)), n * n)


def _ad_reference(W, within):
    n = W.shape[0]
    cols = [matrix_to_coords(W @ Y - Y @ W)
            for Y in (coords_to_matrix(within.basis[:, j], n)
                      for j in range(within.dim))]
    return np.stack(cols, axis=1)


def _bracket_form_reference(w, mats):
    d = len(mats)
    F = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            F[i, j] = np.trace(w @ (mats[i] @ mats[j] - mats[j] @ mats[i]))
    return F - F.T


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_coordinate_stack_helpers_match_per_column_loops(n):
    rng = np.random.default_rng(n)
    for V in (rng.standard_normal((n * n, 7)),
              rng.standard_normal((n * n, 7)) + 1j * rng.standard_normal((n * n, 7))):
        Ms = coords_to_matrix(V, n)
        _close(Ms, np.stack([coords_to_matrix(V[:, j], n) for j in range(7)]))
        _close(matrices_to_coords(Ms), V)
    Ms = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    _close(matrices_to_coords(Ms), np.stack([matrix_to_coords(M) for M in Ms], axis=1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ad_in_basis_real_mode_matches_reference(n):
    S = _random_subspace(n, n + 2, seed=10 + n)
    w = LieElement.from_coords(np.random.default_rng(n).standard_normal(n * n), n)
    A = ad_in_basis(w, S)
    assert not np.iscomplexobj(A)
    _close(A, _ad_reference(w.matrix, S).real)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ad_in_basis_complex_mode_matches_reference(n):
    rng = np.random.default_rng(20 + n)
    S = _random_subspace(n, n + 2, seed=30 + n)
    x = LieElement.from_coords(rng.standard_normal(n * n), n)
    a = LieElement.from_matrix(np.diag(1j * np.arange(1.0, n + 1)))
    shifted = x.matrix + (0.3 - 1.7j) * a.matrix
    A = ad_in_basis(shifted, S)
    assert np.iscomplexobj(A)
    _close(A, _ad_reference(shifted, S))
    # a skew-Hermitian w on a complexified subspace also stays complex
    SC = S.complexify()
    A = ad_in_basis(x, SC)
    assert np.iscomplexobj(A)
    _close(A, _ad_reference(x.matrix, SC))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ad_in_basis_on_the_empty_subspace(n):
    empty = Subspace(n * n, np.zeros((n * n, 0)))
    w = LieElement.from_coords(np.ones(n * n), n)
    assert ad_in_basis(w, empty).shape == (n * n, 0)
    assert ad_in_basis(w.matrix + 1j * w.matrix, empty).shape == (n * n, 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bracket_form_matches_pairwise_trace_loop(n):
    rng = np.random.default_rng(40 + n)
    S = _random_subspace(n, n + 3, seed=50 + n)
    mats = coords_to_matrix(S.basis, n)
    x = LieElement.from_coords(rng.standard_normal(n * n), n)
    a = np.diag(1j * np.arange(1.0, n + 1))
    for w in (x.matrix, x.matrix + (0.5 + 2.0j) * a):
        F = bracket_form(w, mats)
        _close(F, _bracket_form_reference(w, mats))
        assert np.all(np.diag(F) == 0)
    # real mode: the form of a skew-Hermitian w on a real subspace is real
    assert np.max(np.abs(bracket_form(x.matrix, mats).imag)) < STACK_TOL
    # complexified subspace
    SC = Subspace(n * n, S.basis @ np.diag(np.exp(1j * np.arange(S.dim))))
    mats = coords_to_matrix(SC.basis, n)
    _close(bracket_form(x.matrix, mats), _bracket_form_reference(x.matrix, mats))
    assert bracket_form(x.matrix, mats[:0]).shape == (0, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairwise_bracket_helpers_match_reference(n, setup_112):
    S = _random_subspace(n, 3, seed=60 + n)
    mats = [coords_to_matrix(S.basis[:, j], n) for j in range(S.dim)]
    vecs = np.stack([matrix_to_coords(mats[i] @ mats[j] - mats[j] @ mats[i]).real
                     for i in range(3) for j in range(i + 1, 3)], axis=1)
    assert equal_spaces(derived_span(S), span(vecs, n * n))
    worst = max(float(np.linalg.norm(c - S.project(c))) for c in vecs.T)
    assert bracket_closure_residual(S) == pytest.approx(worst, rel=1e-12, abs=1e-14)
    assert bracket_closure_residual(setup_112.k) < 1e-12


# -- kernel_basis: thin SVD for tall inputs -----------------------------------

@pytest.mark.parametrize("rows, cols, rank", [(40, 9, 5), (4, 11, 3), (10, 10, 6)])
@pytest.mark.parametrize("field", [float, complex])
def test_kernel_basis_tall_wide_square(rows, cols, rank, field):
    rng = np.random.default_rng(rows * cols + rank)
    X = rng.standard_normal((rows, rank))
    Y = rng.standard_normal((rank, cols))
    if field is complex:
        X = X + 1j * rng.standard_normal((rows, rank))
    A = X @ Y
    K, amb = kernel_basis(A)
    assert not amb
    assert np.max(np.abs(A @ K)) < 1e-10 * np.linalg.norm(A)
    assert np.allclose(K.conj().T @ K, np.eye(K.shape[1]), atol=1e-12)
    # reference: the null space read off the full decomposition
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    ref_rank, _ = numeric_rank(s)
    K_ref = vh[ref_rank:].conj().T
    assert K.shape == K_ref.shape == (cols, cols - rank)
    assert np.allclose(K @ K.conj().T, K_ref @ K_ref.conj().T, atol=1e-10)


# -- centralizer_dim: the rank decision of centralizer without its basis -----

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_centralizer_dim_matches_centralizer(n):
    rng = np.random.default_rng(80 + n)
    g = full_space(n * n)
    S = _random_subspace(n, n + 2, seed=90 + n)
    empty = Subspace(n * n, np.zeros((n * n, 0)))
    flagged = Subspace(n * n, np.eye(n * n), ambiguous=True)
    x = LieElement.from_coords(rng.standard_normal(n * n), n)
    # repeated anchor entries give centralizers larger than the rank
    a = LieElement.from_matrix(np.diag(1j * np.repeat([1.0, 2.0, 3.0], n)[:n]))
    cases = [
        (x, g), (a, g), (x, S), (a, S),
        (x.matrix + (0.4 - 1.1j) * a.matrix, g),
        (x.matrix + (0.4 - 1.1j) * a.matrix, S),
        (x, g.complexify()), (a, S.complexify()),
        (x, empty), (x.matrix + 1j * a.matrix, empty),
        (LieElement.zero(n), g), (LieElement.zero(n), S),
        (x, flagged), (LieElement.zero(n), flagged),
    ]
    for w, within in cases:
        c = centralizer(w, within)
        assert centralizer_dim(w, within) == (c.dim, c.ambiguous)


def test_centralizer_dim_carries_a_fragile_rank_decision():
    # a gap of 2e-9 between eigenvalues sits within a decade of the cutoff
    n = 3
    w = LieElement.from_matrix(np.diag(1j * np.array([1.0, 1.0 + 2e-9, 2.0])))
    g = full_space(n * n)
    with pytest.warns(RankAmbiguityWarning):
        c = centralizer(w, g)
    with pytest.warns(RankAmbiguityWarning):
        assert centralizer_dim(w, g) == (c.dim, True)
    assert c.ambiguous
