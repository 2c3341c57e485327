"""Bracket, pairing, involution, and subspace arithmetic."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from suborbit import (LieElement, RankAmbiguityWarning, Subspace, bracket,
                      centralizer, full_space, pairing, project, sigma,
                      subspace_residual, build_setup)
from suborbit.cli import _partitions
from suborbit.flows import build_flow
from suborbit.generic import (estimate_generic_dims, m_of_x, perturb_into_R,
                              reduction_data)
from suborbit.lie import (_GATHER_PLANS_MAX, _gather_plan, _sparse_ad_stack,
                          _spectral_singular_values, _structure_constants,
                          ad_in_basis, bracket_closure_residual, bracket_form,
                          centralizer_dim, centralizer_dims, coords_to_matrix,
                          matrix_to_coords, real_form_dim)
from suborbit.orbit import build_witness_x0
from suborbit.linalg import (AMBIGUITY_BAND, RANK_RTOL, equal_spaces, kernel_basis,
                             numeric_ranks)
from reference import (ad_stack, complement, complex_centralizer_dims, conjugate,
                       derived_span, intersect, matrix_stack, pairwise_brackets,
                       span, stacked_centralizer, subalgebra_center, sum_spaces,
                       trace_bracket_form, uncached_sparse_ad_stack, unitary_exp)


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
# the terms are of order 1e3 and cancel to round-off, which a skew-Hermitian
# check scaled by the result alone would reject
@example(np.full(9, 10.0), np.full(9, 9.0),
         np.array([-8.0, -6.0, 0.0, 9.5, 9.5, 0.0, 9.0, 0.0, 0.0]))
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


@pytest.mark.parametrize("make", [
    lambda: LieElement.from_matrix(np.array([[0.0, np.nan], [-np.nan, 0.0]])),
    lambda: LieElement.from_matrix(np.array([[0.0, np.inf], [-np.inf, 0.0]])),
    lambda: LieElement.from_matrix(np.array([[0.0, np.inf], [0.0, 0.0]])),
    lambda: LieElement.from_matrix(np.diag([1j * np.inf, 0.0])),
    lambda: LieElement.from_coords(np.array([0.0, 0.0, np.nan, 1.0]), 2),
], ids=["nan-pair", "inf-pair", "inf-entry", "inf-diagonal", "nan-coords"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_lie_element_rejects_non_finite_entries(make):
    # a scaled skew-Hermitian check must not pass NaN or inf: the defect of
    # an inf entry is inf, and so is the scale it would be measured against
    with pytest.raises(ValueError, match="finite"):
        make()


def test_coordinate_operations_build_no_matrix(setup_112):
    rng = np.random.default_rng(5)
    x, y = (LieElement.from_coords(rng.standard_normal(16), 4) for _ in range(2))
    for z in (x, y, x + y, x - y, -x, 2.5 * x, x * 2.5, sigma(x),
              project(x, setup_112.m), LieElement.zero(4)):
        assert "matrix" not in z.__dict__
    # the matrix is built once, on first read, and stays read-only
    M = x.matrix
    assert x.matrix is M and not M.flags.writeable
    np.testing.assert_array_equal(M, coords_to_matrix(x.coords, 4))


def test_arithmetic_that_overflows_is_rejected():
    x = LieElement.from_coords(np.full(4, 1e308), 2)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        x + x
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        1e10 * x


def test_from_matrix_keeps_its_input_bit_for_bit():
    # an element is held by its coordinates; from_matrix keeps the checked
    # input as its matrix, even where rebuilding it from them would round
    assert [f.name for f in dataclasses.fields(LieElement)] == ["n", "coords"]
    rng = np.random.default_rng(6)
    for n in (1, 2, 5):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = A - A.conj().T + 1e-14 * np.eye(n)
        x = LieElement.from_matrix(M)
        assert "matrix" in x.__dict__ and not x.matrix.flags.writeable
        assert x.matrix is not M and x.matrix.tobytes() == M.tobytes()
        assert not np.array_equal(coords_to_matrix(x.coords, n), M)


def test_one_conversion_at_n_64_stays_small():
    # a dense (n^2, n, n) complex basis would be 268 MB at n = 64
    n = 64
    v = np.random.default_rng(7).standard_normal(n * n)
    tracemalloc.start()
    try:
        w = matrix_to_coords(coords_to_matrix(v, n)).real
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
    np.testing.assert_allclose(w, v, rtol=0, atol=1e-15)


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


def test_subspace_rejects_column_norm_off_by_more_than_ortho_tol():
    # a squared norm of 1 + 5e-6 lies within a relative 1e-5 of 1, far
    # outside the absolute ORTHO_TOL = 1e-10 the check states
    B = np.eye(4)[:, :2]
    B[:, 0] *= np.sqrt(1 + 5e-6)
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(4, B)
    B = np.eye(4)[:, :2]
    B[0, 1] = np.nan
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(4, B)


def test_subspace_rejects_a_complex_basis():
    # orthonormal over C, but every subspace of the package is real
    B = np.eye(4)[:, :2] * np.exp(1j * np.array([0.3, 1.1]))
    with pytest.raises(ValueError, match="complex"):
        Subspace(4, B)
    with pytest.raises(ValueError, match="complex"):
        Subspace(4, np.eye(4).astype(complex))


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
        _close(matrix_to_coords(Ms), V)
    Ms = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    _close(matrix_to_coords(Ms), np.stack([matrix_to_coords(M) for M in Ms], axis=1))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ad_in_basis_real_mode_matches_reference(n):
    # on a random subspace and on the coordinate spaces g, k, m_tilde and z(k)
    # of a setup, against the per-column loop and the commutator stack
    mult = tuple(sorted((1, 1) + (2,) * ((n - 2) // 2) + (1,) * (n % 2)))
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    w = LieElement.from_coords(np.random.default_rng(n).standard_normal(n * n), n)
    for S in (_random_subspace(n, n + 2, seed=10 + n), st.g, st.k, st.m_tilde,
              st.z_of_k):
        for x in (w, st.a, w + st.a):
            A = ad_in_basis(x, S)
            assert not np.iscomplexobj(A)
            _close(A, _ad_reference(x.matrix, S).real)
            _close(A, ad_stack(x.matrix[None], S)[0])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_ad_in_basis_on_the_empty_subspace(n):
    empty = Subspace(n * n, np.zeros((n * n, 0)))
    w = LieElement.from_coords(np.ones(n * n), n)
    assert ad_in_basis(w, empty).shape == (n * n, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_structure_constants_equal_the_numeric_brackets(n):
    # T[i, l, c], coordinate i of [b_l, b_c], from the basis matrices
    N = n * n
    B = coords_to_matrix(np.eye(N), n)
    dense = matrix_to_coords((B[:, None] @ B[None] - B[None] @ B[:, None])
                               .reshape(N * N, n, n)).real.reshape(N, N, N)
    i, c, l, v = _structure_constants(n)
    T = np.zeros((N, N, N))
    for lt, vt in zip(l, v):
        np.add.at(T, (i, lt, c), vt)
    np.testing.assert_allclose(T, dense, rtol=0, atol=1e-15)
    assert np.array_equal(T != 0, np.abs(dense) > 1e-12)
    # a one-term entry repeats its index in the second slot with v = 0
    assert np.all(v[0] != 0) and np.all((v[1] != 0) | (l[1] == l[0]))


def test_structure_constants_stay_sparse_at_n_16():
    # a dense N^3 table would be 134 MB at N = 256
    tracemalloc.start()
    try:
        i, c, l, v = _structure_constants.__wrapped__(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(v) == 14880
    assert peak < 16 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"


def _stack_spaces():
    """(partition, name, space): g, k, m and their fixed parts on every
    partition with 2 <= n <= 6, on (3,3,3) and (1^8), and the reduced g0 and k0
    of (1,1,4), which carry a line."""
    parts = [(n,) for n in range(2, 7)]
    parts += [tuple(p) for n in range(2, 7) for p in _partitions(n)]
    for mult in parts + [(3, 3, 3), (1,) * 8]:
        st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
        for name in ("g", "k", "m", "g_tilde", "k_tilde", "m_tilde"):
            yield mult, name, getattr(st, name)
    st = build_setup((1, 1, 4), (1.0, 2.0, 3.0))
    dm, dmt = (estimate_generic_dims(st, s, 25, 0) for s in ("m", "m_tilde"))
    x, _ = perturb_into_R(st, build_witness_x0(st, 0)[0], dm, dmt, 0)
    red = reduction_data(st, x, dm, dmt, seed=0)
    for name in ("g0", "k0"):
        yield (1, 1, 4), name, getattr(red, name)


def test_sparse_ad_stack_equals_the_dense_stack():
    seen_lines = 0
    for mult, name, within in _stack_spaces():
        n = sum(mult)
        rng = np.random.default_rng(n)
        C = np.column_stack([rng.standard_normal((n * n, 3)),
                             within.basis @ rng.standard_normal(within.dim),
                             np.zeros(n * n)])
        # the last two columns alone reach only the rows of [within, within]
        for D in (C, C[:, 3:]):
            A, rows = _sparse_ad_stack(D, within.basis)
            dense = ad_stack(matrix_stack(D), within)
            assert A.shape == (D.shape[1], len(rows), within.dim)
            assert not np.any(np.delete(dense, rows, axis=1))
            err = np.max(np.abs(A - dense[:, rows]), axis=(1, 2), initial=0.0)
            assert np.all(err <= 1e-14 * np.linalg.norm(D, axis=0)), (mult, name)
        seen_lines += not np.array_equal(np.abs(within.basis), within.basis != 0)
    assert seen_lines == 2


def _gather_bases():
    """(label, basis) pairs: the ``_stack_spaces`` spaces, coordinate and
    random bases on random supports at n = 2..7, an empty support, and a slice
    m(x) and the flow columns V phi, whose rows on their support are no
    identity."""
    for mult, name, within in _stack_spaces():
        yield (mult, name), within.basis
    rng = np.random.default_rng(11)
    for n in range(2, 8):
        N = n * n
        for _ in range(4):
            mask = rng.random(N) < rng.uniform(0.1, 0.9)
            yield (n, "coordinate"), np.eye(N)[:, mask]
            yield (n, "random"), mask[:, None] * rng.standard_normal((N, 3))
        yield (n, "empty"), np.zeros((N, 0))
    st = build_setup((1, 2, 3), (1.0, 2.0, 3.0))
    x = LieElement.from_coords(st.m.basis @ rng.standard_normal(st.m.dim), 6)
    yield "m_of_x", m_of_x(st, x, "m").basis
    spec = build_flow(build_setup((2, 2, 2), (1.0, 2.0, 3.0)), (1.0, 3.0, 7.0))
    V = spec.setup.m_tilde.basis
    yield "V phi", V @ spec.phi_matrix


def test_planned_gather_equals_the_uncached_gather():
    """The plan changes no bit: the same ``A`` and ``rows`` as the gather that
    redoes its bookkeeping on every call, for a basis and for its support
    mask, on stacks of 3, 1 and 0 elements."""
    rng = np.random.default_rng(7)
    for label, basis in _gather_bases():
        N = len(basis)
        mask = basis.any(axis=1)
        C = rng.standard_normal((N, 3))
        for D in (C, C[:, :1], C[:, :0]):
            A, rows = _sparse_ad_stack(D, basis)
            A0, rows0 = uncached_sparse_ad_stack(D, basis)
            assert np.array_equal(A, A0) and np.array_equal(rows, rows0), label
            A, rows = _sparse_ad_stack(D, mask)
            A0, rows0 = uncached_sparse_ad_stack(D, np.eye(N)[:, mask])
            assert np.array_equal(A, A0) and np.array_equal(rows, rows0), label


def test_gather_plans_are_bounded_and_read_only():
    """More supports than the bound keep the cache at it; an evicted plan is
    rebuilt to the same bits, and no plan array can be written."""
    N = 9
    masks = (np.arange(1, _GATHER_PLANS_MAX + 40)[:, None] >> np.arange(N)) & 1 > 0
    C = np.random.default_rng(3).standard_normal((N, 2))
    _gather_plan.cache_clear()
    first = _sparse_ad_stack(C, masks[0])
    for mask in masks:
        _sparse_ad_stack(C, mask)
    info = _gather_plan.cache_info()
    assert info.maxsize == info.currsize == _GATHER_PLANS_MAX
    again = _sparse_ad_stack(C, masks[0])
    assert _gather_plan.cache_info().misses == info.misses + 1
    assert all(np.array_equal(p, q) for p, q in zip(first, again))
    for a in _gather_plan(N, masks[-1].tobytes()):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_centralizer_dims_edge_stacks_on_the_sparse_stack():
    st = build_setup((1, 2), (1.0, 2.0))
    for within in (st.k, st.m, Subspace(9, np.zeros((9, 0)))):
        assert _spectral_singular_values(np.zeros((9, 1)), within) is None
        dims, amb = centralizer_dims(np.zeros((9, 1)), within)
        assert dims.tolist() == [within.dim] and amb.tolist() == [False]
        dims, amb = centralizer_dims(np.zeros((9, 0)), within)
        assert dims.shape == amb.shape == (0,)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_bracket_form_matches_pairwise_trace_loop(n):
    rng = np.random.default_rng(40 + n)
    a = LieElement.from_matrix(np.diag(1j * np.arange(1.0, n + 1)))
    x = LieElement.from_coords(rng.standard_normal(n * n), n)
    coord_space = Subspace(n * n, np.eye(n * n)[:, n * n - n - 2:])
    ws, Ys = [], []
    for S in (_random_subspace(n, n + 3, seed=50 + n), coord_space):
        mats = coords_to_matrix(S.basis, n)
        for w in (x, x + 0.5 * a, a):
            F = bracket_form(w.coords, S.basis)
            assert not np.iscomplexobj(F)
            _close(F, _bracket_form_reference(w.matrix, mats).real)
            _close(F, trace_bracket_form(w.matrix, mats).real)
            assert np.all(np.diag(F) == 0) and np.array_equal(F, -F.T)
            ws.append(w)
            Ys.append(S.basis[:, :n + 2])
    # a P-stack of (w_p, Y_p) pairs gives the form of each pair
    C, Y = np.stack([w.coords for w in ws], axis=1), np.stack(Ys, axis=1)
    F = bracket_form(C, Y)
    assert F.shape == (len(ws), n + 2, n + 2)
    ref = trace_bracket_form(np.stack([w.matrix for w in ws]),
                             coords_to_matrix(Y.reshape(n * n, -1), n)
                             .reshape(len(ws), n + 2, n, n)).real
    _close(F, ref)
    for Fp, w, Yp in zip(F, ws, Ys):
        _close(Fp, bracket_form(w.coords, Yp))
    assert bracket_form(x.coords, np.zeros((n * n, 0))).shape == (0, 0)
    assert bracket_form(C, Y[:, :, :0]).shape == (len(ws), 0, 0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairwise_bracket_helpers_match_reference(n, setup_112):
    S = _random_subspace(n, 3, seed=60 + n)
    mats = [coords_to_matrix(S.basis[:, j], n) for j in range(S.dim)]
    vecs = np.stack([matrix_to_coords(mats[i] @ mats[j] - mats[j] @ mats[i]).real
                     for i in range(3) for j in range(i + 1, 3)], axis=1)
    _close(pairwise_brackets(S), vecs)
    assert equal_spaces(derived_span(S), span(vecs, n * n))
    worst = max(float(np.linalg.norm(c - S.project(c))) for c in vecs.T)
    assert bracket_closure_residual(S) == pytest.approx(worst, rel=1e-12, abs=1e-14)
    assert bracket_closure_residual(setup_112.k) < 1e-12
    # on coordinate spaces and a space with a line, subalgebras or not, against
    # the commutators of the reference
    st = build_setup((1,) * (n - 2) + (2,), tuple(float(j + 1) for j in range(n - 1)))
    line = Subspace(n * n, np.hstack([st.m_tilde.basis, st.z_of_g.basis]))
    for T in (st.g, st.k, st.m, st.m_tilde, st.z_of_k, line):
        C = pairwise_brackets(T)
        ref = float(np.max(np.linalg.norm(C - T.project(C), axis=0), initial=0.0))
        assert bracket_closure_residual(T) == pytest.approx(ref, rel=1e-12, abs=1e-14)


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
    ref_rank = numeric_ranks(s[None])[0][0]
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
    shifted = x + 0.4 * a
    cases = [
        (x, g), (a, g), (x, S), (a, S), (shifted, g), (shifted, S),
        (x, empty), (LieElement.zero(n), g), (LieElement.zero(n), S),
        (x, flagged), (LieElement.zero(n), flagged),
    ]
    for w, within in cases:
        c = centralizer(w, within)
        assert centralizer_dim(w, within) == (c.dim, c.ambiguous)
        # the kernel of the commutator stack of the reference
        ref = stacked_centralizer(w.coords[:, None], within)
        assert equal_spaces(c, ref) and c.ambiguous == ref.ambiguous
    # several generators, or a subalgebra's own basis, on the empty space
    assert stacked_centralizer(np.stack([x.coords, a.coords], axis=1), empty).dim == 0
    assert subalgebra_center(empty).dim == 0
    # the same decisions over stacks: so(n) and u(n) stacks (so(n): real
    # elements) take the spectral rule, the rest the stacked SVD
    so_n = Subspace(n * n, np.eye(n * n, real_form_dim(n)))
    xr = LieElement.from_coords(np.where(np.arange(n * n) < real_form_dim(n),
                                         x.coords, 0.0), n)
    zero = LieElement.zero(n)
    stacks = [
        ([x, a, zero, x * 1e-3], g), ([x, shifted, a], g),
        ([xr, zero, xr * 7.0], so_n), ([xr, x, a], so_n),
        ([x, a, zero], S), ([shifted, x], S),
        ([x, shifted], empty), ([x, zero], flagged), ([xr, zero], flagged),
    ]
    for ws, within in stacks:
        C = np.stack([w.coords for w in ws], axis=1)
        refs = [centralizer(w, within) for w in ws]
        dims, amb = centralizer_dims(C, within)
        assert dims.tolist() == [c.dim for c in refs]
        assert amb.tolist() == [c.ambiguous for c in refs]
    # complex coordinates would give a stack outside u(n)
    for stacked in (centralizer_dims, stacked_centralizer):
        with pytest.raises(ValueError, match="complex"):
            stacked(x.coords[:, None] + 1j * a.coords[:, None], g)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complex_centralizer_reference_matches_centralizer_dims(n):
    # on real inputs the complexified centralizer of the test reference has
    # the real dimension that centralizer_dims decides, on the spaces it
    # decides spectrally and on those it decides by the stacked SVD
    rng = np.random.default_rng(120 + n)
    mult = tuple(sorted((1, 1) + (2,) * ((n - 2) // 2) + (1,) * (n % 2)))
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    so_n = Subspace(n * n, np.eye(n * n, real_form_dim(n)))
    real_part = np.arange(n * n) < real_form_dim(n)
    C = np.column_stack([rng.standard_normal((n * n, 3)), st.a.coords,
                         np.zeros(n * n), st.m_tilde.basis @ np.ones(st.m_tilde.dim)])
    for within in (st.g, so_n, st.k, st.m, _random_subspace(n, n + 2, seed=130 + n)):
        D = C * real_part[:, None] if within is so_n else C
        dims = centralizer_dims(D, within)[0].tolist()
        assert complex_centralizer_dims(coords_to_matrix(D, n), within) == dims


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_spectral_singular_values_match_the_adjoint_svd(n):
    # ad x is normal in the orthonormal coordinates, so its singular values
    # are read from the spectrum of x; repeated eigenvalues included
    rng = np.random.default_rng(100 + n)
    g = full_space(n * n)
    g_tilde = Subspace(n * n, np.eye(n * n, real_form_dim(n)))
    mult = tuple(sorted((1, 1) + (2,) * ((n - 2) // 2) + (1,) * (n % 2)))
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    x0 = build_witness_x0(st, seed=n)[0]
    xr = LieElement.from_coords(np.where(np.arange(n * n) < real_form_dim(n),
                                         rng.standard_normal(n * n), 0.0), n)
    x = LieElement.from_coords(rng.standard_normal(n * n), n)
    for space, elems in ((g, [x, st.a, x0, xr, LieElement.zero(n)]),
                         (g_tilde, [xr, x0, LieElement.zero(n)])):
        s = _spectral_singular_values(np.stack([w.coords for w in elems], axis=1), space)
        assert s is not None and s.shape == (len(elems), space.dim)
        for si, w in zip(s, elems):
            ref = np.linalg.svd(ad_in_basis(w, space), compute_uv=False)
            assert np.max(np.abs(si - ref)) <= 1e-13 * ref.max()
    assert not np.any(x0.matrix.imag)
    # an x outside so(n) on so(n), or a space other than u(n) and so(n), has
    # no spectral rule
    assert _spectral_singular_values(x.coords[:, None], g_tilde) is None
    S = _random_subspace(n, n + 2, seed=110 + n)
    assert _spectral_singular_values(x.coords[:, None], S) is None


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


def test_centralizer_dims_flag_only_the_fragile_row():
    # one near-cutoff element in a stack warns once and flags its row alone,
    # on the spectral rule (u(n) in canonical coordinates) and on the stacked
    # SVD (u(n) in a rotated orthonormal basis, which the rule does not read)
    n = 3
    rng = np.random.default_rng(5)
    fragile = np.diag(1j * np.array([1.0, 1.0 + 2e-9, 2.0]))
    C = np.stack([rng.standard_normal(n * n),
                  LieElement.from_matrix(fragile).coords,
                  LieElement.from_matrix(np.diag(1j * np.array([1.0, 2.0, 4.0]))).coords],
                 axis=1)
    rotated = Subspace(n * n, np.linalg.qr(rng.standard_normal((n * n, n * n)))[0])
    for within in (full_space(n * n), rotated):
        assert (_spectral_singular_values(C, within) is None) == (
            within is rotated)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dims, amb = centralizer_dims(C, within)
        assert [w.category for w in caught] == [RankAmbiguityWarning]
        assert amb.tolist() == [False, True, False]
        # the 2e-9 gap lies below the cutoff 1e-9 |w| = 2.4e-9
        assert dims.tolist() == [3, 5, 3]


def test_numeric_ranks_read_the_largest_value_in_any_order():
    s = np.array([3.0, 2.0, 5e-9, 1e-12, 0.0])
    rows = np.stack([s, s[[4, 3, 2, 1, 0]], s[[2, 0, 4, 1, 3]]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ranks, ambiguous = numeric_ranks(rows)
    assert ranks.tolist() == [3, 3, 3] and ambiguous.tolist() == [True] * 3
    assert len(caught) == 3
    ranks, ambiguous = numeric_ranks(np.array([[0.0, 1e-8, 1.0], [1.0, 1e-8, 0.0]]))
    assert ranks.tolist() == [2, 2] and not ambiguous.any()


def test_numeric_ranks_floor_keeps_round_off_at_rank_zero():
    # a zero matrix and the round-off of one: without a floor the round-off
    # row is measured against its own noise and looks full rank
    s = np.array([[0.0, 0.0, 0.0], [3e-17, 2e-17, 1e-17]])
    assert numeric_ranks(s)[0].tolist() == [0, 3]
    ranks, ambiguous = numeric_ranks(s, floors=1.0)
    assert ranks.tolist() == [0, 0] and not ambiguous.any()
    assert numeric_ranks(s, floors=np.array([0.0, 1.0]))[0].tolist() == [0, 0]


# zero, values spread over a cutoff's decades, and values just inside and
# outside the ambiguity band of a unit largest value
_rank_values = st.one_of(
    st.just(0.0), st.floats(-13.0, 1.0).map(lambda e: 10.0 ** e),
    st.sampled_from([RANK_RTOL * AMBIGUITY_BAND * 0.99, RANK_RTOL * 1.01,
                     RANK_RTOL / AMBIGUITY_BAND * 1.01, RANK_RTOL * AMBIGUITY_BAND]))
_rank_floors = st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


def _ranks_both_ways(s, floors):
    """``(by_row, stacked, warnings by row, warnings stacked)``: each row
    decided as a one-row stack, and the whole stack decided at once."""
    with warnings.catch_warnings(record=True) as by_row_warnings:
        warnings.simplefilter("always")
        by_row = [numeric_ranks(s[i:i + 1], floors=floors[i]) for i in range(len(s))]
    with warnings.catch_warnings(record=True) as stacked_warnings:
        warnings.simplefilter("always")
        ranks, ambiguous = numeric_ranks(s, floors=floors)
    assert all(w.category is RankAmbiguityWarning
               for w in by_row_warnings + stacked_warnings)
    by_row = [(int(r[0]), bool(a[0])) for r, a in by_row]
    stacked = [(int(r), bool(a)) for r, a in zip(ranks, ambiguous)]
    return by_row, stacked, len(by_row_warnings), len(stacked_warnings)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.integers(0, 7), st.data())
def test_numeric_ranks_match_one_row_stacks(rows, width, data):
    s = np.array([[data.draw(_rank_values) for _ in range(width)]
                  for _ in range(rows)]).reshape(rows, width)
    floors = np.array([data.draw(_rank_floors) for _ in range(rows)])
    by_row, stacked, warned_by_row, warned_stacked = _ranks_both_ways(s, floors)
    assert stacked == by_row
    assert warned_stacked == warned_by_row == sum(a for _, a in by_row)


def test_numeric_ranks_flag_only_the_rows_inside_the_band():
    s = np.array([[1.0, 2e-9, 0.0], [1.0, 0.5, 1e-14], [0.0, 0.0, 0.0],
                  [1e-12, 1e-12, 0.0]])
    floors = np.array([0.0, 0.0, 0.0, 1e-3])
    by_row, stacked, warned_by_row, warned_stacked = _ranks_both_ways(s, floors)
    assert stacked == by_row == [(2, True), (2, False), (0, False), (0, True)]
    assert warned_stacked == warned_by_row == 2
    assert numeric_ranks(np.zeros((3, 0)), floors=1.0)[0].tolist() == [0, 0, 0]
