"""Orbit context construction and the minimal-isotropy witness."""

import sys

import numpy as np
import pytest

from suborbit import (block_scalar, bracket, build_setup, build_witness_x0,
                      centralizer, full_space, sigma)
from suborbit import linalg
from suborbit.cli import _partitions
from suborbit.lie import (coordinate_entries, coords_to_matrix, matrix_to_coords,
                          sigma_signs)
from suborbit.linalg import Subspace, equal_spaces
from reference import (ad_a_inverse_apply, ad_a_on_m, complement, intersect,
                       sample_element, subalgebra_center)


def test_dimension_table_112(setup_112):
    st = setup_112
    assert (st.g.dim, st.k.dim, st.m.dim) == (16, 6, 10)
    assert (st.k_tilde.dim, st.k_prime.dim) == (1, 5)
    assert (st.m_tilde.dim, st.m_prime.dim) == (5, 5)


def test_dimension_table_11():
    st = build_setup((1, 1), (1.0, 2.0))
    assert (st.g.dim, st.k.dim, st.m.dim) == (4, 2, 2)
    assert (st.m_tilde.dim, st.m_prime.dim) == (1, 1)


def test_duplicate_spectrum_rejected():
    with pytest.raises(ValueError):
        build_setup((1, 1, 2), (1.0, 2.0, 2.0))


def test_inseparable_spectrum_rejected():
    # the smallest gap must clear a decade above the rank cutoff
    # RANK_RTOL * max(largest gap, |a|_F), and |a|_F must be finite
    for spectrum in [(1.0, 2.0, 2.0 + 1e-10), (1.0, 2.0, 2.0 + 1e-8),
                     (1e9, 1e9 + 1, 1e9 + 2), (1e300, -1e300, 0.0)]:
        with pytest.raises(ValueError, match="too close to separate"):
            build_setup((1, 1, 2), spectrum)
    assert build_setup((1, 1, 2), (1.0, 2.0, 2.0 + 1e-7)).m.dim == 10


def test_nonpositive_multiplicity_rejected():
    with pytest.raises(ValueError):
        build_setup((1, 0, 2), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        build_setup((1, -1), (1.0, 2.0))


def test_anchor_properties(setup_112):
    st = setup_112
    assert st.k_prime.contains(st.a.coords, 1e-12)
    assert st.z_of_k.contains(st.a.coords, 1e-12)
    assert np.allclose(sigma(st.a).coords, -st.a.coords)


def test_splittings_are_orthogonal(setup_112):
    st = setup_112
    pieces = [st.k_tilde, st.k_prime, st.m_tilde, st.m_prime]
    for i in range(4):
        for j in range(i + 1, 4):
            overlap = np.abs(pieces[i].basis.T @ pieces[j].basis)
            assert overlap.size == 0 or overlap.max() < 1e-10


def test_bracket_k_m_containment(setup_112):
    st = setup_112
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = sample_element(st.k, rng, st.n)
        x = sample_element(st.m, rng, st.n)
        assert st.m.contains(bracket(z, x).coords, 1e-10)


def test_ad_a_maps_tilde_to_prime_bijectively(setup_112):
    st = setup_112
    rng = np.random.default_rng(2)
    xt = sample_element(st.m_tilde, rng, st.n)
    image = bracket(st.a, xt)
    assert st.m_prime.contains(image.coords, 1e-10)
    xp = sample_element(st.m_prime, rng, st.n)
    assert st.m_tilde.contains(bracket(st.a, xp).coords, 1e-10)
    assert st.m_tilde.dim == st.m_prime.dim


def test_ad_a_inverse_roundtrip(setup_112):
    st = setup_112
    rng = np.random.default_rng(3)
    x = sample_element(st.m, rng, st.n)
    y = ad_a_inverse_apply(st, x)
    assert np.allclose(bracket(st.a, y).coords, x.coords, atol=1e-10)
    # applying the inverse twice matches the inverse of the squared operator
    twice = ad_a_inverse_apply(st, y)
    A = ad_a_on_m(st)
    sq = np.linalg.inv(A @ A)
    direct = st.m.basis @ (sq @ st.m.coeffs(x.coords))
    assert np.allclose(twice.coords, direct, atol=1e-10)


def test_block_scalar_validation(setup_112):
    with pytest.raises(ValueError):
        block_scalar(setup_112, (1.0, 2.0))
    b = block_scalar(setup_112, (1.0, 3.0, 7.0))
    assert np.allclose(b.matrix, np.diag([1j, 3j, 7j, 7j]))


@pytest.mark.parametrize("mult,expected", [
    ((1, 1, 2), 1),          # enough small blocks: isotropy collapses to the center
    ((1, 1, 4), 5),          # tail of the big block survives as a unitary algebra
    ((1, 2), 2),             # two blocks: torus plus tail algebra
    ((2, 2), 2),
    ((1, 1, 1, 1), 1),
    ((1, 2, 3), 1),
    ((1, 1, 3), 2),          # gap 3 - 1 - 1 = 1, so 1 + 1
])
def test_witness_dimensions(mult, expected):
    spectrum = tuple(float(j + 1) for j in range(len(mult)))
    st = build_setup(mult, spectrum)
    x0, rep = build_witness_x0(st, seed=0)
    assert rep.centralizer_dim == expected
    assert rep.expected_dim == expected
    assert st.m_tilde.contains(x0.coords, 1e-12)
    # real skew-symmetric matrix
    assert np.max(np.abs(x0.matrix.imag)) < 1e-13


def test_witness_deterministic(setup_114):
    x1, r1 = build_witness_x0(setup_114, seed=5)
    x2, r2 = build_witness_x0(setup_114, seed=5)
    assert np.array_equal(x1.coords, x2.coords)
    x3, _ = build_witness_x0(setup_114, seed=6)
    assert r1.centralizer_dim == r2.centralizer_dim == 5


def test_witness_unsorted_input_conjugates_back():
    st = build_setup((2, 1, 1), (3.0, 1.0, 2.0))
    x0, rep = build_witness_x0(st, seed=0)
    assert rep.block_order == (1, 2, 0)
    assert rep.centralizer_dim == 1
    assert st.m_tilde.contains(x0.coords, 1e-12)


def test_witness_chain_stage_dimension(setup_114):
    # the chain alone keeps a torus plus the tail unitary algebra
    _, rep = build_witness_x0(setup_114, seed=0)
    assert rep.chain_dim == 1 + (4 - 1) ** 2


@pytest.mark.parametrize("mult,expected", [
    ((2, 2, 3), 1),    # enough room before the tail: center only
    ((1, 2, 4), 2),    # gap 4 - 2 - 1 = 1 survives
    ((3, 4), 4),       # two blocks: 3 + (4 - 3)^2
])
def test_witness_dimensions_beyond_rank_six(mult, expected):
    spectrum = tuple(float(j + 1) for j in range(len(mult)))
    st = build_setup(mult, spectrum)
    _, rep = build_witness_x0(st, seed=0)
    assert rep.centralizer_dim == expected


def test_build_setup_memory_stays_small():
    # the setup holds n^2 x d coordinate bases and n^2 x n^2 adjoint matrices,
    # under 1 MB of traced allocations at n = 9; the bound is there to catch
    # any O(n^8) allocation, since one n^4 x n^4 array takes 344 MB at n = 9
    import tracemalloc
    build_setup((1, 2), (1.0, 2.0))            # warm the basis cache of small n
    tracemalloc.start()
    try:
        build_setup((3, 3, 3), (1.0, 2.0, 3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20


# -- the coordinate layout and the closed-form setup spaces ------------------


def _loop_entries(n):
    """The coordinate order as it is written out in the ``lie`` docstring."""
    upper = [(j, k) for j in range(n) for k in range(j + 1, n)]
    return upper + [(j, j) for j in range(n)] + upper


def _loop_basis_data(n):
    """The canonical basis built one matrix at a time."""
    mats, signs = [], []
    s = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            M = np.zeros((n, n), dtype=complex)
            M[j, k] = s
            M[k, j] = -s
            mats.append(M)
            signs.append(1.0)
    for j in range(n):
        M = np.zeros((n, n), dtype=complex)
        M[j, j] = 1j
        mats.append(M)
        signs.append(-1.0)
    for j in range(n):
        for k in range(j + 1, n):
            M = np.zeros((n, n), dtype=complex)
            M[j, k] = 1j * s
            M[k, j] = 1j * s
            mats.append(M)
            signs.append(-1.0)
    return np.stack(mats), np.asarray(signs)


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_data_matches_loop_construction(n):
    rows, cols = coordinate_entries(n)
    assert list(zip(rows.tolist(), cols.tolist())) == _loop_entries(n)
    B, signs = coords_to_matrix(np.eye(n * n), n), sigma_signs(n)
    B_ref, signs_ref = _loop_basis_data(n)
    assert B.dtype == B_ref.dtype and signs.dtype == signs_ref.dtype
    assert B.tobytes() == B_ref.tobytes()
    assert signs.tobytes() == signs_ref.tobytes()


@pytest.mark.parametrize("n", range(1, 7))
def test_matrix_to_coords_is_the_trace_form_on_the_loop_basis(n):
    # coordinate i of any complex M is -Tr(B_i M), on one matrix and on stacks
    B_ref, _ = _loop_basis_data(n)
    rng = np.random.default_rng(n)
    for shape in ((n, n), (4, n, n), (2, 3, n, n)):
        M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ref = -np.einsum("iab,...ba->i...", B_ref, M)
        got = matrix_to_coords(M)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-14)


def _svd_setup_spaces(mult, spectrum):
    """The setup spaces computed from their definitions with SVD machinery."""
    n = sum(mult)
    N = n * n
    a = block_scalar(mult, spectrum)
    g = full_space(N)
    r = n * (n - 1) // 2
    g_tilde = Subspace(N, np.eye(N)[:, :r])
    g_prime = Subspace(N, np.eye(N)[:, r:])
    k = centralizer(a, g)
    m = complement(k)
    z_of_k = subalgebra_center(k)
    spaces = {"g": g, "g_tilde": g_tilde, "g_prime": g_prime, "k": k, "m": m,
              "k_tilde": intersect(k, g_tilde), "k_prime": intersect(k, g_prime),
              "m_tilde": intersect(m, g_tilde), "m_prime": intersect(m, g_prime),
              "z_of_k": z_of_k, "z_of_g": subalgebra_center(g)}
    return spaces


SETUP_PARTITIONS = [p for n in range(2, 8) for p in _partitions(n)] + [(4, 4)]


@pytest.mark.parametrize("mult", SETUP_PARTITIONS, ids=str)
def test_closed_form_spaces_match_svd_construction(mult):
    spectrum = tuple(float(j + 1) for j in range(len(mult)))
    st = build_setup(mult, spectrum)
    spaces = _svd_setup_spaces(mult, spectrum)
    for name, ref in spaces.items():
        assert equal_spaces(getattr(st, name), ref), name
    # the centre of k has no fixed part, so its anti-fixed part is all of it
    assert intersect(spaces["z_of_k"], spaces["g_tilde"]).dim == 0
    assert equal_spaces(intersect(spaces["z_of_k"], spaces["g_prime"]), st.z_of_k)


@pytest.mark.parametrize("mult", [(1, 1), (1, 1, 2), (2, 3, 3), (1,) * 6])
def test_setup_spaces_are_unit_coordinate_columns(mult):
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    for name in ("g_tilde", "g_prime", "k", "m", "k_tilde", "k_prime",
                 "m_tilde", "m_prime"):
        B = getattr(st, name).basis
        assert np.all((B == 0.0) | (B == 1.0)), name
        assert np.all(B.sum(axis=0) == 1.0), name
        # distinct coordinates, in increasing order
        assert np.all(np.diff(np.argmax(B, axis=0)) > 0), name


def test_build_setup_computes_one_kernel_basis(monkeypatch):
    real = linalg.kernel_basis
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("suborbit") and getattr(module, "kernel_basis", None) is real:
            monkeypatch.setattr(module, "kernel_basis", counting)
    build_setup((1, 2, 3), (1.0, 2.0, 3.0))
    # the one centralizer that checks the k mask, on all of u(6): ad a on the
    # 22 rows of m, where it does not vanish
    assert calls == [(22, 36)]
