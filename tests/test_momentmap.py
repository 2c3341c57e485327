"""Moment map values, equivariance, differential, and the regularity criterion."""

import numpy as np
import pytest

from suborbit import (SINGULAR, LieElement, bracket, build_moment_data,
                      build_setup, build_witness_x0, centralizer,
                      estimate_generic_dims, form_matrix, is_in_R,
                      m_a_estimate, m_of_x, regular_in_kprime_test)
from suborbit import momentmap
from suborbit.generic import sample_coords
from suborbit.lie import ad_in_basis, coords_to_matrix, matrix_to_coords
from suborbit.pencil import singular_kernel_dim
from reference import (ad_a_inverse_apply, ad_a_on_m, conjugate, intersect,
                       moment_beta, moment_differential, sample_element, span,
                       unitary_exp)


@pytest.fixture(scope="module")
def data_112(setup_112):
    return build_moment_data(setup_112)


def test_hand_value_u2():
    st = build_setup((1, 1), (1.0, 3.0))
    data = build_moment_data(st)
    x = LieElement.from_matrix(np.array([[0, 1], [-1, 0]], dtype=complex))
    inv = ad_a_inverse_apply(st, x)
    assert np.allclose(inv.matrix, np.array([[0, 1j], [1j, 0]]) / 2.0, atol=1e-12)
    mu = moment_beta(data, x)
    assert np.allclose(mu.matrix, np.diag([-1j, 1j]) / 2.0, atol=1e-12)


def test_moment_of_zero(data_112):
    assert moment_beta(data_112, LieElement.zero(4)).norm() == 0.0


def test_beta_is_skew_and_nondegenerate(data_112):
    # the matrix of beta(y1, y2) = <y1, ad_a_inv * y2> in the basis of m
    m = data_112.space
    Ys = coords_to_matrix(m.basis, data_112.setup.n)
    beta = m.coeffs(matrix_to_coords(data_112.ad_a_inv * Ys).real)
    np.testing.assert_allclose(beta, -beta.T, rtol=0, atol=1e-10)
    sv = np.linalg.svd(beta, compute_uv=False)
    assert sv.min() > 1e-12


def test_equivariance(data_112, setup_112):
    st = setup_112
    rng = np.random.default_rng(1)
    for _ in range(3):
        xi = sample_element(st.k, rng, 4)
        U = unitary_exp(xi)
        x = sample_element(st.m, rng, 4)
        lhs = moment_beta(data_112, conjugate(U, x))
        rhs = conjugate(U, moment_beta(data_112, x))
        assert np.allclose(lhs.coords, rhs.coords, atol=1e-10 * max(1.0, x.norm() ** 2))


def test_moment_image_of_fixed_part_lands_in_antifixed(data_112, setup_112):
    st = setup_112
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = sample_element(st.m_tilde, rng, 4)
        mu = moment_beta(data_112, x)
        assert st.k_prime.contains(mu.coords, 1e-10)


def test_differential_exact_vs_finite_difference(data_112, setup_112):
    st = setup_112
    rng = np.random.default_rng(3)
    x0 = sample_element(st.m, rng, 4)
    h = 1e-6
    for _ in range(3):
        y = sample_element(st.m, rng, 4)
        d_exact = moment_differential(data_112, x0, y)
        xp = LieElement.from_coords(x0.coords + h * y.coords, 4)
        xm = LieElement.from_coords(x0.coords - h * y.coords, 4)
        fd = (moment_beta(data_112, xp).coords - moment_beta(data_112, xm).coords) / (2 * h)
        assert np.allclose(d_exact.coords, fd, atol=1e-6 * max(1.0, x0.norm() * y.norm()))


def test_tangent_image_split_at_witness(data_112, setup_112):
    # at the witness the differential has full semisimple rank and splits:
    # the fixed directions land in the antifixed isotropy part and conversely
    st = setup_112
    x0, _ = build_witness_x0(st, seed=0)

    def image_dim(space):
        cols = [moment_differential(data_112, x0,
                                    LieElement.from_coords(space.basis[:, j], 4)).coords
                for j in range(space.dim)]
        return span(np.stack(cols, axis=1), 16).dim

    dim_m = image_dim(st.m)
    dim_t = image_dim(st.m_tilde)
    dim_p = image_dim(st.m_prime)
    assert dim_m == st.k.dim - 1            # annihilator of the center in k
    assert dim_t == st.k_prime.dim - 1      # antifixed semisimple part
    assert dim_p == st.k_tilde.dim          # fixed part, no central directions
    for j in range(st.m_tilde.dim):
        img = moment_differential(data_112, x0,
                                  LieElement.from_coords(st.m_tilde.basis[:, j], 4))
        assert st.k_prime.contains(img.coords, 1e-9)
    for j in range(st.m_prime.dim):
        img = moment_differential(data_112, x0,
                                  LieElement.from_coords(st.m_prime.basis[:, j], 4))
        assert st.k_tilde.contains(img.coords, 1e-9)


def test_orbit_tangent_intersection_identity(data_112, setup_112, dims_112):
    # dim(ad x (k)  ^  ad a (m(x))) equals the direct formula behind the
    # moment route, at sampled generic points
    st = setup_112
    for i in range(3):
        x = sample_element(st.m, np.random.default_rng([30, i]), 4)
        W = span(ad_in_basis(x, st.k), 16)
        mx = m_of_x(st, x, "m")
        img_cols = [bracket(st.a, LieElement.from_coords(mx.basis[:, j], 4)).coords
                    for j in range(mx.dim)]
        Wperp = span(np.stack(img_cols, axis=1), 16)
        lhs = intersect(W, Wperp).dim
        mu = moment_beta(data_112, x)
        rhs = centralizer(mu, st.k).dim - st.z_of_g.dim
        assert lhs == rhs


def _intersection_dim(st, x):
    """dim(m(x) ^ ad_a^(-1) ad x (k)) from spans and an intersection, the
    reference for the singular-form kernel that m_a_estimate cross-checks."""
    mx = m_of_x(st, x, "m")
    W = span(ad_in_basis(x, st.k), st.ambient_dim)
    if W.dim == 0:
        return mx.dim
    pulled = st.m.basis @ np.linalg.solve(ad_a_on_m(st), st.m.coeffs(W.basis))
    return intersect(mx, span(pulled, st.ambient_dim)).dim


@pytest.mark.parametrize("mult", [(1, 1), (1, 1, 2), (1, 2, 3), (1, 1, 1, 1),
                                  (1, 1, 4), (2, 2, 2), (1, 1, 1, 1, 2)])
def test_singular_kernel_is_the_intersection(mult):
    # the kernel of the singular form on m(x) is {y in m(x) : [a, y] in
    # ad x (k)}; at generic points of m and of the fixed part its dimension
    # is the intersection dimension the moment route stands for
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    dims = estimate_generic_dims(st, "m", 25, seed=3)
    checked = 0
    for space in (st.m, st.m_tilde):
        for i in range(4):
            x = sample_element(space, np.random.default_rng([90, i]), st.n)
            if not is_in_R(st, x, "m", dims):
                continue
            kernel = singular_kernel_dim(st, form_matrix(st, x, SINGULAR))[0]
            assert kernel == _intersection_dim(st, x)
            checked += 1
    assert checked >= 4


def test_m_a_values(data_112, setup_112, dims_112):
    st = setup_112
    assert m_a_estimate(data_112, st.m, dims_112["m"], samples=20, seed=5) == 3
    assert m_a_estimate(data_112, st.m_tilde, dims_112["m"], samples=20, seed=5) == 3


def test_m_a_without_samples_finds_no_generic_sample(data_112, setup_112, dims_112):
    with pytest.raises(ValueError, match="no sample of V attained"):
        m_a_estimate(data_112, setup_112.m_tilde, dims_112["m"], samples=0, seed=5)


def test_m_a_regime_guard():
    # two equal blocks: the generic isotropy centralizer is a torus, not the
    # center, so the moment route must refuse
    st = build_setup((2, 2), (1.0, 2.0))
    dims = estimate_generic_dims(st, "m", 25, seed=3)
    data = build_moment_data(st)
    with pytest.raises(ValueError, match="reduce"):
        m_a_estimate(data, st.m_tilde, dims, samples=10, seed=1)


def test_regular_elements_in_antifixed_isotropy_part():
    for mult in [(1, 1, 2), (1, 2), (2, 2), (1, 1, 4)]:
        spectrum = tuple(float(j + 1) for j in range(len(mult)))
        st = build_setup(mult, spectrum)
        assert regular_in_kprime_test(st)


def test_regular_elements_single_block():
    # degenerate one-block setup: the isotropy algebra is everything and the
    # imaginary symmetric matrices still contain regular elements
    st = build_setup((4,), (1.0,))
    assert st.m.dim == 0
    assert regular_in_kprime_test(st)


def test_regular_element_test_takes_one_svd(svd_calls, setup_112):
    assert regular_in_kprime_test(setup_112)
    assert len(svd_calls) == 1


def test_regular_witness_blockwise_diagonal(setup_112):
    # an explicit imaginary diagonal with distinct entries is regular
    st = setup_112
    xi = LieElement.from_matrix(np.diag([1j, 2j, 3j, 4j]))
    assert st.k_prime.contains(xi.coords, 1e-12)
    assert centralizer(xi, st.k).dim == st.n


def test_minimal_defect_over_antifixed_part(data_112, setup_112, dims_112):
    # the minimum of dim k^alpha over the antifixed isotropy part, less the
    # center, reproduces the fixed-part moment estimate
    st = setup_112
    best = st.k.dim
    for i in range(25):
        xi = sample_element(st.k_prime, np.random.default_rng([80, i]), 4)
        best = min(best, centralizer(xi, st.k).dim)
    direct = best - st.z_of_g.dim
    routed = m_a_estimate(data_112, st.m_tilde, dims_112["m"], samples=20, seed=5)
    assert direct == routed == 3


def test_m_a_screen_makes_at_most_two_svd_calls(monkeypatch, svd_calls, data_112,
                                                 setup_112, dims_112):
    # q for every sample, then p for those whose q matched
    screens = []
    screen = momentmap.in_R_mask

    def counting_screen(*args):
        before = len(svd_calls)
        out = screen(*args)
        screens.append(len(svd_calls) - before)
        return out
    monkeypatch.setattr(momentmap, "in_R_mask", counting_screen)
    assert m_a_estimate(data_112, setup_112.m_tilde, dims_112["m"],
                        samples=20, seed=5) == 3
    assert len(screens) == 1 and screens[0] <= 2


def test_stacked_moment_map_matches_moment_beta(data_112, setup_112):
    for space in (setup_112.m, setup_112.m_tilde):
        C = sample_coords(space, 5, 43, 8)
        alphas = momentmap._moment_stack(data_112, C)
        assert alphas.shape == (16, 8)
        for i in range(8):
            ref = moment_beta(data_112, LieElement.from_coords(C[:, i], 4))
            np.testing.assert_allclose(alphas[:, i], ref.coords, rtol=0, atol=1e-13)
