"""Generic dimensions, the slice m(x), stratum membership, and the reduction."""

import tracemalloc

import numpy as np
import pytest

from suborbit import (INCONCLUSIVE, AlgebraPair, LieElement, bracket,
                      build_setup, build_witness_x0, centralizer,
                      estimate_generic_dims, is_in_R, m_of_x, perturb_into_R,
                      reduction_data, run_case)
from suborbit import bridge, generic
from suborbit.generic import GenericPoint, sample_coords, seeded_normals
from suborbit.lie import ad_in_basis, coords_to_matrix
from suborbit.linalg import equal_spaces
from reference import (complement, derived_span, intersect, perturb_into_R_loop,
                       reduced_pair, reduction_spaces, sample_element, span,
                       sum_spaces)


def _slice_oracle(setup, x, space):
    """Independent construction: complement of the ad-image inside the space."""
    pair = setup.pair(space)
    img_vecs = ad_in_basis(x, pair.k)
    img = span(img_vecs, setup.ambient_dim)
    return complement(img, within=pair.m)


def test_m_of_x_at_zero(setup_112):
    z = LieElement.zero(4)
    assert m_of_x(setup_112, z, "m").dim == setup_112.m.dim


@pytest.mark.parametrize("mult,space,expected", [
    ((1, 1, 1), "m", 4),        # 6 - (3 - 1)
    ((1, 1, 2), "m", 5),        # 10 - (6 - 1)
    ((1, 1, 2), "m_tilde", 4),  # 5 - (1 - 0)
])
def test_slice_dims_against_oracle(mult, space, expected):
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    for i in range(10):
        x = sample_element(st.pair(space).m, np.random.default_rng([10, i]), st.n)
        got = m_of_x(st, x, space)
        oracle = _slice_oracle(st, x, space)
        assert got.dim == expected
        assert oracle.dim == expected
        assert equal_spaces(got, oracle, 1e-8)


def test_slice_direct_sum_with_ad_image(setup_112):
    st = setup_112
    x = sample_element(st.m, np.random.default_rng(11), 4)
    mx = m_of_x(st, x, "m")
    img = span(ad_in_basis(x, st.k), st.ambient_dim)
    assert mx.dim + img.dim == st.m.dim
    assert intersect(mx, img).dim == 0


@pytest.mark.parametrize("mult,qpr", [
    ((1, 1, 1), (3, 1, 2)),
    ((1, 1, 2), (4, 1, 3)),
    ((1, 1, 4), (8, 5, 3)),
    ((2, 2), (4, 2, 2)),   # torus witness gives p = 2, then q = 4 + (2 - 2)
])
def test_generic_dims(mult, qpr):
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    d = estimate_generic_dims(st, "m", 25, seed=3)
    assert (d.q, d.p, d.r) == qpr
    assert d.stabilized
    assert d.r == d.q - d.p


def test_generic_dims_m_tilde_112(setup_112, dims_112):
    d = dims_112["m_tilde"]
    assert (d.q, d.p, d.r) == (2, 0, 2)


def test_generic_dims_sample_floor(setup_112):
    with pytest.raises(ValueError):
        estimate_generic_dims(setup_112, "m", 5, seed=0)


def test_is_in_R(setup_112, dims_112):
    st = setup_112
    dm = dims_112["m"]
    assert not is_in_R(st, LieElement.zero(4), "m", dm)
    x0, _ = build_witness_x0(st, seed=0)
    assert is_in_R(st, x0, "m", dm)
    hits = 0
    for i in range(20):
        x = sample_element(st.m_tilde, np.random.default_rng([12, i]), 4)
        hits += is_in_R(st, x, "m", dm)
    assert hits >= 18  # generic samples land in the stratum


def test_semisimple_parts_agree_on_stratum(setup_112, dims_112):
    # derived span of the ambient centralizer equals that of the isotropy centralizer
    st = setup_112
    for i in range(5):
        x = sample_element(st.m, np.random.default_rng([13, i]), 4)
        if not is_in_R(st, x, "m", dims_112["m"]):
            continue
        gx = centralizer(x, st.g)
        kx = centralizer(x, st.k)
        assert derived_span(gx).dim == derived_span(kx).dim


def test_slice_commutes_with_isotropy_centralizer(setup_112, dims_112):
    # on the stratum, the slice and the isotropy centralizer commute elementwise
    st = setup_112
    x = sample_element(st.m, np.random.default_rng(14), 4)
    assert is_in_R(st, x, "m", dims_112["m"])
    mx = m_of_x(st, x, "m")
    kx = centralizer(x, st.k)
    worst = 0.0
    for i in range(mx.dim):
        yi = LieElement.from_coords(mx.basis[:, i], 4)
        for j in range(kx.dim):
            zj = LieElement.from_coords(kx.basis[:, j], 4)
            worst = max(worst, bracket(yi, zj).norm())
    assert worst < 1e-9


def test_q_insensitive_to_central_directions(setup_112):
    # enlarging the transversal by the isotropy center leaves q unchanged
    st = setup_112
    k_s = complement(st.z_of_k, within=st.k)
    enlarged = AlgebraPair("m_plus_z", st.g, k_s, sum_spaces(st.m, st.z_of_k))
    d_big = estimate_generic_dims(st, enlarged, 25, seed=4)
    d_m = estimate_generic_dims(st, "m", 25, seed=4)
    assert d_big.q == d_m.q


def test_fixed_slice_splits_off_antifixed_part(setup_112):
    # for x in the fixed part, the slice splits into its fixed part plus the
    # antifixed intersection, orthogonally
    st = setup_112
    for i in range(5):
        x = sample_element(st.m_tilde, np.random.default_rng([15, i]), 4)
        mx = m_of_x(st, x, "m")
        mtx = m_of_x(st, x, "m_tilde")
        inter = intersect(mx, st.m_prime)
        assert mtx.dim + inter.dim == mx.dim
        if mtx.dim and inter.dim:
            overlap = np.abs(mtx.basis.T @ inter.basis).max()
            assert overlap < 1e-9


def test_perturb_into_R_trivial(setup_112, dims_112):
    x0, _ = build_witness_x0(setup_112, seed=0)
    x, radius = perturb_into_R(setup_112, x0, dims_112["m"], dims_112["m_tilde"], seed=1)
    assert radius == 0.0
    assert np.array_equal(x.coords, x0.coords)


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("mult", [(1, 1, 4), (1, 2, 5)])
def test_perturb_into_R_searches_the_spheres_around_a_nongeneric_point(mult, seed):
    # the zero element is in no generic stratum, so the sphere search runs
    st = build_setup(mult, (1.0, 2.0, 3.0))
    dm, dmt = (estimate_generic_dims(st, s, 25, seed=3) for s in ("m", "m_tilde"))
    x0 = LieElement.zero(st.n)
    assert not is_in_R(st, x0, "m", dm)
    x, radius = perturb_into_R(st, x0, dm, dmt, seed=seed)
    assert is_in_R(st, x, "m", dm) and is_in_R(st, x, "m_tilde", dmt)
    assert st.m_tilde.contains(x.coords, 1e-12)
    assert radius == 1.0
    x_ref, radius_ref = perturb_into_R_loop(st, x0, dm, dmt, seed)
    assert radius_ref == radius
    np.testing.assert_allclose(x.coords, x_ref.coords, rtol=0, atol=1e-14)
    np.testing.assert_allclose(x.matrix, x_ref.matrix, rtol=0, atol=1e-14)


def test_reduction_trivial_for_112(setup_112, dims_112):
    # witness isotropy is the center, so the reduction returns everything
    st = setup_112
    x0, _ = build_witness_x0(st, seed=0)
    red = reduction_data(st, x0, dims_112["m"], dims_112["m_tilde"], seed=2)
    assert red.g0.dim == st.g.dim
    assert all(red.checks.values())


def test_reduction_114(setup_114, dims_114):
    st = setup_114
    x0, _ = build_witness_x0(st, seed=0)
    x0, radius = perturb_into_R(st, x0, dims_114["m"], dims_114["m_tilde"], seed=1)
    red = reduction_data(st, x0, dims_114["m"], dims_114["m_tilde"], seed=2)
    assert red.g0.dim == 17
    assert red.rank_g0 == 5
    assert red.z_g0.dim == 2
    assert red.rank_g0 - red.z_g0.dim == 3 == dims_114["m"].r
    assert red.dims_m0.r == 3
    assert all(red.checks.values()), red.checks


def test_reduction_rejects_nongeneric_anchor(setup_112, dims_112):
    with pytest.raises(ValueError, match="not generic"):
        reduction_data(setup_112, LieElement.zero(4), dims_112["m"],
                       dims_112["m_tilde"])


def _reduced_at_the_witness(mult, seed):
    """The setup, dims and ``GenericPoint`` anchor with which ``run_case``
    reaches ``reduction_data`` on spectrum 1..p."""
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    dm, dmt = (estimate_generic_dims(st, s, 25, seed) for s in ("m", "m_tilde"))
    x0, _ = build_witness_x0(st, seed)
    x, radius = perturb_into_R(st, x0, dm, dmt, seed)
    assert radius == 0.0
    return st, dm, dmt, GenericPoint(x, ("m", "m_tilde"))


REDUCED_SPACES = ("k_x0", "g0", "k0", "m0", "g0_tilde", "k0_tilde", "m0_tilde", "z_g0")


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("mult", [(1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 4),
                                  (1, 1, 6), (2, 2, 5), (1, 1, 1, 5)])
def test_reduction_read_off_the_zero_columns_equals_the_generic_route(mult, seed):
    st, dm, dmt, anchor = _reduced_at_the_witness(mult, seed)
    red = reduction_data(st, anchor, dm, dmt, seed=seed)
    ref = reduction_spaces(st, anchor.x, seed)
    for name in REDUCED_SPACES:
        assert equal_spaces(getattr(red, name), ref[name]), name
    assert red.rank_g0 == ref["rank_g0"]
    assert all(red.checks.values()), red.checks
    zero_columns = int(np.count_nonzero(~np.any(anchor.x.matrix, axis=0)))
    assert dm.p == 1 + zero_columns ** 2
    if mult == (1, 1, 2):
        # no zero column: k^x0 is the centre of u(n) and g0 all of u(n)
        assert zero_columns == 0
        assert (red.k_x0.dim, red.g0.dim, red.z_g0.dim) == (1, st.g.dim, 1)


def test_reduction_refuses_an_anchor_stated_generic_for_one_pair(setup_114, dims_114):
    x0, _ = build_witness_x0(setup_114, seed=0)
    with pytest.raises(ValueError, match="not for both pairs"):
        reduction_data(setup_114, GenericPoint(x0, "m"), dims_114["m"],
                       dims_114["m_tilde"])


def _generic_point_without_zero_columns(st, dims):
    x, radius = perturb_into_R(st, LieElement.zero(st.n), dims["m"],
                               dims["m_tilde"], seed=0)
    assert radius == 1.0 and np.all(np.any(x.matrix, axis=0))
    return x, radius


def test_reduction_refuses_a_generic_anchor_without_the_witness_zero_columns(
        setup_114, dims_114):
    # generic for both pairs, but its isotropy algebra is not u(W) + iR*I
    x, _ = _generic_point_without_zero_columns(setup_114, dims_114)
    with pytest.raises(ValueError, match="0 zero columns"):
        reduction_data(setup_114, GenericPoint(x, ("m", "m_tilde")),
                       dims_114["m"], dims_114["m_tilde"])


def test_reduction_refuses_zero_columns_in_more_than_one_block(setup_114, dims_114):
    # stated generic, so only the zero-column check can refuse it
    anchor = GenericPoint(LieElement.zero(setup_114.n), ("m", "m_tilde"))
    with pytest.raises(ValueError, match="more than one block"):
        reduction_data(setup_114, anchor, dims_114["m"], dims_114["m_tilde"])


def test_run_case_is_inconclusive_when_the_reduction_refuses_its_anchor(
        monkeypatch, setup_114, dims_114):
    point = _generic_point_without_zero_columns(setup_114, dims_114)
    monkeypatch.setattr(bridge, "perturb_into_R", lambda *args, **kwargs: point)
    case = run_case((1, 1, 4), (1.0, 2.0, 3.0), seed=0)
    assert case.conclusion == INCONCLUSIVE
    assert case.reduction is None
    assert any(note.startswith("verification aborted: the anchor has 0 zero columns")
               for note in case.notes), case.notes


def test_reduction_at_1_1_12_stays_within_100_mb():
    st, dm, dmt, anchor = _reduced_at_the_witness((1, 1, 12), 42)
    tracemalloc.start()
    try:
        red = reduction_data(st, anchor, dm, dmt, seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(red.checks.values())
    assert peak <= 100 * 2 ** 20, f"{peak / 2 ** 20:.0f} MB"


def test_reduced_pair_full_machinery(setup_114, dims_114):
    # run the pencil and completeness machinery on the concrete reduced
    # subspaces, independently of the equivalent-partition recursion
    from suborbit import build_family, completeness_check, estimate_generic_dims
    from suborbit.linalg import kernel_dim
    from suborbit.pencil import SINGULAR, form_matrix, genuine_eigenvalues
    st = setup_114
    x0, _ = build_witness_x0(st, seed=0)
    x0, _ = perturb_into_R(st, x0, dims_114["m"], dims_114["m_tilde"], seed=1)
    red = reduction_data(st, x0, dims_114["m"], dims_114["m_tilde"], seed=2)
    pair0 = reduced_pair(red, "m0")
    pair0t = reduced_pair(red, "m0_tilde")
    dims0 = red.dims_m0
    dims0t = estimate_generic_dims(st, pair0t, 25, seed=3)
    assert (dims0.q, dims0.p, dims0.r) == (5, 2, 3)
    assert (dims0t.q, dims0t.p, dims0t.r) == (2, 0, 2)

    # a lies in k0, so as on the full pair the pencil on the reduced slice
    # m0(x) carries the centralizer pencil of x + lambda*a in g0: it is
    # Kronecker when its singular form has kernel r and it has no finite
    # eigenvalue
    witness = None
    for i in range(10):
        x = sample_element(red.m0_tilde, np.random.default_rng([70, i]), 6)
        if not is_in_R(st, x, pair0, dims0):
            continue
        mx = m_of_x(st, x, pair0)
        F_a = form_matrix(st, x, SINGULAR, pair0, mx)
        si_dim, _ = kernel_dim(F_a, floor=float(np.linalg.norm(st.a.matrix)))
        if si_dim != dims0.r:
            continue
        count, _, _ = genuine_eigenvalues(form_matrix(st, x, 0.0, pair0, mx), F_a,
                                          dims0.r, np.random.default_rng([4, 23]))
        if count == 0:
            witness = x
            break
    assert witness is not None

    fam0 = build_family(st, pair0)
    rep = completeness_check(st, fam0, witness, dims0)
    assert rep.span_dim == rep.target_dim == 4
    assert rep.complete and rep.isotropy_residual < 1e-9
    fam0t = build_family(st, pair0t)
    rept = completeness_check(st, fam0t, witness, dims0t)
    assert rept.span_dim == rept.target_dim == 3
    assert rept.complete


# -- stacked rank decisions ---------------------------------------------------

def test_sample_coords_draw_the_sample_element_streams(setup_112):
    st = setup_112
    general = span(np.random.default_rng(16).standard_normal((16, 5)), 16)
    for space in (st.m, st.m_tilde, general):
        C = sample_coords(space, 3, 7, 6)
        Ms = coords_to_matrix(C, st.n)
        for i in range(6):
            x = sample_element(space, np.random.default_rng([3, 7, i]), st.n)
            assert np.array_equal(C[:, i], x.coords)
            assert np.array_equal(Ms[i], x.matrix)


def test_sample_coords_of_no_samples_is_an_empty_stack(setup_112, dims_112):
    for space in ("m", "m_tilde"):
        C = sample_coords(setup_112.pair(space).m, 0, 53, 0)
        assert C.shape == (setup_112.ambient_dim, 0)
        assert generic.in_R_mask(setup_112, C, space, dims_112[space]).shape == (0,)


@pytest.mark.parametrize("mult", [(1, 1, 2), (2, 2), (1, 2, 3), (2, 2, 2), (1, 1, 4)])
def test_generic_dims_match_the_per_sample_loop(mult):
    # reference: one sample and one centralizer basis at a time
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    for space in ("m", "m_tilde"):
        pair = st.pair(space)
        qs, ps = [], []
        for i in range(25):
            x = sample_element(pair.m, np.random.default_rng([0, 7, i]), st.n)
            qs.append(centralizer(x, pair.g).dim)
            ps.append(centralizer(x, pair.k).dim)
        hit = np.mean((np.array(qs) == min(qs)) & (np.array(ps) == min(ps)))
        d = estimate_generic_dims(st, space, 25, seed=0)
        assert (d.q, d.p, d.stabilized) == (min(qs), min(ps), hit >= 0.8)


@pytest.mark.parametrize("samples", [10, 25])
def test_generic_dims_make_one_svd_call_per_space(svd_calls, samples):
    # q on u(n) or so(n) takes the spectral rule; p is one stacked SVD over k,
    # whose rows for points of m are those of m, since [m, k] lies in m
    st = build_setup((2, 2, 2), (1.0, 2.0, 3.0))
    for space in ("m", "m_tilde"):
        pair = st.pair(space)
        svd_calls.clear()
        estimate_generic_dims(st, space, samples, seed=0)
        assert svd_calls == [(samples, pair.m.dim, pair.k.dim)]


def test_seeded_normals_equal_fresh_draws_as_sizes_grow_and_shrink(monkeypatch):
    monkeypatch.setattr(generic, "_NORMALS", {})
    for size in (3, 10, 4, 25, 1, 0, 25, 26):
        for key in ((911, 5, 0), (911, 5, 1)):
            z = seeded_normals(key, size)
            assert np.array_equal(z, np.random.default_rng(key).standard_normal(size))
            assert not z.flags.writeable
            with pytest.raises(ValueError):
                z[...] = 0.0
    # the oldest keys give way beyond the cap; later draws are still exact
    monkeypatch.setattr(generic, "_NORMALS_MAX_KEYS", 2)
    for i in range(5):
        z = seeded_normals((912, i), 6)
        assert np.array_equal(z, np.random.default_rng((912, i)).standard_normal(6))
    assert list(generic._NORMALS) == [(912, 3), (912, 4)]
