"""Pencil forms, kernel identities, Kronecker verdicts, and the standalone analyzer."""

import numpy as np
import pytest

from suborbit import (LieElement, bracket, build_setup, build_x_pi, centralizer,
                      form_matrix, kronecker_test, m_of_x, pairing,
                      pencil_isotropy_check, root_split, verify_regular_pencil)
from suborbit import linalg
from suborbit.cli import _partitions
from suborbit.generic import estimate_generic_dims, is_in_R
from suborbit.lie import centralizer_dims
from suborbit.linalg import RankAmbiguityWarning, kernel_dim
from suborbit.pencil import SINGULAR, genuine_eigenvalues
from reference import (complex_centralizer_dims, conjugate, sample_element, span,
                       unitary_exp)


def _lambdas(seed, stream, count):
    """0, 1, -1, i, -i and ``count`` area-uniform draws from the annulus
    0.5 <= |z| <= 2, from the generator keyed by ``[seed, stream]``."""
    rng = np.random.default_rng([seed, stream])
    r = np.sqrt(rng.uniform(0.5 ** 2, 2.0 ** 2, count))
    th = rng.uniform(0.0, 2.0 * np.pi, count)
    return np.concatenate([[0.0, 1.0, -1.0, 1j, -1j], r * np.exp(1j * th)])


def test_form_is_skew_and_matches_definition(setup_112):
    st = setup_112
    x = sample_element(st.m, np.random.default_rng(0), 4)
    mx = m_of_x(st, x, "m")
    F = form_matrix(st, x, 0.7, domain=mx)
    assert np.max(np.abs(F + F.T)) < 1e-12
    # spot check one entry against the definition
    y1 = LieElement.from_coords(mx.basis[:, 0], 4)
    y2 = LieElement.from_coords(mx.basis[:, 1], 4)
    shifted = LieElement.from_coords(x.coords + 0.7 * st.a.coords, 4)
    assert F[0, 1] == pytest.approx(-pairing(shifted, bracket(y1, y2)), abs=1e-12)


@pytest.mark.parametrize("lam", [0.8 - 0.3j, np.complex128(1.0)])
def test_form_matrix_rejects_a_complex_parameter(setup_112, lam):
    # the complexified form is F(0) + lam*F(SINGULAR), never a cast of lam
    x = sample_element(setup_112.m, np.random.default_rng(0), 4)
    with pytest.raises(ValueError, match="real"):
        form_matrix(setup_112, x, lam)


def test_form_at_zero_parameter_is_canonical(setup_112):
    st = setup_112
    x = sample_element(st.m, np.random.default_rng(1), 4)
    mx = m_of_x(st, x, "m")
    F0 = form_matrix(st, x, 0.0, domain=mx)
    for i in range(mx.dim):
        for j in range(mx.dim):
            yi = LieElement.from_coords(mx.basis[:, i], 4)
            yj = LieElement.from_coords(mx.basis[:, j], 4)
            assert F0[i, j] == pytest.approx(-pairing(x, bracket(yi, yj)), abs=1e-12)


def test_canonical_kernel_dimension_is_r(setup_112, dims_112):
    st = setup_112
    hits = 0
    for i in range(20):
        x = sample_element(st.m, np.random.default_rng([20, i]), 4)
        F0 = form_matrix(st, x, 0.0)
        kd, _ = kernel_dim(F0,
                           floor=float(np.linalg.norm(x.matrix)))
        hits += kd == dims_112["m"].r
    assert hits >= 19


def test_form_kernel_matches_projected_centralizer(setup_112, dims_112):
    # dimension of the shifted-form kernel equals that of the complexified
    # centralizer projected onto the transversal space: the projection has
    # kernel the centralizer in k, so its image has dimension dim g^w - dim k^w
    st = setup_112
    x = sample_element(st.m_tilde, np.random.default_rng(2), 4)
    lam = 0.8 - 0.3j
    mx = m_of_x(st, x, "m")
    F = form_matrix(st, x, 0.0, domain=mx) + lam * form_matrix(st, x, SINGULAR, domain=mx)
    w = x.matrix + lam * st.a.matrix
    kd, _ = kernel_dim(F, floor=float(np.linalg.norm(w)))
    gw, kw = [complex_centralizer_dims(w[None], space)[0]
              for space in (st.g, st.k)]
    assert kd == gw - kw == dims_112["m"].r


def test_kronecker_verdict_at_fixed_points(setup_112, dims_112):
    st = setup_112
    hits = 0
    for i in range(10):
        x = sample_element(st.m_tilde, np.random.default_rng([21, i]), 4)
        v = kronecker_test(st, x, dims_112["m"], seed=5)
        if v.kronecker:
            hits += 1
            assert v.singular_kernel_dim == dims_112["m"].r
            assert v.finite_eigenvalues == 0 and v.projection_gap > 1e-5
            # at a Kronecker point every form of the pencil on m(x) has the
            # generic kernel r, at any lambda
            mx = v.point.slice
            F_x = form_matrix(st, x, 0.0, domain=mx)
            F_a = form_matrix(st, x, SINGULAR, domain=mx)
            form_kernels = {
                kernel_dim(F_x + lam * F_a,
                           floor=float(np.linalg.norm(x.matrix + lam * st.a.matrix)))[0]
                for lam in _lambdas(5, 23, 10)}
            assert form_kernels == {dims_112["m"].r}
    assert hits >= 9


def test_kronecker_skips_nongeneric(setup_112, dims_112):
    v = kronecker_test(setup_112, LieElement.zero(4), dims_112["m"])
    assert not v.generic and not v.kronecker
    assert v.finite_eigenvalues == 0 and v.projection_gap is None


def test_kronecker_invariant_under_isotropy(setup_112, dims_112):
    st = setup_112
    rng = np.random.default_rng(3)
    x = sample_element(st.m_tilde, rng, 4)
    v1 = kronecker_test(st, x, dims_112["m"], seed=6)
    for _ in range(2):
        xi = sample_element(st.k, rng, 4)
        U = unitary_exp(xi)
        y = conjugate(U, x)
        v2 = kronecker_test(st, y, dims_112["m"], seed=6)
        assert v2.kronecker == v1.kronecker


def test_verdict_serialization_roundtrip(setup_112, dims_112):
    import json
    x = sample_element(setup_112.m_tilde, np.random.default_rng(4), 4)
    v = kronecker_test(setup_112, x, dims_112["m"], seed=7)
    d = v.to_dict()
    json.dumps(d)
    assert d["kronecker"] == v.kronecker


def _rand_skew(d, rng):
    A = rng.standard_normal((d, d))
    return A - A.T


def test_analyzer_rejects_dependent_pair():
    rng = np.random.default_rng(5)
    B = _rand_skew(4, rng)
    with pytest.raises(ValueError, match="dependent"):
        pencil_isotropy_check(B, 2.0 * B)


def test_analyzer_rejects_non_skew():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="skew"):
        pencil_isotropy_check(rng.standard_normal((3, 3)), _rand_skew(3, rng))


def test_analyzer_odd_dimension_generic():
    rng = np.random.default_rng(7)
    rep = pencil_isotropy_check(_rand_skew(3, rng), _rand_skew(3, rng))
    assert rep.r_min == 1
    assert rep.isotropic and rep.isotropy_residual < 1e-9
    assert rep.kernel_sum_dim == 2
    assert rep.maximal and rep.complex_constant_rank


def test_analyzer_zero_block_pencil():
    # forms supported on complementary blocks: every pencil member has the
    # same kernel, so the sum of kernels is that common kernel
    B1 = np.zeros((5, 5))
    B1[0, 1], B1[1, 0] = 1, -1
    B2 = np.zeros((5, 5))
    B2[2, 3], B2[3, 2] = 1, -1
    rep = pencil_isotropy_check(B1, B2)
    assert rep.r_min == 1
    assert rep.kernel_sum_dim in (1, 3)
    assert rep.isotropic


def test_analyzer_matches_kronecker_route(setup_112, dims_112):
    # the two generating forms at a Kronecker point give a maximal verdict
    st = setup_112
    for i in range(10):
        x = sample_element(st.m_tilde, np.random.default_rng([22, i]), 4)
        v = kronecker_test(st, x, dims_112["m"], seed=8)
        if not v.kronecker:
            continue
        mx = m_of_x(st, x, "m")
        B1 = form_matrix(st, x, 0.0, domain=mx)
        B2 = form_matrix(st, x, 1.0, domain=mx)
        rep = pencil_isotropy_check(B1, B2, seed=9)
        assert rep.maximal
        assert rep.complex_constant_rank
        assert rep.r_min == dims_112["m"].r
        break
    else:
        pytest.fail("no Kronecker point found")


@pytest.mark.parametrize("d", [3, 5, 7])
def test_analyzer_agreement_on_random_odd_pairs(d):
    rng = np.random.default_rng(100 + d)
    for trial in range(10):
        rep = pencil_isotropy_check(_rand_skew(d, rng), _rand_skew(d, rng),
                                    seed=trial)
        if rep.r_min > 0:
            assert rep.maximal == rep.complex_constant_rank


def test_canonical_kernel_equals_projected_centralizer_subspace(setup_112, dims_112):
    # not just dimensions: the kernel vectors of the canonical form span the
    # projection of the ambient centralizer onto the transversal space
    from suborbit.linalg import equal_spaces
    from suborbit.linalg import kernel_basis
    st = setup_112
    x = sample_element(st.m, np.random.default_rng(60), 4)
    assert centralizer(x, st.g).dim == dims_112["m"].q
    mx = m_of_x(st, x, "m")
    F0 = form_matrix(st, x, 0.0, domain=mx)
    K, _ = kernel_basis(F0, floor=float(np.linalg.norm(x.matrix)))
    kernel_space = span(mx.basis @ K, st.ambient_dim)
    gx = centralizer(x, st.g)
    projected = span(st.m.basis @ (st.m.basis.T @ gx.basis), st.ambient_dim)
    assert equal_spaces(kernel_space, projected, 1e-8)


def _generating_forms_rank(st, x):
    """Rank of the pair F(0), F(0) + F(singular) of pencil forms on m(x), as
    flattened vectors, against the scale |x| + |a|."""
    mx = m_of_x(st, x, "m")
    F0 = form_matrix(st, x, 0.0, domain=mx)
    F1 = F0 + form_matrix(st, x, SINGULAR, domain=mx)
    stacked = np.stack([F0.ravel(), F1.ravel()])
    floor = float(np.linalg.norm(x.matrix) + np.linalg.norm(st.a.matrix))
    return linalg.numeric_rank(np.linalg.svd(stacked.astype(complex), compute_uv=False),
                               floor=floor)[0]


def test_dependent_forms_on_symmetric_case():
    # on a two-equal-block setup the slice at a fixed-part point is a
    # commutative subspace, so every pencil form vanishes there and the two
    # generators are a dependent pair; the pencil is still Kronecker
    from suborbit import estimate_generic_dims
    st = build_setup((2, 2), (1.0, 2.0))
    dm = estimate_generic_dims(st, "m", 25, seed=3)
    x = sample_element(st.m_tilde, np.random.default_rng(1), 4)
    v = kronecker_test(st, x, dm, seed=2)
    assert v.generic and v.kronecker
    assert _generating_forms_rank(st, x) < 2


def test_forms_independent_generically(setup_112, dims_112):
    x = sample_element(setup_112.m_tilde, np.random.default_rng(1), 4)
    v = kronecker_test(setup_112, x, dims_112["m"], seed=2)
    assert v.generic
    assert _generating_forms_rank(setup_112, x) == 2


def _adjoint_kernel_dims(st, x, lams, space="m"):
    """Kernel dimensions of ad(x + lam*a) on the complexified algebra of the
    pair, one reference centralizer dimension per parameter."""
    mats = x.matrix + lams[:, None, None] * st.a.matrix
    return np.array(complex_centralizer_dims(mats, st.pair(space).g))


def _kronecker_reference(st, x, dims, lams, space):
    """Per-parameter sweep of the complexified centralizer, with the singular
    form's kernel for lambda at infinity."""
    domain = m_of_x(st, x, space)
    F_si = form_matrix(st, x, SINGULAR, space, domain)
    si_dim, _ = kernel_dim(F_si, floor=float(np.linalg.norm(st.a.matrix)))
    cdims = _adjoint_kernel_dims(st, x, lams, space)
    kron = si_dim == dims.r and all(cdims == dims.q)
    return si_dim, cdims, kron


@pytest.mark.parametrize("mult, space", [((1, 1, 2), "m"), ((1, 1, 2), "m_tilde"),
                                         ((2, 2, 2), "m"), ((1, 1, 4), "m"),
                                         ((1, 1, 4), "m_tilde")])
def test_affine_lambda_sweep_matches_per_lambda_reference(mult, space):
    # the complexified reference sweep agrees with the package's centralizer
    # dimensions at the real parameters, and on m the Kronecker verdict
    # agrees with the sweep
    st = build_setup(mult, (1.0, 2.0, 3.0))
    dims = estimate_generic_dims(st, space, 25, seed=3)
    verdicts = set()
    for i in range(3):
        x = sample_element(st.pair(space).m, np.random.default_rng([70, i]), st.n)
        assert is_in_R(st, x, space, dims)
        lams = _lambdas(i, 23, 8)
        si_dim, cdims, kron = _kronecker_reference(st, x, dims, lams, space)
        real = lams.imag == 0
        C = x.coords[:, None] + lams[real].real * st.a.coords[:, None]
        assert list(centralizer_dims(C, st.pair(space).g)[0]) == list(
            cdims[real])
        if space == "m":
            v = kronecker_test(st, x, dims, seed=i)
            assert v.singular_kernel_dim == si_dim
            assert v.kronecker == kron
        verdicts.add(kron)
    # both verdicts are covered: these points pass on m and fail on m_tilde
    assert verdicts == {space == "m"}


N7 = [tuple(part) for n in range(2, 8) for part in _partitions(n)]


@pytest.mark.parametrize("mult", N7, ids=[",".join(map(str, m)) for m in N7])
def test_slice_pencil_carries_the_centralizer_pencil(mult):
    # dim ker ad(x + lam*a) on gl(n) = p + dim ker(F_x + lam*F_a) on m(x), at
    # every swept lambda; and the verdict on the slice agrees with the adjoint
    # sweep wherever that sweep sees q
    st = build_setup(mult, tuple(float(j + 1) for j in range(len(mult))))
    dims = estimate_generic_dims(st, "m", 25, seed=0)
    # the fixed-part points the Kronecker search of run_case draws
    points = (sample_element(st.m_tilde, np.random.default_rng([53, i]), st.n)
              for i in range(12))
    x = next(x for x in points if is_in_R(st, x, "m", dims))
    lams = _lambdas(0, 23, 20)
    mx = m_of_x(st, x, "m")
    F_x = form_matrix(st, x, 0.0, domain=mx)
    F_a = form_matrix(st, x, SINGULAR, domain=mx)
    floors = np.linalg.norm(x.matrix + lams[:, None, None] * st.a.matrix, axis=(1, 2))
    slice_dims = np.array([kernel_dim(F_x + lam * F_a, floor=fl)[0]
                           for lam, fl in zip(lams, floors)])
    adjoint_dims = _adjoint_kernel_dims(st, x, lams)
    assert list(dims.p + slice_dims) == list(adjoint_dims)
    v = kronecker_test(st, x, dims, seed=0)
    swept = v.singular_ok and all(adjoint_dims == dims.q)
    assert v.kronecker == swept


def _planted_forms(F_x, F_a, lam0):
    """F_x + lam*F_a direct sum (lam - lam0)*J, J the 2 x 2 symplectic form,
    mixed by an orthogonal congruence: the planted block adds the eigenvalue
    lam0 twice and leaves the kernel at infinity alone."""
    s = F_x.shape[0]
    J = np.array([[0.0, 1.0], [-1.0, 0.0]]) * np.linalg.norm(F_a) / np.sqrt(s)
    Gx = np.zeros((s + 2, s + 2), dtype=complex)
    Ga = np.zeros((s + 2, s + 2))
    Gx[:s, :s], Ga[:s, :s] = F_x, F_a
    Gx[s:, s:], Ga[s:, s:] = -lam0 * J, J
    Q = np.linalg.qr(np.random.default_rng(1).standard_normal((s + 2, s + 2)))[0]
    return Q.T @ Gx @ Q, Q.T @ Ga @ Q


def _kronecker_point(st, dims):
    for i in range(10):
        x = sample_element(st.m_tilde, np.random.default_rng([21, i]), st.n)
        if kronecker_test(st, x, dims, seed=5).kronecker:
            return x
    pytest.fail("no Kronecker point found")


@pytest.mark.parametrize("lam0", [0.1, 5.0, 3 + 4j])
def test_planted_eigenvalue_breaks_the_pencil(monkeypatch, setup_112, dims_112, lam0):
    # these lam0 lie outside the annulus 0.5 <= |z| <= 2 a sampled sweep draws from
    from suborbit import pencil
    st, dims = setup_112, dims_112["m"]
    x = _kronecker_point(st, dims)
    mx = m_of_x(st, x, "m")
    G_x, G_a = _planted_forms(form_matrix(st, x, 0.0, domain=mx),
                              form_matrix(st, x, SINGULAR, domain=mx), lam0)
    count, gap, ambiguous = genuine_eigenvalues(G_x, G_a, dims.r,
                                                np.random.default_rng(0))
    assert (count, ambiguous) == (2, False) and gap < 1e-8
    # kronecker_test sees the planted forms in place of the ones on m(x)
    real = pencil.form_matrix
    monkeypatch.setattr(pencil, "form_matrix", lambda setup, x, lam, *args: (
        _planted_forms(real(setup, x, 0.0, *args), real(setup, x, SINGULAR, *args),
                       lam0)[0 if lam != SINGULAR else 1]))
    v = kronecker_test(st, x, dims, seed=5)
    assert v.generic and v.singular_ok
    assert not v.pencil_ok and not v.kronecker and v.finite_eigenvalues == 2


def _kronecker_block(eps):
    """The skew pencil [[0, L(lam)], [-L(lam)^T, 0]] with L(lam) the eps x
    (eps + 1) Kronecker block: kernel dimension 1 at every lambda."""
    L0 = np.eye(eps, eps + 1, 1)
    L1 = np.eye(eps, eps + 1)
    s = 2 * eps + 1

    def skew(L):
        F = np.zeros((s, s))
        F[:eps, eps:], F[eps:, :eps] = L, -L.T
        return F
    return skew(L0), skew(L1)


def test_gap_in_the_ambiguous_band_warns_and_does_not_decide(monkeypatch, setup_112,
                                                             dims_112):
    # a planted eigenvalue 0.5 on a Kronecker block, with F_x moved by 1e-6:
    # no eigenvalue survives, but the two projections nearly agree at 0.5
    from dataclasses import replace

    from suborbit import pencil
    K_x, K_a = _kronecker_block(2)
    G_x, G_a = _planted_forms(K_x, K_a, 0.5)
    E = np.random.default_rng(3).standard_normal(G_x.shape)
    G_x = (G_x + 1e-6 * (E - E.T)).real
    with pytest.warns(RankAmbiguityWarning):
        count, gap, ambiguous = genuine_eigenvalues(G_x, G_a, 1, np.random.default_rng(0))
    assert ambiguous and count == 0 and 1e-8 < gap < 1e-5
    # in kronecker_test it leaves the pencil undecided, so no Kronecker point
    st = setup_112
    x = _kronecker_point(st, dims_112["m"])
    monkeypatch.setattr(pencil, "form_matrix",
                        lambda setup, x, lam, *args: G_a if lam == SINGULAR else G_x)
    with pytest.warns(RankAmbiguityWarning):
        v = kronecker_test(st, x, replace(dims_112["m"], r=1), seed=5)
    assert v.singular_ok and v.ambiguous and v.finite_eigenvalues == 0
    assert not v.pencil_ok and not v.kronecker


def test_same_seed_gives_an_identical_report():
    import json

    from suborbit import run_case
    a, b = (json.dumps(run_case((1, 2, 3), (1.0, 2.0, 3.0), seed=7).to_dict())
            for _ in range(2))
    assert a == b
    assert json.loads(a)["kronecker"]["projection_gap"] > 1e-5


def test_rank_only_paths_build_no_kernel_basis(monkeypatch, setup_112, dims_112):
    import sys
    real = linalg.kernel_basis
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("suborbit") and getattr(module, "kernel_basis", None) is real:
            monkeypatch.setattr(module, "kernel_basis", counting)
    estimate_generic_dims(setup_112, "m", 25, seed=3)
    estimate_generic_dims(setup_112, "m_tilde", 25, seed=3)
    assert calls == []
    x = sample_element(setup_112.m_tilde, np.random.default_rng(5), 4)
    per_seed = []
    for seed in (0, 1):
        calls.clear()
        v = kronecker_test(setup_112, x, dims_112["m"], seed=seed)
        assert v.generic
        per_seed.append(len(calls))
    # only the slice m(x) is built as a basis, once
    assert per_seed == [1, 1]


def test_lambda_sweeps_keep_each_adjoint_svd_two_dimensional(svd_calls):
    # a stacked (L, n^2, n^2) adjoint SVD would hold every parameter's matrix
    # and its workspace at once; kronecker_test takes none on the adjoint at
    # all, and verify_regular_pencil no SVD on any input
    st = build_setup((2, 2, 2), (1.0, 2.0, 3.0))
    dims = estimate_generic_dims(st, "m", 25, seed=0)
    x = sample_element(st.m_tilde, np.random.default_rng([70, 0]), st.n)
    x_pi = build_x_pi(root_split(st))
    N = st.n * st.n
    svd_calls.clear()
    verdict = kronecker_test(st, x, dims, seed=0)
    assert verdict.generic
    assert [s for s in svd_calls if len(s) > 2 and s[-1] == N] == []
    assert (N, N) not in svd_calls
    for y, certified in ((x_pi, True), (x, False), (LieElement.zero(st.n), False)):
        svd_calls.clear()
        assert verify_regular_pencil(st, y) is certified
        assert svd_calls == []


def test_kronecker_test_takes_one_svd_per_decision(svd_calls):
    # stratum screen, slice, singular-form kernel: 3 SVDs at a (2,2,2) point,
    # none of them on the adjoint; q = n fixes the normal rank, so none more
    st = build_setup((2, 2, 2), (1.0, 2.0, 3.0))
    dims = estimate_generic_dims(st, "m", 25, seed=0)
    x = sample_element(st.m_tilde, np.random.default_rng([70, 0]), st.n)
    svd_calls.clear()
    v = kronecker_test(st, x, dims, seed=0)
    assert v.kronecker and dims.q == st.n
    assert len(svd_calls) == 3 and (st.n ** 2, st.n ** 2) not in svd_calls
