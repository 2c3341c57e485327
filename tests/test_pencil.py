"""Pencil forms, kernel identities, Kronecker verdicts, and the standalone analyzer."""

import numpy as np
import pytest

from suborbit import (LieElement, bracket, build_setup, centralizer,
                      conjugate, form_matrix, kronecker_test, m_of_x, pairing,
                      pencil_isotropy_check, sample_element, unitary_exp)
from suborbit import linalg
from suborbit.generic import estimate_generic_dims, is_in_R
from suborbit.linalg import kernel_dim, span
from suborbit.pencil import SINGULAR, _STRUCTURED_LAMBDAS, annulus_samples


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
        kd, _ = kernel_dim(F0, st.rank_tol,
                           floor=float(np.linalg.norm(x.matrix)))
        hits += kd == dims_112["m"].r
    assert hits >= 19


def test_form_kernel_matches_projected_centralizer(setup_112, dims_112):
    # dimension of the shifted-form kernel equals that of the complexified
    # centralizer projected onto the transversal space
    st = setup_112
    x = sample_element(st.m_tilde, np.random.default_rng(2), 4)
    lam = 0.8 - 0.3j
    F = form_matrix(st, x, lam)
    kd, _ = kernel_dim(F, st.rank_tol,
                       floor=float(np.linalg.norm(x.matrix + lam * st.a.matrix)))
    w = x.matrix + lam * st.a.matrix
    cz = centralizer(w, st.g)
    proj = st.m.basis @ (st.m.basis.T @ cz.basis)
    pd = span(proj, st.ambient_dim).dim
    assert kd == pd == dims_112["m"].r


def test_kronecker_verdict_at_fixed_points(setup_112, dims_112):
    st = setup_112
    hits = 0
    for i in range(10):
        x = sample_element(st.m_tilde, np.random.default_rng([21, i]), 4)
        v = kronecker_test(st, x, dims_112["m"], n_lambda=10, seed=5)
        if v.kronecker:
            hits += 1
            assert v.singular_kernel_dim == dims_112["m"].r
            assert set(v.centralizer_dims) == {dims_112["m"].q}
            assert set(v.kernel_dims) == {dims_112["m"].r}
    assert hits >= 9


def test_kronecker_skips_nongeneric(setup_112, dims_112):
    v = kronecker_test(setup_112, LieElement.zero(4), dims_112["m"])
    assert not v.generic and not v.kronecker
    assert v.lambda_samples == ()


def test_kronecker_invariant_under_isotropy(setup_112, dims_112):
    st = setup_112
    rng = np.random.default_rng(3)
    x = sample_element(st.m_tilde, rng, 4)
    v1 = kronecker_test(st, x, dims_112["m"], n_lambda=8, seed=6)
    for _ in range(2):
        xi = sample_element(st.k, rng, 4)
        U = unitary_exp(xi)
        y = conjugate(U, x)
        v2 = kronecker_test(st, y, dims_112["m"], n_lambda=8, seed=6)
        assert v2.kronecker == v1.kronecker


def test_verdict_serialization_roundtrip(setup_112, dims_112):
    import json
    x = sample_element(setup_112.m_tilde, np.random.default_rng(4), 4)
    v = kronecker_test(setup_112, x, dims_112["m"], n_lambda=5, seed=7)
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
        v = kronecker_test(st, x, dims_112["m"], n_lambda=8, seed=8)
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
    K, _ = kernel_basis(F0, st.rank_tol, float(np.linalg.norm(x.matrix)))
    kernel_space = span(mx.basis @ K, st.ambient_dim)
    gx = centralizer(x, st.g)
    projected = span(st.m.basis @ (st.m.basis.T @ gx.basis), st.ambient_dim)
    assert equal_spaces(kernel_space, projected, 1e-8)


def test_dependent_forms_flag_on_symmetric_case():
    # on a two-equal-block setup the slice at a fixed-part point is a
    # commutative subspace, so every pencil form vanishes there and the two
    # generators are a dependent pair; the verdict reports the degeneracy
    from suborbit import estimate_generic_dims
    st = build_setup((2, 2), (1.0, 2.0))
    dm = estimate_generic_dims(st, "m", 25, seed=3)
    x = sample_element(st.m_tilde, np.random.default_rng(1), 4)
    v = kronecker_test(st, x, dm, n_lambda=8, seed=2)
    assert v.generic and v.kronecker
    assert v.forms_dependent


def test_forms_independent_generically(setup_112, dims_112):
    x = sample_element(setup_112.m_tilde, np.random.default_rng(1), 4)
    v = kronecker_test(setup_112, x, dims_112["m"], n_lambda=8, seed=2)
    assert not v.forms_dependent


def _kronecker_reference(st, x, dims, lams, space):
    """Per-parameter sweep: a fresh complexified centralizer and form each time."""
    domain = m_of_x(st, x, space)
    F_si = form_matrix(st, x, SINGULAR, space, domain)
    si_dim, _ = kernel_dim(F_si.astype(complex), st.rank_tol,
                           floor=float(np.linalg.norm(st.a.matrix)))
    gC = st.pair(space).g.complexify()
    cdims, kdims = [], []
    for lam in lams:
        w = x.matrix + complex(lam) * st.a.matrix
        cdims.append(centralizer(w, gC, st.rank_tol).dim)
        F = form_matrix(st, x, lam, space, domain)
        kdims.append(kernel_dim(F.astype(complex), st.rank_tol,
                                floor=float(np.linalg.norm(w)))[0])
    kron = si_dim == dims.r and all(c == dims.q for c in cdims)
    return si_dim, tuple(cdims), tuple(kdims), kron


@pytest.mark.parametrize("mult, space", [((1, 1, 2), "m"), ((1, 1, 2), "m_tilde"),
                                         ((2, 2, 2), "m"), ((1, 1, 4), "m"),
                                         ((1, 1, 4), "m_tilde")])
def test_affine_lambda_sweep_matches_per_lambda_reference(mult, space):
    st = build_setup(mult, (1.0, 2.0, 3.0))
    dims = estimate_generic_dims(st, space, 25, seed=3)
    verdicts = set()
    for i in range(3):
        x = sample_element(st.pair(space).m, np.random.default_rng([70, i]), st.n)
        assert is_in_R(st, x, space, dims)
        v = kronecker_test(st, x, dims, n_lambda=8, seed=i, space=space)
        lams = list(_STRUCTURED_LAMBDAS) + list(
            annulus_samples(np.random.default_rng([i, 23]), 8))
        assert v.lambda_samples == tuple(complex(lam) for lam in lams)
        si_dim, cdims, kdims, kron = _kronecker_reference(st, x, dims, lams, space)
        assert v.singular_kernel_dim == si_dim
        assert v.centralizer_dims == cdims
        assert v.kernel_dims == kdims
        assert v.kronecker == kron
        verdicts.add(v.kronecker)
    # both verdicts are covered: these points pass on m and fail on m_tilde
    assert verdicts == {space == "m"}


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
    per_sweep = []
    for n_lambda in (0, 20):
        calls.clear()
        v = kronecker_test(setup_112, x, dims_112["m"], n_lambda=n_lambda, seed=1)
        assert v.generic and len(v.kernel_dims) == 5 + n_lambda
        per_sweep.append(len(calls))
    # only the slice m(x) is built as a basis, once, whatever the sweep length
    assert per_sweep == [1, 1]
