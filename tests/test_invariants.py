"""Shifted trace integrals: values, gradients, brackets, completeness."""

import numpy as np
import pytest

from suborbit import (LieElement, Member, bracket, build_family,
                      build_setup, completeness_check, conjugate, gradient,
                      involutivity_suite, pairing, poisson_bracket_can,
                      sample_element, shifted_invariant_eval, unitary_exp)
from suborbit.invariants import shift_coeff_matrices
from suborbit.lie import matrix_to_coords


@pytest.fixture(scope="module")
def fam_m(setup_112):
    return build_family(setup_112, "m")


@pytest.fixture(scope="module")
def fam_t(setup_112):
    return build_family(setup_112, "m_tilde")


def test_member_lists_match_hand_derivation(fam_m, fam_t):
    # on m only the coefficient pairing x against powers of the anchor dies;
    # on the fixed part the odd-shift parity is killed by conjugation
    assert [m.name for m in fam_m.members] == [
        "h_2_0", "h_3_0", "h_3_1", "h_4_0", "h_4_1", "h_4_2"]
    assert [m.name for m in fam_t.members] == [
        "h_2_0", "h_3_1", "h_4_0", "h_4_2"]
    assert Member(2, 1) in fam_m.pruned
    assert Member(3, 0) in fam_t.pruned


def test_quadratic_member_hand_value(fam_m):
    M = np.zeros((4, 4), dtype=complex)
    M[0, 1], M[1, 0] = 1, -1
    x = LieElement.from_matrix(M)
    assert shifted_invariant_eval(fam_m, Member(2, 0), x) == pytest.approx(-2.0)


def test_shift_resummation(setup_112):
    # the coefficient expansion reproduces the trace of the shifted power at
    # ten random point and parameter draws for every power
    rng = np.random.default_rng(0)
    for k in (2, 3, 4):
        for _ in range(10):
            x = sample_element(setup_112.m, rng, 4)
            lam = float(rng.uniform(-2.0, 2.0))
            C = shift_coeff_matrices(x.matrix, setup_112.a.matrix, k)
            summed = sum(lam ** s * np.trace(C[s]) for s in range(k + 1))
            w = x.matrix + lam * setup_112.a.matrix
            direct = np.trace(np.linalg.matrix_power(w, k))
            assert abs(summed - direct) < 1e-10 * max(1.0, abs(direct))


def test_gradient_of_quadratic(fam_m, setup_112):
    rng = np.random.default_rng(1)
    x = sample_element(setup_112.m, rng, 4)
    g = gradient(fam_m, Member(2, 0), x)
    assert np.allclose(g.coords, -2.0 * x.coords, atol=1e-12)


def test_gradient_matches_finite_differences(fam_t, setup_112):
    st = setup_112
    rng = np.random.default_rng(2)
    x = sample_element(st.m_tilde, rng, 4)
    h = 1e-6
    for member in fam_t.members:
        g = gradient(fam_t, member, x)
        for _ in range(3):
            v = sample_element(st.m_tilde, rng, 4)
            v = LieElement.from_coords(v.coords / v.norm(), 4)
            fp = shifted_invariant_eval(fam_t, member,
                                        LieElement.from_coords(x.coords + h * v.coords, 4))
            fm = shifted_invariant_eval(fam_t, member,
                                        LieElement.from_coords(x.coords - h * v.coords, 4))
            fd = (fp - fm) / (2 * h)
            assert fd == pytest.approx(pairing(g, v), rel=1e-6, abs=1e-6)


def test_gradient_lies_in_slice(fam_t, setup_112):
    from suborbit import m_of_x
    st = setup_112
    rng = np.random.default_rng(3)
    x = sample_element(st.m_tilde, rng, 4)
    mx = m_of_x(st, x, "m_tilde")
    for member in fam_t.members:
        g = gradient(fam_t, member, x)
        assert float(np.linalg.norm(g.coords - mx.project(g.coords))) < 1e-9


def test_members_are_isotropy_invariant(fam_m, setup_112):
    st = setup_112
    rng = np.random.default_rng(4)
    for _ in range(3):
        xi = sample_element(st.k, rng, 4)
        U = unitary_exp(xi)
        x = sample_element(st.m, rng, 4)
        y = conjugate(U, x)
        assert st.m.contains(y.coords, 1e-10)
        for member in fam_m.members:
            fx = shifted_invariant_eval(fam_m, member, x)
            fy = shifted_invariant_eval(fam_m, member, y)
            assert abs(fx - fy) < 1e-9 * max(1.0, abs(fx))


def test_bracket_antisymmetry_and_center(fam_m, setup_112):
    rng = np.random.default_rng(5)
    x = sample_element(setup_112.m, rng, 4)
    assert poisson_bracket_can(fam_m, Member(2, 0), Member(2, 0), x) == 0.0
    # the quadratic member generates rotations fixing x, so it commutes with all
    for member in fam_m.members:
        val = poisson_bracket_can(fam_m, Member(2, 0), member, x)
        assert abs(val) < 1e-10 * max(1.0, x.norm() ** (member.k + 1))


def test_involutivity_m_tilde(fam_t):
    assert involutivity_suite(fam_t, n_points=40, seed=6) < 1e-8


def test_involutivity_m(fam_m):
    assert involutivity_suite(fam_m, n_points=40, seed=6) < 1e-8


def test_involutivity_with_flow_energy(fam_t, setup_112):
    # the quadratic flow energy commutes with every family member
    from suborbit import build_flow, phi_ab
    spec = build_flow(setup_112, (1.0, 3.0, 7.0), "m_tilde")
    res = involutivity_suite(fam_t, extra=lambda x: phi_ab(spec, x),
                             n_points=100, seed=7)
    assert res < 1e-9


def test_involutivity_full_space_u3(setup_111):
    fam = build_family(setup_111, "m")
    assert involutivity_suite(fam, n_points=100, seed=7) < 1e-8


def test_empty_family_suite(setup_112):
    from suborbit.invariants import IntegralFamily
    fam = IntegralFamily(setup_112, "m", (), ())
    assert involutivity_suite(fam, n_points=5, seed=0) == 0.0


def test_completeness_values(fam_m, fam_t, setup_112, dims_112):
    st = setup_112
    rng = np.random.default_rng(8)
    x = sample_element(st.m, rng, 4)
    rep = completeness_check(st, fam_m, x, dims_112["m"])
    assert rep.span_dim == rep.target_dim == 4
    assert rep.complete and rep.isotropy_residual < 1e-9

    xt = sample_element(st.m_tilde, rng, 4)
    rep_t = completeness_check(st, fam_t, xt, dims_112["m_tilde"])
    assert rep_t.span_dim == rep_t.target_dim == 3
    assert rep_t.complete and rep_t.isotropy_residual < 1e-9


def test_completeness_rejects_nongeneric(fam_m, setup_112, dims_112):
    with pytest.raises(ValueError):
        completeness_check(setup_112, fam_m, LieElement.zero(4), dims_112["m"])


def test_projected_span_equals_fixed_span(fam_m, fam_t, setup_112, dims_112):
    # at a fixed-part point, projecting the full gradient span onto the fixed
    # part reproduces the fixed-part gradient span
    from suborbit.linalg import equal_spaces, span
    st = setup_112
    x = sample_element(st.m_tilde, np.random.default_rng(9), 4)
    G_full = np.stack([gradient(fam_m, m, x).coords for m in fam_m.members], axis=1)
    G_fix = np.stack([gradient(fam_t, m, x).coords for m in fam_t.members], axis=1)
    proj = st.m_tilde.basis @ (st.m_tilde.basis.T @ G_full)
    S1 = span(proj, 16)
    S2 = span(G_fix, 16)
    assert S1.dim == S2.dim == 3
    assert equal_spaces(S1, S2, 1e-8)


def test_kernel_contained_in_span_when_complete(fam_m, setup_112, dims_112):
    # the canonical-form kernel on the slice sits inside a complete span
    from suborbit import form_matrix, m_of_x
    from suborbit.linalg import span, subspace_residual
    from suborbit.linalg import kernel_basis
    st = setup_112
    x = sample_element(st.m, np.random.default_rng(10), 4)
    rep = completeness_check(st, fam_m, x, dims_112["m"])
    assert rep.complete
    mx = m_of_x(st, x, "m")
    F0 = form_matrix(st, x, 0.0)
    K, _ = kernel_basis(F0, st.rank_tol, float(np.linalg.norm(x.matrix)))
    kernel_vecs = mx.basis @ K
    G = np.stack([gradient(fam_m, m, x).coords for m in fam_m.members], axis=1)
    S = span(G, 16)
    assert subspace_residual(span(kernel_vecs, 16), S) < 1e-8


def _member_is_zero_reference(setup, space, member):
    """Per-member pruning probe: its own seed, one recursion for the value and
    one for the gradient at each of four points."""
    rng = np.random.default_rng([7349, member.k, member.s])
    a = setup.a.matrix
    a_norm = max(1.0, setup.a.norm())
    k, s = member.k, member.s
    for _ in range(4):
        x = LieElement.from_coords(space.basis @ rng.standard_normal(space.dim), setup.n)
        scale = max(1.0, x.norm()) ** (k - s) * a_norm ** s
        z = complex(np.trace(shift_coeff_matrices(x.matrix, a, k)[s]))
        if abs(z.real if k % 2 == 0 else z.imag) > 1e-10 * scale:
            return False
        D = shift_coeff_matrices(x.matrix, a, k - 1)[s]
        if k % 2 == 1:
            D = -1j * D
        g = matrix_to_coords(-k * 0.5 * (D - D.conj().T)).real
        if np.linalg.norm(space.project(g)) > 1e-10 * k * scale:
            return False
    return True


@pytest.mark.parametrize("mult", [(1, 1, 2), (2, 2, 2), (1, 1, 4), (2, 3, 3)])
@pytest.mark.parametrize("space", ["m", "m_tilde"])
def test_pruning_matches_per_member_reference(mult, space):
    st = build_setup(mult, (1.0, 2.0, 3.0))
    fam = build_family(st, space)
    members, pruned = [], []
    for k in range(2, st.n + 1):
        for s in range(k):
            zero = _member_is_zero_reference(st, st.pair(space).m, Member(k, s))
            (pruned if zero else members).append(Member(k, s))
    assert fam.members == tuple(members)
    assert fam.pruned == tuple(pruned)
