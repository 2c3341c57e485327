"""The reduced flow: operator properties, integration, and conservation."""

import dataclasses

import numpy as np
import pytest

from suborbit import (FlowDivergenceError, LieElement, block_scalar, bracket,
                      build_family, build_flow, build_setup, conservation_report,
                      energy_drift, hamiltonian, integrate_flow, lax_residual,
                      member_values, pairing, phi_spectrum)
from suborbit.cli import _partitions
from suborbit.lie import ad_in_basis
from reference import (ad_a_on_m, conjugate, phi_ab, sample_element,
                       shifted_invariant_eval, unitary_exp)


@pytest.fixture(scope="module")
def flow_112(setup_112):
    return build_flow(setup_112, (1.0, 3.0, 7.0), "m_tilde")


def _unit(setup, space, seed, scale=1.0):
    x = sample_element(setup.pair(space).m, np.random.default_rng(seed), setup.n)
    return LieElement.from_coords(x.coords / x.norm() * scale, setup.n)


def test_b_validation(setup_112):
    with pytest.raises(ValueError):
        build_flow(setup_112, (1.0, 2.0), "m_tilde")
    # a general isotropy element is not a block-scalar diagonal
    bad = LieElement.from_matrix(np.diag([1j, 2j, 3j, 4j]))
    with pytest.raises(ValueError):
        build_flow(setup_112, bad, "m_tilde")


def test_identity_for_equal_elements(setup_112):
    spec = build_flow(setup_112, (1.0, 2.0, 3.0), "m_tilde")
    assert np.allclose(spec.phi_matrix, np.eye(setup_112.m_tilde.dim), atol=1e-12)
    x = _unit(setup_112, "m_tilde", 0)
    assert np.allclose(phi_ab(spec, x).coords, x.coords, atol=1e-12)


@pytest.mark.parametrize(
    "mult", [tuple(p) for n in range(2, 8) for p in _partitions(n)], ids=str)
def test_phi_matrix_matches_operator_composition(mult):
    # E^T (ad a|_m)^(-1) (ad b|_m) E with the operators built from ad_in_basis
    # on m, E the coefficients of the flow-space basis in the basis of m
    p = len(mult)
    st = build_setup(mult, tuple(float(j + 1) for j in range(p)))
    ad_a_m = ad_a_on_m(st)
    for b_values in ([2.0 ** (j + 1) - 1 for j in range(p)],
                     np.random.default_rng([23, p]).standard_normal(p)):
        b = block_scalar(st, b_values)
        ad_b_m = st.m.coeffs(ad_in_basis(b, st.m))
        for space in ("m", "m_tilde"):
            E = st.m.coeffs(st.pair(space).m.basis)
            ref = E.T @ np.linalg.solve(ad_a_m, ad_b_m @ E)
            phi = build_flow(st, b_values, space).phi_matrix
            assert np.max(np.abs(phi - ref)) <= 1e-12


def test_operator_preserves_spaces(flow_112, setup_112):
    st = setup_112
    x = _unit(st, "m_tilde", 1)
    assert st.m_tilde.contains(phi_ab(flow_112, x).coords, 1e-12)
    spec_m = build_flow(st, (1.0, 3.0, 7.0), "m")
    xm = _unit(st, "m", 2)
    assert st.m.contains(phi_ab(spec_m, xm).coords, 1e-12)


def test_operator_symmetry(flow_112, setup_112):
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = sample_element(setup_112.m_tilde, rng, 4)
        y = sample_element(setup_112.m_tilde, rng, 4)
        assert pairing(phi_ab(flow_112, x), y) == pytest.approx(
            pairing(x, phi_ab(flow_112, y)), rel=1e-10, abs=1e-10)


def test_operator_spectrum_reported(flow_112):
    spec = phi_spectrum(flow_112)
    assert spec.shape == (5,)
    # eigenvalues are ratios of block-value differences; all nonzero here
    assert np.min(np.abs(spec)) > 1e-12


def test_energy_invariance_under_isotropy(flow_112, setup_112):
    st = setup_112
    rng = np.random.default_rng(4)
    x = sample_element(st.m_tilde, rng, 4)
    for _ in range(3):
        xi = sample_element(st.k_tilde, rng, 4)
        U = unitary_exp(xi)
        y = conjugate(U, x)
        assert hamiltonian(flow_112, y) == pytest.approx(
            hamiltonian(flow_112, x), rel=1e-10)


def test_energy_of_zero(flow_112):
    assert hamiltonian(flow_112, LieElement.zero(4)) == 0.0


def test_energy_for_equal_elements(setup_112):
    spec = build_flow(setup_112, (1.0, 2.0, 3.0), "m_tilde")
    x = _unit(setup_112, "m_tilde", 5, scale=2.0)
    assert hamiltonian(spec, x) == pytest.approx(0.5 * pairing(x, x), rel=1e-12)


def test_lax_residual_values(flow_112, setup_112):
    x = _unit(setup_112, "m_tilde", 6, scale=1.5)
    assert lax_residual(flow_112, x, 0.0) == 0.0
    for lam in (0.3, -2.0, 1 + 1j, 0.5j):
        assert lax_residual(flow_112, x, lam) < 1e-12


@pytest.mark.parametrize("mult", [(1, 1, 2), (2, 2, 2)])
@pytest.mark.parametrize("space", ["m", "m_tilde"])
def test_stacked_lax_residual_matches_per_record_values(mult, space):
    # the (n^2, R) stack of recorded states gives one defect per record, the
    # same as one call per record
    st = build_setup(mult, (1.0, 2.0, 3.0))
    spec = build_flow(st, (1.0, 3.0, 7.0), space)
    traj = integrate_flow(spec, _unit(st, space, 8, scale=2.0), 1e-3, 500, 50)
    stacked = lax_residual(spec, traj.coords.T, 0.5 + 0.5j)
    per_record = [lax_residual(spec, traj.state(i, st.n), 0.5 + 0.5j)
                  for i in range(len(traj))]
    assert stacked.shape == (len(traj),)
    assert abs(stacked.max() - max(per_record)) <= 1e-15


def test_rhs_stays_in_flow_space(flow_112, setup_112):
    st = setup_112
    for i in range(5):
        x = sample_element(st.m_tilde, np.random.default_rng([40, i]), 4)
        v = bracket(x, phi_ab(flow_112, x))
        assert st.m_tilde.contains(v.coords, 1e-10)


def test_constant_trajectory_for_equal_elements(setup_112):
    # the right hand side [x, phi(x)] = [x, x] vanishes, so the state moves
    # only by round-off
    spec = build_flow(setup_112, (1.0, 2.0, 3.0), "m_tilde")
    x0 = _unit(setup_112, "m_tilde", 7)
    traj = integrate_flow(spec, x0, 1e-2, 200, record_stride=20)
    assert np.max(np.abs(traj.coords - traj.coords[0])) < 1e-12
    fam = build_family(setup_112, "m_tilde")
    drifts = conservation_report(spec, traj, fam)
    assert all(v < 1e-12 for v in drifts.values())


def test_integration_validates_inputs(flow_112, setup_112):
    x0 = _unit(setup_112, "m_tilde", 8)
    for dt in (-1e-3, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            integrate_flow(flow_112, x0, dt, 10)
    with pytest.raises(ValueError):
        integrate_flow(flow_112, x0, 1e-3, 0)
    xm = _unit(setup_112, "m", 9)
    with pytest.raises(ValueError):
        integrate_flow(flow_112, xm, 1e-3, 10)


def test_divergence_aborts(flow_112, setup_112):
    x0 = _unit(setup_112, "m_tilde", 10, scale=8.0)
    with pytest.raises(FlowDivergenceError):
        integrate_flow(flow_112, x0, 1.0, 100)


def test_conservation_and_energy(flow_112, setup_112):
    fam = build_family(setup_112, "m_tilde")
    x0 = _unit(setup_112, "m_tilde", 11, scale=2.0)
    traj = integrate_flow(flow_112, x0, 1e-3, 2000, record_stride=100)
    drifts = conservation_report(flow_112, traj, fam)
    assert max(drifts.values()) < 1e-8
    assert energy_drift(flow_112, traj) < 1e-10
    assert traj.residuals.max() < 1e-12


def test_order_four_convergence(flow_112, setup_112):
    # with the state pushed well above the round-off floor, halving the step
    # cuts the drift by at least the fourth-order factor
    x0 = _unit(setup_112, "m_tilde", 12, scale=8.0)
    fam = build_family(setup_112, "m_tilde")
    d1 = max(conservation_report(
        flow_112, integrate_flow(flow_112, x0, 4e-3, 500, 50), fam).values())
    d2 = max(conservation_report(
        flow_112, integrate_flow(flow_112, x0, 2e-3, 1000, 100), fam).values())
    assert d1 > 1e-12  # above the noise floor, the ratio is meaningful
    assert d1 / d2 >= 8.0


def test_flow_orthogonal_to_member_gradients(flow_112, setup_112):
    from suborbit import gradient
    fam = build_family(setup_112, "m_tilde")
    for i in range(5):
        x = sample_element(setup_112.m_tilde, np.random.default_rng([41, i]), 4)
        v = bracket(x, phi_ab(flow_112, x))
        for member in fam.members:
            g = gradient(fam, member, x)
            assert abs(pairing(v, g)) < 1e-9 * max(1.0, v.norm() * g.norm())


def test_flow_on_full_transversal(setup_112):
    # the same machinery runs on the full space, not just the fixed part
    spec = build_flow(setup_112, (1.0, 3.0, 7.0), "m")
    fam = build_family(setup_112, "m")
    x0 = _unit(setup_112, "m", 13, scale=1.5)
    traj = integrate_flow(spec, x0, 1e-3, 1000, record_stride=100)
    drifts = conservation_report(spec, traj, fam)
    assert max(drifts.values()) < 1e-8


def test_conservation_on_rank_six_case():
    st = build_setup((1, 1, 4), (1.0, 2.0, 3.0))
    spec = build_flow(st, (2.0, 5.0, 11.0), "m_tilde")
    fam = build_family(st, "m_tilde")
    x = sample_element(st.m_tilde, np.random.default_rng(90), 6)
    x0 = LieElement.from_coords(x.coords / x.norm() * 1.5, 6)
    traj = integrate_flow(spec, x0, 1e-3, 1000, record_stride=100)
    drifts = conservation_report(spec, traj, fam)
    assert max(drifts.values()) < 1e-6
    assert energy_drift(spec, traj) < 1e-8


@pytest.mark.parametrize("partition", [(1, 1, 2), (2, 2, 2), (1, 1, 4), (3, 3, 3)])
@pytest.mark.parametrize("space", ["m", "m_tilde"])
def test_tensor_rhs_matches_bracket(partition, space):
    st = build_setup(partition, (1.0, 2.0, 3.0))
    spec = build_flow(st, (1.0, 3.0, 7.0), space)
    V, d = spec.domain.basis, spec.domain.dim
    for i in range(3):
        x = _unit(st, space, [50, i], scale=1.0 + i)
        ref = bracket(x, phi_ab(spec, x)).coords
        y = spec.domain.coeffs(x.coords)
        v = V @ ((spec.field @ y).reshape(d, d) @ y)
        assert np.linalg.norm(v - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))
    # the symmetric part of the tabulated field lies in the flow space exactly
    assert spec.leak.shape == (0, d * d)


def _bracket_rk4(spec, x0, dt, steps):
    """Reference RK4 on the matrix bracket path, re-projecting every step."""
    dom, n = spec.domain, spec.setup.n

    def f(c):
        x = LieElement.from_coords(dom.project(c), n)
        return bracket(x, phi_ab(spec, x)).coords

    c = dom.project(x0.coords)
    out = [c]
    for _ in range(steps):
        k1 = f(c)
        k2 = f(c + 0.5 * dt * k1)
        k3 = f(c + 0.5 * dt * k2)
        k4 = f(c + dt * k3)
        c = dom.project(c + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out.append(c)
    return np.stack(out)


def test_integration_matches_bracket_rk4(flow_112, setup_112):
    x0 = _unit(setup_112, "m_tilde", 14, scale=2.0)
    traj = integrate_flow(flow_112, x0, 1e-3, 500, record_stride=1)
    ref = _bracket_rk4(flow_112, x0, 1e-3, 500)
    assert traj.coords.shape == ref.shape
    assert np.max(np.abs(traj.coords - ref)) < 1e-12


def test_integration_projects_a_fixed_number_of_times(monkeypatch, flow_112,
                                                      setup_112):
    # the state is stepped in flow-space coefficients: x0 is checked and
    # reduced once, and no step projects or reduces again
    from suborbit.linalg import Subspace
    calls = []
    for name in ("project", "coeffs"):
        method = getattr(Subspace, name)
        monkeypatch.setattr(Subspace, name, lambda self, v, _m=method, _n=name:
                            calls.append(_n) or _m(self, v))
    x0 = _unit(setup_112, "m_tilde", 16, scale=2.0)
    counts = []
    for steps in (5, 500):
        calls.clear()
        integrate_flow(flow_112, x0, 1e-3, steps, record_stride=1)
        counts.append((calls.count("project"), calls.count("coeffs")))
    assert counts[0] == counts[1] == (1, 1)


def test_conservation_report_is_one_stacked_evaluation(monkeypatch, flow_112,
                                                       setup_112):
    # the drift of every member along all records comes out of one shift
    # recursion over the (R, n, n) stack of recorded states, and equals the
    # drift of the per-record values exactly
    import suborbit.invariants as inv
    fam = build_family(setup_112, "m_tilde")
    x0 = _unit(setup_112, "m_tilde", 17, scale=2.0)
    traj = integrate_flow(flow_112, x0, 1e-3, 400, record_stride=20)
    vals = np.array([member_values(fam, traj.state(i, 4)) for i in range(len(traj))])
    ref = np.max(np.abs(vals[1:] - vals[0]) / (1.0 + np.abs(vals[0])), axis=0)
    recursions = []
    shift = inv._shift_coeff_powers
    monkeypatch.setattr(inv, "_shift_coeff_powers",
                        lambda *args: recursions.append(args) or shift(*args))
    drifts = conservation_report(flow_112, traj, fam)
    assert len(recursions) == 1 and recursions[0][0].shape == (len(traj), 4, 4)
    assert drifts == {m.name: float(w) for m, w in zip(fam.members, ref)}


def _leaky(spec, setup, eps):
    # add eps * |y|^2 times a unit vector of m_prime, which is orthogonal to
    # the flow space m_tilde, to the tabulated right hand side
    N, d = spec.domain.basis.shape
    w = setup.m_prime.basis[:, 0]
    leak = np.einsum("i,jk->ijk", w, np.eye(d)).reshape(N * d, d)
    return dataclasses.replace(spec, quad=spec.quad + eps * leak)


def test_tensor_leakage_is_measured(flow_112, setup_112):
    x0 = _unit(setup_112, "m_tilde", 15, scale=2.0)
    # a leak of about dt * eps * |x|^2 = 4e-8 per step stays under the abort
    # threshold and shows up in the recorded residuals
    traj = integrate_flow(_leaky(flow_112, setup_112, 1e-5), x0, 1e-3, 20)
    assert traj.residuals[1:].min() > 1e-8
    # a leak of about 4e-5 per step aborts at the first step
    with pytest.raises(FlowDivergenceError) as err:
        integrate_flow(_leaky(flow_112, setup_112, 1e-2), x0, 1e-3, 20)
    assert err.value.time == pytest.approx(1e-3)
    assert err.value.residual > 1e-6


@pytest.mark.parametrize("space", ["m", "m_tilde"])
def test_member_values_match_single_evaluation(setup_112, space):
    st = build_setup((2, 2, 2), (1.0, 2.0, 3.0))
    for setup in (setup_112, st):
        fam = build_family(setup, space)
        for i in range(3):
            x = _unit(setup, space, [60, i], scale=1.5)
            vals = member_values(fam, x)
            assert vals.shape == (len(fam.members),)
            for v, member in zip(vals, fam.members):
                assert v == shifted_invariant_eval(fam, member, x)
