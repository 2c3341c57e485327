"""Acceptance suite: one test per published criterion, with a pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from suborbit import (CONFIRMED, LieElement, REDUCED, build_family,
                      build_flow, build_moment_data, build_setup,
                      build_witness_x0, completeness_check, conservation_report,
                      estimate_generic_dims, form_matrix, integrate_flow,
                      involutivity_suite, is_in_R, lax_residual,
                      m_a_estimate, pencil_isotropy_check, perturb_into_R,
                      reduction_data, regular_in_kprime_test, root_split,
                      build_x_pi, run_case, sample_element,
                      verify_regular_pencil)
from suborbit.cli import main
from suborbit.linalg import kernel_dim


def _spectrum(p):
    return tuple(float(j + 1) for j in range(p))


def _ok(num, text):
    print(f"[criterion {num:2d}] PASS  {text}")


def test_criterion_01_dimension_identities():
    t0 = time.perf_counter()
    expected = {
        (1, 1, 1): (3, 1, 2),
        (1, 1, 2): (4, 1, 3),
        (2, 2): (4, 2, 2),      # torus witness: p = 2 + 0^2, then q = 4 + (2 - 2)
        (1, 1, 4): (8, 5, 3),
    }
    for mult, qpr in expected.items():
        tc = time.perf_counter()
        st = build_setup(mult, _spectrum(len(mult)))
        d = estimate_generic_dims(st, "m", 25, seed=3)
        assert (d.q, d.p, d.r) == qpr, mult
        assert d.r == d.q - d.p
        assert d.stabilized
        assert time.perf_counter() - tc < 30.0
    _ok(1, f"generic dimension triples match on four partitions "
           f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_02_kernel_identity(setup_112, dims_112):
    st = setup_112
    dm = dims_112["m"]
    hits = 0
    found = 0
    i = 0
    while found < 50 and i < 200:
        x = sample_element(st.m, np.random.default_rng([2025, i]), 4)
        i += 1
        if not is_in_R(st, x, "m", dm):
            continue
        found += 1
        F0 = form_matrix(st, x, 0.0)
        kd, _ = kernel_dim(F0, st.rank_tol,
                           floor=float(np.linalg.norm(x.matrix)))
        hits += kd == 3
    assert found == 50
    assert hits >= int(0.95 * 50)
    _ok(2, f"canonical form kernel dimension 3 at {hits}/50 generic points")


def test_criterion_03_involutivity():
    t0 = time.perf_counter()
    st1 = build_setup((1, 1, 2), (1.0, 2.0, 3.0))
    res1 = involutivity_suite(build_family(st1, "m_tilde"), n_points=100, seed=5)
    st2 = build_setup((1, 1, 1, 1), (1.0, 2.0, 3.0, 4.0))
    res2 = involutivity_suite(build_family(st2, "m_tilde"), n_points=100, seed=5)
    assert res1 < 1e-8 and res2 < 1e-8
    assert time.perf_counter() - t0 < 60.0
    _ok(3, f"pairwise bracket residuals {res1:.2e} and {res2:.2e} "
           f"over 100 points each ({time.perf_counter() - t0:.1f}s)")


def test_criterion_04_completeness(setup_112, dims_112):
    st = setup_112
    fam_t = build_family(st, "m_tilde")
    fam_m = build_family(st, "m")
    ok_t = 0
    worst_iso = 0.0
    for i in range(50):
        x = sample_element(st.m_tilde, np.random.default_rng([2026, i]), 4)
        if not is_in_R(st, x, "m_tilde", dims_112["m_tilde"]):
            continue
        rep = completeness_check(st, fam_t, x, dims_112["m_tilde"])
        worst_iso = max(worst_iso, rep.isotropy_residual)
        ok_t += rep.span_dim == rep.target_dim == 3
    assert ok_t >= int(0.95 * 50)
    ok_m = 0
    for i in range(50):
        x = sample_element(st.m, np.random.default_rng([2027, i]), 4)
        if not is_in_R(st, x, "m", dims_112["m"]):
            continue
        rep = completeness_check(st, fam_m, x, dims_112["m"])
        worst_iso = max(worst_iso, rep.isotropy_residual)
        ok_m += rep.span_dim == rep.target_dim == 4
    assert ok_m >= int(0.95 * 50)
    assert worst_iso < 1e-9
    _ok(4, f"gradient spans 3 (fixed part, {ok_t}/50) and 4 (full, {ok_m}/50), "
           f"isotropy residual {worst_iso:.2e}")


def test_criterion_05_moment_criterion_biconditional():
    # every partition of n <= 5 that reaches the center regime, reducing the
    # dominant-block cases first; two-block cases with unequal blocks are
    # symmetric spaces outside the criterion's regime, and (2, 2) stays in a
    # torus regime where the moment route refuses by design
    direct = [(1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 1, 1),
              (1, 2, 2), (1, 1, 1, 2), (1, 1, 1, 1, 1)]
    reduced = {(1, 1, 3): (1, 1, 2)}
    for mult in direct:
        st = build_setup(mult, _spectrum(len(mult)))
        dims = estimate_generic_dims(st, "m", 25, seed=3)
        data = build_moment_data(st)
        val = m_a_estimate(data, st.m_tilde, dims, samples=20, seed=5)
        assert val == dims.r, mult
        assert regular_in_kprime_test(st), mult
    for mult, eq in reduced.items():
        st = build_setup(mult, _spectrum(len(mult)))
        dm = estimate_generic_dims(st, "m", 25, seed=3)
        dmt = estimate_generic_dims(st, "m_tilde", 25, seed=3)
        x0, _ = build_witness_x0(st, seed=0)
        x0, _ = perturb_into_R(st, x0, dm, dmt, seed=1)
        red = reduction_data(st, x0, dm, dmt, seed=2)
        assert red.dims_m0.r == dm.r
        st_eq = build_setup(eq, _spectrum(len(eq)))
        dims_eq = estimate_generic_dims(st_eq, "m", 25, seed=3)
        data_eq = build_moment_data(st_eq)
        assert m_a_estimate(data_eq, st_eq.m_tilde, dims_eq, 20, seed=5) == dims_eq.r
        assert regular_in_kprime_test(st_eq)
        assert dims_eq.r == dm.r
    _ok(5, f"moment route equals the generic defect with regular antifixed "
           f"elements on {len(direct)} direct and {len(reduced)} reduced partitions")


def test_criterion_06_nilpotent_witness_sweep():
    checked = []
    for n in range(2, 7):
        for mult in _ascending_partitions(n):
            if max(mult) > sum(mult) - max(mult):
                continue
            st = build_setup(mult, _spectrum(len(mult)))
            xp = build_x_pi(root_split(st))
            assert verify_regular_pencil(st, xp), mult
            checked.append(mult)
    assert (1, 1, 2, 2) in checked and (3, 3) in checked
    _ok(6, f"nilpotent witness regular across the shifted line on "
           f"{len(checked)} partitions up to rank six")


def _ascending_partitions(n):
    def rec(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    return [p for p in rec(n, 1) if len(p) >= 2]


def test_criterion_07_reduction(setup_114, dims_114):
    st = setup_114
    x0, _ = build_witness_x0(st, seed=0)
    x0, _ = perturb_into_R(st, x0, dims_114["m"], dims_114["m_tilde"], seed=1)
    red = reduction_data(st, x0, dims_114["m"], dims_114["m_tilde"], seed=2)
    assert red.g0.dim == 17                       # unitary on four plus the center line
    assert red.rank_g0 == 5
    assert red.z_g0.dim == 2
    assert red.rank_g0 - red.z_g0.dim == 3 == dims_114["m"].r
    assert all(red.checks.values())
    case = run_case((1, 1, 4), (1.0, 2.0, 3.0), seed=42)
    assert case.conclusion == REDUCED
    assert case.reduction["equivalent_partition"] == [1, 1, 2]
    inner = case.inner_case
    # the reduced case is the flagship partition, which criteria 2 to 4 cover
    # directly; its own run must confirm with a complete fixed-part span
    assert inner.conclusion == CONFIRMED
    assert inner.completeness_m_tilde["span_dim"] == 3
    assert inner.kronecker["kronecker"]
    _ok(7, "dominant-block case reduces to the flagship partition and confirms")


def test_criterion_08_conservation(setup_112):
    t0 = time.perf_counter()
    st = setup_112
    spec = build_flow(st, (1.0, 3.0, 7.0), "m_tilde")
    fam = build_family(st, "m_tilde")
    x = sample_element(st.m_tilde, np.random.default_rng(5), 4)
    x0 = LieElement.from_coords(x.coords / x.norm() * 12.0, 4)

    traj = integrate_flow(spec, x0, 1e-3, 10000, record_stride=100)
    drifts = conservation_report(spec, traj, fam)
    assert max(drifts.values()) < 1e-6

    lax = max(lax_residual(spec, traj.state(i, 4), 0.5 + 0.5j)
              for i in range(len(traj)))
    assert lax < 1e-12

    traj_half = integrate_flow(spec, x0, 5e-4, 20000, record_stride=200)
    drifts_half = conservation_report(spec, traj_half, fam)
    ratio = max(drifts.values()) / max(max(drifts_half.values()), 1e-300)
    assert ratio >= 8.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _ok(8, f"drift {max(drifts.values()):.2e} over T = 10, halving ratio "
           f"{ratio:.0f}, shifted-bracket residual {lax:.1e} ({elapsed:.0f}s)")


def test_criterion_09_pencil_lemma():
    rng = np.random.default_rng(2028)
    checked = 0
    nontrivial = 0
    agreements = 0
    while checked < 100:
        d = int(rng.integers(3, 9))
        A = rng.standard_normal((d, d))
        B = rng.standard_normal((d, d))
        rep = pencil_isotropy_check(A - A.T, B - B.T, seed=checked)
        checked += 1
        if rep.r_min > 0:
            nontrivial += 1
            assert rep.isotropic and rep.isotropy_residual < 1e-9
            agreements += rep.maximal == rep.complex_constant_rank
    assert nontrivial > 30          # odd sizes force nontrivial kernels
    assert agreements == nontrivial  # agreement on all applicable cases
    _ok(9, f"kernel sums isotropic on {nontrivial}/100 applicable pairs, "
           f"maximality matches the complex test on all of them")


def test_criterion_10_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        rc = main(["verify", "--partition", "1,1,2", "--spectrum", "1,2,3",
                   "--seed", "2029", "--out", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    _ok(10, "verification reports are byte-identical across reruns")
