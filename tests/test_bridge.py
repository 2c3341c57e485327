"""The end-to-end decision tree."""

import dataclasses
import json
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from suborbit import (CONFIRMED, INCONCLUSIVE, REDUCED, RankAmbiguityWarning,
                      bridge, build_setup, build_x_pi, generic, pencil, root_split,
                      run_case)
from suborbit.cli import _partitions
from suborbit.generic import sample_coords
from suborbit.lie import coords_to_matrix


def test_direct_case_112():
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=42)
    assert case.conclusion == CONFIRMED
    assert case.m_a_value == 3 == case.dims_m.r
    assert case.regular_kprime is True
    assert case.x_pi_regular is True
    assert case.kronecker["kronecker"] is True
    assert case.completeness_m_tilde["complete"] is True
    assert case.completeness_m_tilde["span_dim"] == 3
    assert case.completeness_m["span_dim"] == 4
    assert case.okr_witness_coords is not None


def test_reduced_case_114():
    case = run_case((1, 1, 4), (1.0, 2.0, 3.0), seed=42)
    assert case.conclusion == REDUCED
    red = case.reduction
    assert red["dim_g0"] == 17
    assert red["rank_g0"] == 5
    assert red["dim_z_g0"] == 2
    assert red["rank_g0"] - red["dim_z_g0"] == 3 == red["r_m"] == red["r_m0"]
    assert red["matches_expected_form"]
    assert red["equivalent_partition"] == [1, 1, 2]
    assert all(red["checks"].values())
    inner = case.inner_case
    assert inner.conclusion == CONFIRMED
    assert inner.multiplicities == (1, 1, 2)


def test_symmetric_two_block_cases():
    for mult in [(1, 1), (1, 3), (2, 2)]:
        case = run_case(mult, tuple(float(j + 1) for j in range(len(mult))), seed=42)
        assert case.conclusion == CONFIRMED, mult
        assert any("symmetric" in note for note in case.notes)


def test_consistency_of_routes_at_witness():
    case = run_case((1, 2, 3), (1.0, 2.0, 3.0), seed=11)
    assert case.conclusion == CONFIRMED
    # both pencil conditions hold at the same witnessed point, in agreement
    # with the moment and nilpotent routes
    assert case.kronecker["singular_ok"] and case.kronecker["pencil_ok"]
    assert case.m_a_value == case.dims_m.r
    assert case.x_pi_regular


def test_reseeding_stability():
    for seed in range(5):
        case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=seed)
        assert case.conclusion == CONFIRMED, seed


def test_unsorted_input_is_canonicalized():
    case = run_case((2, 1, 1), (3.0, 1.0, 2.0), seed=0)
    assert case.multiplicities == (1, 1, 2)
    assert case.spectrum == (1.0, 2.0, 3.0)
    assert case.conclusion == CONFIRMED
    assert any("reordered" in n for n in case.notes)


def test_invalid_inputs_raise():
    with pytest.raises(ValueError):
        run_case((1, 1, 2), (1.0, 2.0, 2.0), seed=0)
    with pytest.raises(ValueError):
        run_case((0, 2), (1.0, 2.0), seed=0)


def test_budget_exhaustion_is_inconclusive(monkeypatch):
    monkeypatch.setattr(bridge, "_OKR_ATTEMPTS", 0)
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=0)
    assert case.conclusion == INCONCLUSIVE
    assert not any("aborted" in note for note in case.notes)
    assert any("budget: 0 of 0 draws generic on m_tilde" in note
               for note in case.notes)


def test_kronecker_test_running_dry_counts_the_generic_draws(monkeypatch):
    tested = []

    def never_kronecker(setup, x, dims, seed):
        tested.append(x)
        return dataclasses.replace(pencil.kronecker_test(setup, x, dims, seed),
                                   kronecker=False)
    monkeypatch.setattr(bridge, "kronecker_test", never_kronecker)
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=0)
    assert case.conclusion == INCONCLUSIVE
    note = (f"budget: {len(tested)} of {bridge._OKR_ATTEMPTS} draws generic "
            "on m_tilde")
    assert tested and any(note in n for n in case.notes)


def test_kronecker_search_moves_past_a_non_kronecker_draw():
    # the first fixed-part draw of this case is generic on m_tilde but not a
    # Kronecker point, and its pencil verdict warns; the second draw is taken
    mult, spectrum, seed = (1, 1, 2, 2, 2), range(1, 6), 47
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankAmbiguityWarning)
        case = run_case(mult, spectrum, seed=seed)
    assert case.conclusion == CONFIRMED
    setup = build_setup(mult, bridge._centred(spectrum))
    C = sample_coords(setup.m_tilde, seed, 53, 2)
    assert generic.in_R_mask(setup, C, "m_tilde", case.dims_m_tilde).all()
    assert case.okr_witness_coords == C[:, 1].tolist()
    assert [str(w.message) for w in caught] == [
        "pencil eigenvalue gap between the genuine and spurious cutoffs, "
        "dimension verdict is fragile"]


# negative controls: inputs on which the right verdict is INCONCLUSIVE, at a
# named stage; (1,2) still confirms with the truncated family, so it is no control
_TRUNCATED_INCOMPLETE = [(1, 1, 2), (1, 2, 3), (1, 1, 1, 2), (2, 2, 2), (1, 1, 1, 1, 2),
                         (2, 2), (1, 1, 4)]


@pytest.mark.parametrize("mult", _TRUNCATED_INCOMPLETE,
                         ids=[",".join(map(str, m)) for m in _TRUNCATED_INCOMPLETE])
def test_family_without_its_top_power_is_incomplete(monkeypatch, mult):
    real = bridge.build_family

    def below_top_power(setup, space):
        family = real(setup, space)
        return dataclasses.replace(
            family, members=tuple(m for m in family.members if m.k < setup.n))
    monkeypatch.setattr(bridge, "build_family", below_top_power)
    case = run_case(mult, range(1, len(mult) + 1), seed=0)
    assert case.conclusion == INCONCLUSIVE
    # (1,1,4) reduces once and its equivalent partition fails completeness
    direct = case.inner_case or case
    assert any(n.startswith("completeness failed on m:") for n in direct.notes)
    if case.inner_case is not None:
        assert case.notes == ["reduced case did not confirm"]


@pytest.mark.parametrize("mult", [(2, 2, 2), (1, 1, 1, 3)], ids=["2,2,2", "1,1,1,3"])
def test_nilpotent_witness_as_the_only_draw_is_no_kronecker_point(monkeypatch, mult):
    # x_pi with unit scales passes the m_tilde screen, but its singular form
    # has a kernel larger than r on m(x)
    spectrum = range(1, len(mult) + 1)
    x_pi = build_x_pi(root_split(build_setup(mult, bridge._centred(spectrum))))

    def only_x_pi(space, seed, stream, samples):
        assert stream == 53
        return x_pi.coords[:, None]
    monkeypatch.setattr(bridge, "sample_coords", only_x_pi)
    case = run_case(mult, spectrum, seed=0)
    assert case.conclusion == INCONCLUSIVE
    assert case.notes == ["no Kronecker point found in the fixed part within budget: "
                          f"1 of {bridge._OKR_ATTEMPTS} draws generic on m_tilde"]


def test_failed_regular_element_test_names_its_stage(monkeypatch):
    monkeypatch.setattr(bridge, "regular_in_kprime_test", lambda *args: False)
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=0)
    assert case.regular_kprime is False
    assert case.conclusion == INCONCLUSIVE
    assert case.notes == ["regular-element test found no regular element of the "
                          "anti-fixed isotropy part"]


def test_involutivity_residual_above_tolerance_is_inconclusive(monkeypatch):
    monkeypatch.setattr(bridge, "involutivity_suite", lambda *args, **kwargs: 1e-6)
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=0)
    assert case.involutivity_residual == 1e-6
    assert case.conclusion == INCONCLUSIVE
    assert case.notes == ["involutivity failed on m_tilde: residual 1.0e-06 above 1e-09"]


def test_case_serializes():
    import json
    case = run_case((1, 1, 4), (1.0, 2.0, 3.0), seed=1)
    doc = case.to_dict()
    assert doc["inner_case"]["conclusion"] == CONFIRMED
    json.dumps(doc)


def test_inconclusive_rank_eight_case_says_why():
    # whatever (1^8) concludes, an INCONCLUSIVE verdict names its failed stage,
    # and a CONFIRMED or REDUCED verdict comes with no rank ambiguity warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankAmbiguityWarning)
        case = run_case((1,) * 8, range(1, 9), seed=42)
    if case.conclusion == INCONCLUSIVE:
        assert any(note.strip() for note in case.notes)
    else:
        assert not [w for w in caught if w.category is RankAmbiguityWarning]


# Integer, boolean, verdict and notes fields of run_case on small partitions,
# recorded while the setup spaces were still built with SVDs; the two-block
# cases, which reach the p = 2 pruning rule, were recorded while the family
# was still pruned by random probes.  A change of basis moves every sampled
# point and hence every float residual, but none of these fields may move.
PINNED_FIELDS = json.loads(
    Path(__file__).with_name("run_case_fields.json").read_text())
PINNED_CASES = [(1, 1, 2), (1, 1, 4), (1, 2, 3), (2, 2, 2), (1, 1, 1, 1),
                (2, 2), (1, 3), (3, 3)]
# the rest of sweep --max-n 6 at seed 0, recorded before its samples were
# evaluated as stacks, and the large benchmark cases at seed 42; (1^8) was
# recorded once run_case centred the spectrum, which decided it
PINNED_SEEDED = ([(tuple(part), 0) for n in range(2, 7) for part in _partitions(n)
                  if tuple(part) not in PINNED_CASES]
                 + [((2, 3, 3), 42), ((3, 3, 3), 42), ((1, 1, 6), 42),
                    ((1,) * 8, 42)])


def decided_fields(obj, key=None):
    """The integer, boolean, ``conclusion`` and ``notes`` fields of a report,
    nested as in it."""
    if key == "notes":
        return list(obj)
    if isinstance(obj, dict):
        return {k: decided_fields(v, k) for k, v in obj.items()
                if _is_decided(v, k)}
    if isinstance(obj, (list, tuple)):
        return [decided_fields(v) for v in obj if _is_decided(v)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _is_decided(v, key=None):
    return (isinstance(v, (dict, list, tuple, bool, np.bool_, int, np.integer))
            or key == "conclusion")


def _pinned_key(mult, seed):
    return f"{','.join(map(str, mult))} seed {seed}"


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("mult", PINNED_CASES)
def test_decided_fields_are_pinned(mult, seed):
    _assert_pinned(mult, seed)


@pytest.mark.parametrize("mult, seed", PINNED_SEEDED,
                         ids=[f"{','.join(map(str, m))}-{s}" for m, s in PINNED_SEEDED])
def test_more_decided_fields_are_pinned(mult, seed):
    _assert_pinned(mult, seed)


def _assert_pinned(mult, seed):
    case = run_case(mult, tuple(float(j + 1) for j in range(len(mult))), seed=seed)
    assert decided_fields(case.to_dict()) == PINNED_FIELDS[_pinned_key(mult, seed)]


SWEEP_N6 = [tuple(part) for n in range(2, 7) for part in _partitions(n)]


@pytest.mark.parametrize("mult", SWEEP_N6, ids=[",".join(map(str, m)) for m in SWEEP_N6])
def test_decided_fields_do_not_depend_on_spectrum_scale_or_shift(mult):
    base = [float(j + 1) for j in range(len(mult))]
    want = decided_fields(run_case(mult, base, seed=0).to_dict())
    spectra = ([[c * s for s in base] for c in (1e-4, 1e-2, 1e2, 1e4)]
               + [[s + t for s in base] for t in (100.0, 1e4)])
    for spectrum in spectra:
        case = run_case(mult, spectrum, seed=0)
        assert case.spectrum == tuple(spectrum)
        assert decided_fields(case.to_dict()) == want, spectrum


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("mult", [(1,) * 8, (1,) * 6 + (2,)], ids=["1^8", "1^6,2"])
def test_rank_eight_cases_confirm_without_ambiguity(mult, seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RankAmbiguityWarning)
        case = run_case(mult, range(1, len(mult) + 1), seed=seed)
    assert case.conclusion == CONFIRMED
    assert not [w for w in caught if w.category is RankAmbiguityWarning]


def _count_decisions(monkeypatch) -> Counter:
    """Decisions per point: ``m_of_x`` per (point, space), through every
    suborbit module that holds it, and per (point, algebra) the centralizer
    ranks that ``in_R_mask`` (so also ``is_in_R``) decides on the ambient and
    the isotropy algebra of its pair for each column of its stack, through
    every module, and ``centralizer_dim`` and ``centralizer`` in ``generic``."""
    calls = Counter()

    def point(x):
        return np.asarray(getattr(x, "matrix", x)).tobytes()

    def slice_keys(setup, x, space):
        return [("m_of_x", point(x), space if isinstance(space, str) else space.name)]

    def rank_keys(setup, x, space, dims):
        pair = setup.pair(space)
        return [("rank", point(x), S.basis.tobytes()) for S in (pair.g, pair.k)]

    def mask_keys(setup, C, space, dims):
        return [key for c in C.T
                for key in rank_keys(setup, coords_to_matrix(c, setup.n), space, dims)]

    def dim_keys(x, within, *args):
        return [("rank", point(x), within.basis.tobytes())]

    in_generic_only = ("centralizer_dim", "centralizer")
    for name, keys in (("m_of_x", slice_keys), ("in_R_mask", mask_keys),
                       ("centralizer_dim", dim_keys), ("centralizer", dim_keys)):
        orig = getattr(generic, name)

        def counting(*args, _orig=orig, _keys=keys):
            calls.update(_keys(*args))
            return _orig(*args)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.startswith("suborbit") and getattr(mod, name, None) is orig
                    and (name not in in_generic_only or mod is generic)):
                monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("mult, conclusion", [((2, 2, 2), CONFIRMED),
                                              ((1, 1, 4), REDUCED)],
                         ids=["2,2,2", "1,1,4"])
def test_each_point_decision_is_made_once(monkeypatch, mult, conclusion):
    # the reduced anchor is decided generic for both pairs by perturb_into_R,
    # and reduction_data takes that as stated
    calls = _count_decisions(monkeypatch)
    case = run_case(mult, (1.0, 2.0, 3.0), seed=0)
    assert case.conclusion == conclusion
    assert {name for name, _, _ in calls} == {"rank", "m_of_x"}
    assert [k for k, c in calls.items() if c > 1] == []


def test_incomplete_span_on_m_is_inconclusive(monkeypatch):
    from dataclasses import replace
    real = bridge.completeness_check

    def incomplete_on_m(setup, family, x, dims):
        rep = real(setup, family, x, dims)
        return replace(rep, complete=False) if x.space == "m" else rep
    monkeypatch.setattr(bridge, "completeness_check", incomplete_on_m)
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=0)
    assert case.completeness_m["complete"] is False
    assert case.completeness_m_tilde["complete"] is True
    assert case.conclusion == INCONCLUSIVE
    assert case.notes == ["completeness failed on m: span_dim 4, target_dim 4, "
                          "isotropy_residual "
                          f"{case.completeness_m['isotropy_residual']:.1e}"]
