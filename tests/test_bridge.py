"""The end-to-end decision tree."""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from suborbit import (Budgets, CONFIRMED, INCONCLUSIVE, REDUCED,
                      RankAmbiguityWarning, run_case)
from suborbit.cli import _partitions


def test_direct_case_112():
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=42)
    assert case.conclusion == CONFIRMED
    assert case.m_a_value == 3 == case.dims_m.r
    assert case.regular_kprime is True
    assert case.x_pi_regular is True
    assert case.kronecker["kronecker"] is True
    assert case.completeness_mt["complete"] is True
    assert case.completeness_mt["span_dim"] == 3
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


def test_budget_exhaustion_is_inconclusive():
    case = run_case((1, 1, 2), (1.0, 2.0, 3.0), seed=0,
                    budgets=Budgets(okr_attempts=0))
    assert case.conclusion == INCONCLUSIVE
    assert any("budget" in note for note in case.notes)


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
# evaluated as stacks, and the decided partitions of the large benchmark
# cases at seed 42; (1^8) is left out, its verdict sits at the rank noise floor
PINNED_SEEDED = ([(tuple(part), 0) for n in range(2, 7) for part in _partitions(n)
                  if tuple(part) not in PINNED_CASES]
                 + [((2, 3, 3), 42), ((3, 3, 3), 42), ((1, 1, 6), 42)])


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


@pytest.mark.parametrize("field, value", [
    ("dim_samples", 9), ("lambda_samples", -1), ("okr_attempts", -1),
    ("moment_samples", 0)])
def test_budgets_reject_values_below_their_least(field, value):
    with pytest.raises(ValueError, match=field):
        Budgets(**{field: value})
