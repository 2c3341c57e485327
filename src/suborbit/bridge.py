"""End-to-end verification of one partition: ties the generic dimensions, the
pencil verdicts, the moment-map criterion, the root-system witness, and the
reduction machinery into a single conclusion.

Decision tree, driven by the multiset structure of the partition:

* two blocks: the quotient is a symmetric space, where every invariant flow
  is integrable for classical reasons; the pencil machinery is still run and
  the conclusion requires an explicitly witnessed Kronecker point, so the
  symmetric note is attached to an honest numerical verdict;
* at least three blocks, largest at most the rest combined: direct route.
  The singular-form side is certified through the moment map criterion and
  the regular-elements test, the constant-rank side through the
  principal-nilpotent witness, and a concrete Kronecker point in the fixed
  part is found by sampling and checked for completeness;
* at least three blocks, dominant largest block: the minimal-isotropy witness
  anchors a reduction to the centralizer of its isotropy algebra, which is a
  unitary algebra on twice the small blocks plus the center; the verification
  recurses exactly once on the equivalent partition.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .generic import (GenericDims, estimate_generic_dims, is_in_R,
                      perturb_into_R, reduction_data, sample_element)
from .invariants import build_family, completeness_check, involutivity_suite
from .lie import LieElement
from .momentmap import build_moment_data, m_a_estimate, regular_in_kprime_test
from .orbit import build_setup, build_witness_x0
from .pencil import kronecker_test
from .roots import build_x_pi, root_split, verify_regular_pencil

CONFIRMED = "THM_2_6_CONFIRMED"
REDUCED = "REDUCED_PATH_USED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class Budgets:
    """Sampling budgets for one verification case."""

    dim_samples: int = 25
    lambda_samples: int = 20
    okr_attempts: int = 12
    moment_samples: int = 20

    def __post_init__(self):
        # zero okr attempts is a budget that is exhausted at once (INCONCLUSIVE)
        for name, least in (("dim_samples", 10), ("lambda_samples", 0),
                            ("okr_attempts", 0), ("moment_samples", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, "
                                 f"got {getattr(self, name)}")


@dataclass
class VerificationCase:
    """Everything produced while verifying one partition."""

    multiplicities: tuple[int, ...]
    spectrum: tuple[float, ...]
    seed: int
    n: int
    p: int
    dims_m: GenericDims | None = None
    dims_mt: GenericDims | None = None
    witness: dict | None = None
    x_pi_coords: list | None = None
    x_pi_regular: bool | None = None
    m_a_value: int | None = None
    regular_kprime: bool | None = None
    kronecker: dict | None = None
    okr_witness_coords: list | None = None
    flow_probe: dict | None = None
    completeness_m: dict | None = None
    completeness_mt: dict | None = None
    involutivity_residual: float | None = None
    reduction: dict | None = None
    inner_case: "VerificationCase | None" = None
    notes: list = field(default_factory=list)
    conclusion: str = INCONCLUSIVE

    def to_dict(self) -> dict:
        out = {
            "multiplicities": list(self.multiplicities),
            "spectrum": list(self.spectrum),
            "seed": self.seed,
            "n": self.n,
            "p": self.p,
            "dims_m": None if self.dims_m is None else asdict(self.dims_m),
            "dims_m_tilde": None if self.dims_mt is None else asdict(self.dims_mt),
            "witness": self.witness,
            "x_pi_coords": self.x_pi_coords,
            "x_pi_regular": self.x_pi_regular,
            "m_a_value": self.m_a_value,
            "regular_kprime": self.regular_kprime,
            "kronecker": self.kronecker,
            "okr_witness_coords": self.okr_witness_coords,
            "flow_probe": self.flow_probe,
            "completeness_m": self.completeness_m,
            "completeness_m_tilde": self.completeness_mt,
            "involutivity_residual": self.involutivity_residual,
            "reduction": self.reduction,
            "inner_case": self.inner_case.to_dict() if self.inner_case else None,
            "notes": list(self.notes),
            "conclusion": self.conclusion,
        }
        return out


def _canonicalize(multiplicities, spectrum):
    pairs = sorted(zip(multiplicities, spectrum), key=lambda t: t[0])
    mult = tuple(m for m, _ in pairs)
    spec = tuple(s for _, s in pairs)
    return mult, spec


def run_case(multiplicities, spectrum, b_spectrum=None, seed: int = 0,
             budgets: Budgets = Budgets(), rank_tol: float | None = None,
             _depth: int = 0) -> VerificationCase:
    """Run the full decision tree for one partition and spectrum.

    Returns a VerificationCase whose conclusion is CONFIRMED when a Kronecker
    point of the fixed part was explicitly witnessed and the gradient span is
    complete there, REDUCED when the dominant-block reduction was taken and
    the reduced case confirmed, and INCONCLUSIVE otherwise.
    """
    mult, spec = _canonicalize(multiplicities, spectrum)
    if len(mult) < 2:
        raise ValueError("need at least two blocks; one block gives a trivial quotient")
    if mult != tuple(multiplicities):
        note_order = "blocks reordered ascending (conjugation-equivalent setup)"
    else:
        note_order = None
    setup = build_setup(mult, spec) if rank_tol is None else build_setup(
        mult, spec, rank_tol)
    case = VerificationCase(mult, spec, seed, setup.n, len(mult))
    if note_order:
        case.notes.append(note_order)
    try:
        _run_decision_tree(setup, case, seed, budgets, rank_tol, _depth)
    except (ValueError, RuntimeError) as exc:
        # input validation happened before this point, so anything raised here
        # is a numerical-state failure of the verification itself
        case.conclusion = INCONCLUSIVE
        case.notes.append(f"verification aborted: {exc}")
        return case
    if b_spectrum is not None and case.okr_witness_coords is not None:
        case.flow_probe = _flow_probe(setup, b_spectrum, case)
    return case


def _flow_probe(setup, b_spectrum, case: VerificationCase) -> dict:
    """Flow operator spectrum plus a one-point shifted-bracket check."""
    from .flows import build_flow, hamiltonian, lax_residual, phi_spectrum
    spec = build_flow(setup, b_spectrum, "m_tilde")
    x = LieElement.from_coords(np.asarray(case.okr_witness_coords), setup.n)
    return {
        "b_spectrum": [float(v) for v in b_spectrum],
        "phi_spectrum": phi_spectrum(spec).tolist(),
        "energy_at_witness": hamiltonian(spec, x),
        "lax_residual_at_witness": lax_residual(spec, x, 0.5 + 0.5j),
    }


def _run_decision_tree(setup, case: VerificationCase, seed,
                       budgets: Budgets, rank_tol, _depth: int):
    mult, spec = case.multiplicities, case.spectrum
    dims_m = estimate_generic_dims(setup, "m", budgets.dim_samples, seed)
    dims_mt = estimate_generic_dims(setup, "m_tilde", budgets.dim_samples, seed)
    case.dims_m, case.dims_mt = dims_m, dims_mt
    if not (dims_m.stabilized and dims_mt.stabilized):
        case.notes.append("generic dimension estimates did not stabilize")
        return

    p = len(mult)
    dominant = max(mult) > sum(mult) - max(mult)

    if p == 2:
        case.notes.append(
            "two-block case: the quotient is a symmetric space, every invariant "
            "Hamiltonian flow on it is integrable; the pencil verdict below is "
            "independent numerical confirmation")
        _direct_verification(setup, case, budgets, seed,
                             run_moment=(dims_m.p == setup.z_of_g.dim),
                             run_x_pi=not dominant)
        return

    if not dominant:
        _direct_verification(setup, case, budgets, seed, run_moment=True,
                             run_x_pi=True)
        return

    # dominant largest block: reduce once
    if _depth >= 1:
        case.notes.append("nested reduction requested; refusing beyond depth one")
        return
    x0, wrep = build_witness_x0(setup, seed)
    case.witness = _witness_dict(x0, wrep)
    x0g, radius = perturb_into_R(setup, x0, dims_m, dims_mt, seed)
    case.witness["perturbation_radius"] = radius
    red = reduction_data(setup, x0g, dims_m, dims_mt, seed=seed)
    n1 = sum(mult[:-1])
    expected_dim_g0 = (2 * n1) ** 2 + 1
    case.reduction = {
        "dim_g0": red.g0.dim,
        "rank_g0": red.rank_g0,
        "dim_z_g0": red.z_g0.dim,
        "r_m": red.r_m,
        "r_m0": red.dims_m0.r,
        "dim_m0_tilde": red.m0_tilde.dim,
        "checks": dict(red.checks),
        "matches_expected_form": red.g0.dim == expected_dim_g0 and red.z_g0.dim == 2,
        "equivalent_partition": list(mult[:-1]) + [n1],
    }
    if not all(red.checks.values()):
        case.notes.append("reduction consistency checks failed")
        return
    inner = run_case(list(mult[:-1]) + [n1], spec, None, seed, budgets,
                     rank_tol, _depth + 1)
    case.inner_case = inner
    if inner.conclusion == CONFIRMED:
        case.conclusion = REDUCED
        case.notes.append(
            "dominant block flattened onto the reduced subalgebra; the "
            "equivalent boundary partition confirmed directly")
    else:
        case.notes.append("reduced case did not confirm")


def _witness_dict(x0: LieElement, wrep) -> dict:
    return {
        "coords": x0.coords.tolist(),
        "centralizer_dim": wrep.centralizer_dim,
        "expected_dim": wrep.expected_dim,
        "chain_dim": wrep.chain_dim,
        "block_order": list(wrep.block_order),
        "case": wrep.case,
        "attempts": wrep.attempts,
    }


def _direct_verification(setup, case: VerificationCase, budgets: Budgets,
                         seed: int, run_moment: bool, run_x_pi: bool):
    """Direct route: witness, moment criterion, nilpotent witness, sampled
    Kronecker point, completeness at that point."""
    dims_m, dims_mt = case.dims_m, case.dims_mt

    x0, wrep = build_witness_x0(setup, seed)
    case.witness = _witness_dict(x0, wrep)

    if run_moment:
        data = build_moment_data(setup, "m")
        case.m_a_value = m_a_estimate(data, setup.m_tilde, dims_m,
                                      budgets.moment_samples, seed)
        case.regular_kprime = regular_in_kprime_test(setup, budgets.moment_samples,
                                                     seed)

    if run_x_pi:
        datum = root_split(setup)
        if datum.pi is not None:
            x_pi = build_x_pi(datum)
            case.x_pi_coords = x_pi.coords.tolist()
            case.x_pi_regular = verify_regular_pencil(
                setup, x_pi, budgets.lambda_samples, seed)

    verdict = None
    okr_point = None
    for i in range(budgets.okr_attempts):
        rng = np.random.default_rng([seed, 53, i])
        x = sample_element(setup.m_tilde, rng, setup.n)
        if not is_in_R(setup, x, "m_tilde", dims_mt):
            continue
        v = kronecker_test(setup, x, dims_m, budgets.lambda_samples, seed)
        if v.kronecker:
            verdict, okr_point = v, x
            break
    if verdict is None:
        case.notes.append("no Kronecker point found in the fixed part within budget")
        return
    case.kronecker = verdict.to_dict()
    case.okr_witness_coords = okr_point.coords.tolist()

    fam_t = build_family(setup, "m_tilde")
    fam_m = build_family(setup, "m")
    rep_t = completeness_check(setup, fam_t, okr_point, dims_mt)
    case.completeness_mt = asdict(rep_t)
    # kronecker_test found okr_point Kronecker only after is_in_R on m with dims_m
    case.completeness_m = asdict(completeness_check(setup, fam_m, okr_point, dims_m))
    case.involutivity_residual = involutivity_suite(fam_t, n_points=10, seed=seed)

    consistent = True
    if case.m_a_value is not None and case.m_a_value != dims_m.r:
        consistent = False
        case.notes.append("moment-route value disagrees with the generic defect")
    if case.regular_kprime is False:
        consistent = False
    if case.x_pi_regular is False:
        consistent = False
        case.notes.append("nilpotent witness failed the constant-rank sweep")
    if not rep_t.complete:
        case.notes.append(f"completeness failed on m_tilde: span_dim {rep_t.span_dim}, "
                          f"target_dim {rep_t.target_dim}")
    if rep_t.complete and verdict.kronecker and consistent:
        case.conclusion = CONFIRMED
