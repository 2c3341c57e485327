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

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .generic import (GenericDims, GenericPoint, estimate_generic_dims, is_in_R,
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


_OKR_ATTEMPTS = 12  # fixed-part points tried for a Kronecker point
_MOMENT_SAMPLES = 20  # samples of the moment route
# largest involutivity residual that still confirms; n <= 8 measures < 1e-15
_INVOLUTIVITY_TOL = 1e-9


@dataclass
class VerificationCase:
    """Everything produced while verifying one partition."""

    multiplicities: tuple[int, ...]
    spectrum: tuple[float, ...]
    seed: int
    n: int
    p: int
    dims_m: GenericDims | None = None
    dims_m_tilde: GenericDims | None = None
    witness: dict | None = None
    x_pi_coords: list | None = None
    x_pi_regular: bool | None = None
    m_a_value: int | None = None
    regular_kprime: bool | None = None
    kronecker: dict | None = None
    okr_witness_coords: list | None = None
    completeness_m: dict | None = None
    completeness_m_tilde: dict | None = None
    involutivity_residual: float | None = None
    reduction: dict | None = None
    inner_case: "VerificationCase | None" = None
    notes: list = field(default_factory=list)
    conclusion: str = INCONCLUSIVE

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(v):
    """A report value as JSON-ready lists and dicts; nested reports recurse."""
    if isinstance(v, (tuple, list)):
        return list(v)
    if isinstance(v, GenericDims):
        return asdict(v)
    if isinstance(v, VerificationCase):
        return v.to_dict()
    return v


def _canonicalize(multiplicities, spectrum):
    pairs = sorted(zip(multiplicities, spectrum), key=lambda t: t[0])
    mult = tuple(m for m, _ in pairs)
    spec = tuple(s for _, s in pairs)
    return mult, spec


def run_case(multiplicities, spectrum, seed: int = 0,
             dim_samples: int = 25, rank_tol: float | None = None,
             _depth: int = 0) -> VerificationCase:
    """Run the full decision tree for one partition and spectrum.

    Returns a VerificationCase whose conclusion is CONFIRMED when a Kronecker
    point of the fixed part was explicitly witnessed and the gradient spans
    on m and on m_tilde are complete there, REDUCED when the dominant-block
    reduction was taken and the reduced case confirmed, and INCONCLUSIVE
    otherwise.

    Replacing a by alpha*a + beta*iI (alpha > 0) changes neither k, nor the
    orbit, nor the span of the shifted family, so the verdict is decided on
    the spectrum mapped affinely onto [-1, 1]; the report keeps the input
    spectrum.

    ``dim_samples`` sizes the generic-dimension estimates and must be at
    least 10.
    """
    if dim_samples < 10:
        raise ValueError(f"dim_samples must be at least 10, got {dim_samples}")
    mult, spec = _canonicalize(multiplicities, spectrum)
    if len(mult) < 2:
        raise ValueError("need at least two blocks; one block gives a trivial quotient")
    if mult != tuple(multiplicities):
        note_order = "blocks reordered ascending (conjugation-equivalent setup)"
    else:
        note_order = None
    tol = {} if rank_tol is None else {"rank_tol": rank_tol}
    try:
        setup = build_setup(mult, _centred(spec), **tol)
    except RuntimeError as exc:
        if rank_tol is None:  # the self-checks hold at the default tolerance
            raise
        raise ValueError(f"rank tolerance {rank_tol:g} is unusable: {exc}") from exc
    case = VerificationCase(mult, spec, seed, setup.n, len(mult))
    if note_order:
        case.notes.append(note_order)
    try:
        _run_decision_tree(setup, case, seed, dim_samples, rank_tol, _depth)
    except (ValueError, RuntimeError) as exc:
        # input validation happened before this point, so anything raised here
        # is a numerical-state failure of the verification itself
        case.conclusion = INCONCLUSIVE
        case.notes.append(f"verification aborted: {exc}")
    return case


def _centred(spectrum) -> tuple:
    """The spectrum mapped affinely onto [-1, 1], as (s - mid) / half-width.

    A spectrum with fewer than two distinct finite values is returned as it
    is, for ``build_setup`` to refuse.
    """
    s = np.asarray(spectrum, dtype=float)
    lo, hi = s.min(), s.max()
    if not (np.all(np.isfinite(s)) and lo < hi):
        return tuple(spectrum)
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return tuple(float(v) for v in (s - mid) / half)


def _run_decision_tree(setup, case: VerificationCase, seed,
                       dim_samples: int, rank_tol, _depth: int):
    mult, spec = case.multiplicities, case.spectrum
    dims_m = estimate_generic_dims(setup, "m", dim_samples, seed)
    dims_mt = estimate_generic_dims(setup, "m_tilde", dim_samples, seed)
    case.dims_m, case.dims_m_tilde = dims_m, dims_mt
    if not (dims_m.stabilized and dims_mt.stabilized):
        case.notes.append("generic dimension estimates did not stabilize")
        return

    two_block = len(mult) == 2
    if two_block:
        case.notes.append(
            "two-block case: the quotient is a symmetric space, every invariant "
            "Hamiltonian flow on it is integrable; the pencil verdict below is "
            "independent numerical confirmation")
    if two_block or max(mult) <= sum(mult) - max(mult):
        _direct_verification(setup, case, seed)
        return

    # dominant largest block: reduce once
    if _depth >= 1:
        case.notes.append("nested reduction requested; refusing beyond depth one")
        return
    x0, wrep = build_witness_x0(setup, seed)
    case.witness = _witness_dict(x0, wrep)
    x0g, radius = perturb_into_R(setup, x0, dims_m, dims_mt, seed)
    case.witness["perturbation_radius"] = radius
    # perturb_into_R decided x0g generic for both pairs
    red = reduction_data(setup, GenericPoint(x0g, ("m", "m_tilde")), dims_m,
                         dims_mt, seed=seed)
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
    inner = run_case(list(mult[:-1]) + [n1], spec, seed, dim_samples,
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


def _direct_verification(setup, case: VerificationCase, seed: int):
    """Direct route: witness, moment criterion where the generic isotropy
    centralizer is z(g), nilpotent witness where the roots have a simple
    system (no dominant block), sampled Kronecker point, completeness there."""
    dims_m, dims_mt = case.dims_m, case.dims_m_tilde

    x0, wrep = build_witness_x0(setup, seed)
    case.witness = _witness_dict(x0, wrep)

    if dims_m.p == setup.z_of_g.dim:
        case.m_a_value = m_a_estimate(build_moment_data(setup), setup.m_tilde,
                                      dims_m, _MOMENT_SAMPLES, seed)
        case.regular_kprime = regular_in_kprime_test(setup)

    datum = root_split(setup)
    if datum.pi is not None:
        x_pi = build_x_pi(datum)
        case.x_pi_coords = x_pi.coords.tolist()
        case.x_pi_regular = verify_regular_pencil(setup, x_pi)

    verdict = None
    okr_point = None
    for i in range(_OKR_ATTEMPTS):
        rng = np.random.default_rng([seed, 53, i])
        x = sample_element(setup.m_tilde, rng, setup.n)
        if not is_in_R(setup, x, "m_tilde", dims_mt):
            continue
        v = kronecker_test(setup, x, dims_m, seed)
        if v.kronecker:
            verdict, okr_point = v, x
            break
    if verdict is None:
        case.notes.append("no Kronecker point found in the fixed part within budget")
        return
    case.kronecker = verdict.to_dict()
    case.okr_witness_coords = okr_point.coords.tolist()

    # the okr loop decided okr_point generic on m_tilde, and kronecker_test
    # on m, where it also built the slice; completeness decides neither again
    fam_t = build_family(setup, "m_tilde")
    fam_m = build_family(setup, "m")
    rep_t = completeness_check(setup, fam_t, GenericPoint(okr_point, "m_tilde"),
                               dims_mt)
    rep_m = completeness_check(setup, fam_m, verdict.point, dims_m)
    case.completeness_m_tilde = asdict(rep_t)
    case.completeness_m = asdict(rep_m)
    case.involutivity_residual = involutivity_suite(fam_t, n_points=10, seed=seed)

    consistent = True
    if case.m_a_value is not None and case.m_a_value != dims_m.r:
        consistent = False
        case.notes.append("moment-route value disagrees with the generic defect")
    if case.regular_kprime is False:
        consistent = False
        case.notes.append("regular-element test found no regular element of the "
                          "anti-fixed isotropy part")
    if case.x_pi_regular is False:
        consistent = False
        case.notes.append("nilpotent witness has no Hessenberg certificate")
    if case.involutivity_residual > _INVOLUTIVITY_TOL:
        consistent = False
        case.notes.append(f"involutivity failed on m_tilde: residual "
                          f"{case.involutivity_residual:.1e} "
                          f"above {_INVOLUTIVITY_TOL:.0e}")
    for name, rep in (("m_tilde", rep_t), ("m", rep_m)):
        if not rep.complete:
            case.notes.append(f"completeness failed on {name}: span_dim "
                              f"{rep.span_dim}, target_dim {rep.target_dim}, "
                              f"isotropy_residual {rep.isotropy_residual:.1e}")
    if rep_t.complete and rep_m.complete and verdict.kronecker and consistent:
        case.conclusion = CONFIRMED
