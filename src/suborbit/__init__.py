"""Numerical verification toolkit for integrable flows on real suborbits of
unitary adjoint orbits."""

__version__ = "0.1.0"

from .linalg import (RANK_RTOL, RankAmbiguityWarning, Subspace, complement,
                     equal_spaces, full_space, intersect, span, subspace_residual,
                     sum_spaces)
from .lie import (LieElement, bracket, centralizer, centralizer_dim, conjugate,
                  pairing, project, sigma, subalgebra_center, unitary_exp)
from .orbit import (AlgebraPair, OrbitSetup, WitnessReport, block_scalar,
                    build_setup, build_witness_x0)
from .generic import (GenericDims, ReducedSetup, estimate_generic_dims, is_in_R,
                      m_of_x, perturb_into_R, reduction_data, sample_element)
from .invariants import (IntegralFamily, Member, build_family, completeness_check,
                         gradient, involutivity_suite, member_values,
                         poisson_bracket_can, shifted_invariant_eval)
from .pencil import (SINGULAR, KroneckerVerdict, PencilReport, form_matrix,
                     kronecker_test, pencil_isotropy_check)
from .momentmap import (MomentData, build_moment_data, m_a_estimate, moment_beta,
                        moment_differential, regular_in_kprime_test)
from .roots import (RootDatum, anchored_permutation, build_x_pi, root_split,
                    verify_regular_pencil)
from .flows import (FlowDivergenceError, FlowSpec, Trajectory, build_flow,
                    conservation_report, energy_drift, hamiltonian,
                    integrate_flow, lax_residual, phi_ab, phi_spectrum)
from .bridge import (CONFIRMED, INCONCLUSIVE, REDUCED, Budgets, VerificationCase,
                     run_case)

__all__ = [
    "__version__",
    "RANK_RTOL", "RankAmbiguityWarning", "Subspace", "complement", "equal_spaces",
    "full_space", "intersect", "span", "subspace_residual", "sum_spaces",
    "LieElement", "bracket", "centralizer", "centralizer_dim", "conjugate",
    "pairing", "project", "sigma", "subalgebra_center", "unitary_exp",
    "AlgebraPair", "OrbitSetup", "WitnessReport", "block_scalar", "build_setup",
    "build_witness_x0",
    "GenericDims", "ReducedSetup", "estimate_generic_dims", "is_in_R", "m_of_x",
    "perturb_into_R", "reduction_data", "sample_element",
    "IntegralFamily", "Member", "build_family", "completeness_check", "gradient",
    "involutivity_suite", "member_values", "poisson_bracket_can",
    "shifted_invariant_eval",
    "SINGULAR", "KroneckerVerdict", "PencilReport", "form_matrix",
    "kronecker_test", "pencil_isotropy_check",
    "MomentData", "build_moment_data", "m_a_estimate", "moment_beta",
    "moment_differential", "regular_in_kprime_test",
    "RootDatum", "anchored_permutation", "build_x_pi", "root_split",
    "verify_regular_pencil",
    "FlowDivergenceError", "FlowSpec", "Trajectory", "build_flow",
    "conservation_report", "energy_drift", "hamiltonian", "integrate_flow",
    "lax_residual", "phi_ab", "phi_spectrum",
    "CONFIRMED", "INCONCLUSIVE", "REDUCED", "Budgets", "VerificationCase",
    "run_case",
]
