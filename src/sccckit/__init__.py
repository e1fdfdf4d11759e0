"""Strongly compact closed categories over concrete matrix models.

The package builds dagger-compact structure (units, names, yanking), the
global-phase quotient with its three equality criteria, the partial additive
ortho-structure with derived sums, and the Born-rule axioms as executable
checks, together with a categorical teleportation protocol.

Names are exported lazily (PEP 562): ``import sccckit`` loads no submodule,
and a name imports its defining module on first use.  An interpreter that
writes no bytecode compiles each module it imports, and resolving a model
needs only the model layer, not the check tables and reports.  No name is
cached here, so each reads its module's current binding.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "CriterionDisagreement InvariantViolation NotPhaseEquivalent "
              "NotProjector NotUnitary NumericRange RootUnavailable SccckitError "
              "SemiringLawViolation TypeMismatch",
    "objects": "Dual Gen ObjectExpr Oplus Tensor UNIT Unit ZERO Zero dim dual "
               "format_object normalize parse_object",
    "semirings": "BOOLEAN COMPLEX NONNEG InvolutiveSemiring",
    "morphisms": "Morphism compose dagger direct_sum distance equal identity "
                 "lower_star scalar scalar_value star tensor zeros",
    "core": "born_prob bipartite_projector double hs_inner hs_norm_sq name "
            "partial_trace phase_witnesses scalar_mult trace unit yanking_composite",
    "ortho": "OplusDecomposition copairing decomposition derived_sum dist_left "
             "dist_right oplus_illdefined_witness pairing pseudo_component "
             "pseudo_injection pseudo_projection random_unitary zero_morphism",
    "models": "ModelHandle fdhilb rel_model resolve_model semiring_model weight_model",
    "wproj": "WProjModel canonical_rep lift wequal wequal_to",
    "born": "check_born_decomposition corrupted_trace scalar_sum valuation_norm",
    "protocols": "BranchTuple MeasurementSpec cc_map qubit run_teleportation "
                 "weighted_bit_collapse_witness",
    "report": "CheckResult VerificationReport from_json",
    "suites": "SUITE_NAMES run_suite",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, bound as if imported here
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
