"""Strongly compact closed categories over concrete matrix models.

The package builds dagger-compact structure (units, names, yanking), the
global-phase quotient with its three equality criteria, the partial additive
ortho-structure with derived sums, and the Born-rule axioms as executable
checks, together with a categorical teleportation protocol.
"""

from .errors import (AbsorptionMismatch, CriterionDisagreement,
                     InvariantViolation, NotPhaseEquivalent, NotProjector,
                     NotUnitary, NumericRange, RootUnavailable, SccckitError,
                     SemiringLawViolation, TypeMismatch)
from .objects import (Dual, Gen, ObjectExpr, Oplus, Tensor, UNIT, Unit, ZERO,
                      Zero, dim, dual, format_object, normalize, parse_object)
from .semirings import BOOLEAN, COMPLEX, NONNEG, InvolutiveSemiring
from .morphisms import (Morphism, compose, dagger, direct_sum, distance,
                        equal, identity, lower_star, scalar,
                        scalar_value, star, tensor, zeros)
from .core import (born_prob, bipartite_projector, double, hs_inner, hs_norm_sq,
                   name, partial_trace, phase_witnesses, scalar_mult, trace,
                   unit, yanking_composite)
from .ortho import (OplusDecomposition, decomposition, derived_sum, dist_left,
                    dist_right, oplus_illdefined_witness, pseudo_component,
                    pseudo_injection, pseudo_projection, zero_morphism)
from .models import (ModelHandle, copairing, fdhilb, pairing, random_unitary,
                     rel_model, resolve_model, semiring_model, weight_model)
from .wproj import WProjModel, canonical_rep, lift, wequal, wequal_to
from .born import (check_born_decomposition, corrupted_trace, scalar_sum,
                   valuation_norm)
from .protocols import (BranchTuple, MeasurementSpec, cc_map, qubit,
                        run_teleportation, weighted_bit_collapse_witness)
from .report import CheckResult, VerificationReport, from_json
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"
