"""Exception types shared across the package."""


class SccckitError(Exception):
    """Base class for all library errors."""


class TypeMismatch(SccckitError):
    """Domain/codomain objects do not line up for the requested operation."""


class InvariantViolation(SccckitError):
    """A law that must hold in every model failed numerically."""


class AbsorptionMismatch(InvariantViolation):
    """The two unfoldings of a name disagree beyond tolerance."""


class NotPhaseEquivalent(SccckitError):
    """Phase witnesses requested for morphisms whose doubled forms differ."""


class NotProjector(SccckitError):
    """Probability requested against a map that is not a projector."""


class NotUnitary(SccckitError):
    """A measurement was built from a non-unitary morphism."""


class SemiringLawViolation(SccckitError):
    """A sampled semiring element broke one of the required laws."""


class CriterionDisagreement(SccckitError):
    """The three phase-quotient equality criteria returned mixed answers."""


class RootUnavailable(SccckitError):
    """A scalar power was requested that has no unique nonnegative value."""


class NumericRange(SccckitError):
    """A value outside the range of a float: a scalar power that overflows,
    or an entry or doubled form that is not finite."""
