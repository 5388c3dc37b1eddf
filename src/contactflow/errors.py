"""Exception types shared across the package."""


class ContactFlowError(Exception):
    """Base class for all package-specific errors."""


class ClosednessViolation(ContactFlowError):
    """The roof 1-form failed to be closed on some piece (non-unimodular piece)."""


class NonFinite(ContactFlowError):
    """A time or coordinate argument is NaN, infinite or out of its range."""


class PathDependence(ContactFlowError):
    """Numeric line integrals along homotopic paths disagree beyond tolerance."""


class UnnormalizedRegion(ContactFlowError):
    """A roof region holds no point of the grid its constant is normalized on."""


class ConeNotInvariant(ContactFlowError):
    """Expansion constants requested for a cone the map does not preserve."""


class ToleranceNotMet(ContactFlowError):
    """A quadrature error budget exceeds the requested tolerance."""


class EmptyCell(ContactFlowError):
    """A partition cell lies entirely above the roof."""


class NoiseFloor(ContactFlowError):
    """Too few correlation points above the noise floor to fit a decay rate."""


class HypothesisViolation(ContactFlowError):
    """Exponent preconditions of a norm inequality are not satisfied."""


class SupportEscape(ContactFlowError):
    """A mapped support leaves the computational cube."""


class PieceExplosion(ContactFlowError):
    """Stable-curve decomposition exceeded the piece-count cap."""


class ConfigError(ContactFlowError):
    """Experiment configuration is malformed; message names the key path."""
