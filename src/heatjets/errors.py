"""Exception hierarchy for the heatjets package."""


class HeatjetsError(Exception):
    """Base class for all package-specific errors."""


class NonInvertibleConstantTerm(HeatjetsError):
    """A series inversion or logarithm hit a non-invertible constant term."""


class OrderExhausted(HeatjetsError):
    """A jet does not carry enough truncation order for the requested operation."""


class IndexOutOfRange(HeatjetsError):
    """Indices outside their admissible ranges: constant indices (n, k, s, m),
    or RhoPoly variables and exponents beyond the packed monomial layout."""


class DegenerateCurvatureCoordinates(HeatjetsError):
    """The Jacobian of (K, Laplacian K) vanishes at the base point."""


class TailNotConverged(HeatjetsError):
    """The dropped tail of a spectral sum exceeds the requested tolerance."""


class IllConditionedFit(HeatjetsError):
    """The extrapolation ladder lost all significant digits."""


class ValueTooLong(HeatjetsError):
    """An exact value has more digits than Python converts to text."""


class SchemaError(HeatjetsError):
    """Malformed metric-spec document.  `path` points at the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class InvalidMetric(HeatjetsError):
    """Structurally valid metric spec with inadmissible mathematical content."""
