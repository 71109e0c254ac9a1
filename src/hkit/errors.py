"""Exception taxonomy shared by all hkit modules."""


class HkitError(Exception):
    """Base class for every error this package raises on purpose."""


class ChartMismatch(HkitError):
    """Two expressions live on different coordinate charts and cannot mix."""


class SingularPoint(HkitError):
    """Evaluation hit a zero denominator (r = 0 or an axis factor = 0)."""


class BadDimension(HkitError):
    """An input vector has a length the requested map does not accept."""


class UndefinedAngle(HkitError):
    """Angular coordinates are not defined at this point (polar set)."""


class ZeroRadius(HkitError):
    """Spherical coordinates requested at the origin."""


class OrderingViolation(HkitError):
    """Representation labels are not in the required descending order."""


class InvalidQuantumNumbers(HkitError):
    """Quantum numbers outside the admissible lattice."""


class ExponentRange(HkitError):
    """A term exponent lies outside the range a packed integer key can hold."""


class TermBudgetExceeded(HkitError):
    """An exact expansion grew past its configured work budget."""


class GridTooCoarse(HkitError):
    """A discretized eigenproblem did not converge at the requested tolerance."""


class InterpolationFailure(HkitError):
    """A grid-to-grid transfer lost too much accuracy to certify the result."""


class ConfigError(HkitError):
    """A run configuration file or override could not be parsed or validated."""
