"""Exception types shared across the package."""


class HelfrichError(Exception):
    """Base class for all package-specific errors."""


class InvalidParams(HelfrichError, ValueError):
    """Parameter triple outside the domain a solver entry point requires."""


class InvalidSlope(HelfrichError, ValueError):
    """Initial slope w'(0) must be strictly positive."""


class EpsTooLarge(HelfrichError, ValueError):
    """Series start radius too large for the truncated expansion."""


class StepUnderflow(HelfrichError, RuntimeError):
    """Adaptive step size collapsed below the resolvable scale."""


class MissingEvent(HelfrichError, LookupError):
    """A trajectory lacks the event a query depends on."""


class NotBiconcave(HelfrichError, ValueError):
    """Operation requires a trajectory classified Biconcave."""


class OutOfRange(HelfrichError, ValueError):
    """Query point outside the trajectory's covered range."""
