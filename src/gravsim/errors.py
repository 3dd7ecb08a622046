"""Exception types shared across the package."""


class GravsimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GravsimError):
    """Invalid input value or configuration; the message names the offending key path."""


class GeometryError(ValidationError):
    """Geometry constraint violated, such as a probe sitting on a mass site."""
