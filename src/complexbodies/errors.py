"""Exception types shared across the package.

Every error raised on a violated precondition is a subclass of
ComplexBodiesError so callers can catch the package's failures in one clause.
"""

from __future__ import annotations


class ComplexBodiesError(Exception):
    """Base class for all package errors."""


class ShapeMismatchError(ComplexBodiesError):
    """An array argument has the wrong shape for the requested operation."""


class SizeMismatchError(ComplexBodiesError):
    """Parts that must agree in number or dimension do not."""


class ProjectionUndefinedError(ComplexBodiesError):
    """Nearest-point projection onto the manifold is not defined at the input."""


class GeneratorUnavailableError(ComplexBodiesError):
    """The requested generator (rotation action, convexity form) is not defined."""


class WrongManifoldError(ComplexBodiesError):
    """The operation requires a specific descriptor manifold (unit sphere)."""


class NonTangentTestError(ComplexBodiesError):
    """A descriptor test field is not tangent to the manifold at the state."""


class InadmissibleStartError(ComplexBodiesError):
    """The minimizer was handed a state violating orientation or constraints."""


class ConfigError(ComplexBodiesError):
    """A scenario configuration file is malformed or inconsistent."""


class ScenarioFailedError(ComplexBodiesError):
    """A scenario run finished but an enabled verification check failed."""
