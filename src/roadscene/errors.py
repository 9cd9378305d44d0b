"""Exception hierarchy shared across the package.

Two families matter to callers: `InputError` covers everything that is wrong
with the data or configuration handed to us (the CLI maps these to exit code
2), `ProcessingError` covers failures that arise while computing (exit code
1).  A concrete type below exists only where something tells it apart from
its family: the package catches it by name, or the README documents it.
"""


class RoadSceneError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RoadSceneError):
    """Precondition or validation failure on caller-supplied data."""


class ProcessingError(RoadSceneError):
    """Failure encountered while computing on valid-looking input."""


class DegeneratePoint(ProcessingError):
    """Projective map sent a point to the line at infinity."""


class SingularMatrix(ProcessingError):
    """Matrix is not invertible at working precision."""


class DegenerateConfiguration(ProcessingError):
    """Point configuration admits no unique model (e.g. collinear sample)."""


class EmptyHeatMap(ProcessingError):
    """Rendering requires at least one recorded event."""


class NonFiniteOutput(ProcessingError):
    """A value to be written is NaN or infinite, which no reader takes."""


class InvalidSpec(InputError):
    """Scenario description is inconsistent or incomplete."""


class SchemaError(InputError):
    """An input file breaks its format; the message names the file or the
    line."""


class ConfigError(InputError):
    """Configuration file does not parse; message carries the line number."""
