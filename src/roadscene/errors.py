"""Exception hierarchy shared across the package.

Two families matter to callers: `InputError` covers everything that is wrong
with the data or configuration handed to us (the CLI maps these to exit code
2), `ProcessingError` covers failures that arise while computing (exit code
1).  Every concrete error below picks one of the two bases.
"""


class RoadSceneError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RoadSceneError):
    """Precondition or validation failure on caller-supplied data."""


class ProcessingError(RoadSceneError):
    """Failure encountered while computing on valid-looking input."""


# --- geometry ---------------------------------------------------------------

class FrameMismatch(InputError):
    """Point and transform disagree about which pixel frame they live in."""


class DegeneratePoint(ProcessingError):
    """Projective map sent a point to the line at infinity."""


class SingularMatrix(ProcessingError):
    """Matrix is not invertible at working precision."""


class InvalidCamera(InputError):
    """Camera parameters outside their physical range."""


class InsufficientPairs(InputError):
    """Too few point pairs for the requested estimation."""


class DegenerateConfiguration(ProcessingError):
    """Point configuration admits no unique model (e.g. collinear sample)."""


# --- imaging ----------------------------------------------------------------

class ShapeMismatch(InputError):
    """Operands have incompatible image shapes."""


class EmptyImage(InputError):
    """Operation requires at least one pixel."""


class MalformedHeader(InputError):
    """PNM header does not parse or advertises an unsupported format."""


class TruncatedData(InputError):
    """PNM payload is shorter than the header promises."""


# --- calibration ------------------------------------------------------------

class InvalidProbability(InputError):
    """Probability argument outside (0, 1)."""


class InsufficientMatches(InputError):
    """Fewer correspondences than the minimal sample size."""


class NoConsensus(ProcessingError):
    """No model reached the required inlier support."""


class InsufficientTrajectories(InputError):
    """No trajectory that can constrain the distortion fit."""


# --- tracking / motion ------------------------------------------------------

class DegenerateDisplacement(ProcessingError):
    """Two coincident points define no direction."""


# --- road model -------------------------------------------------------------

class NoSeeds(InputError):
    """Region growing needs at least one usable seed."""


class EmptyMask(InputError):
    """Mask contains no foreground pixels."""


# --- cuboids / analytics ----------------------------------------------------

class MissingPrior(InputError):
    """No dimension prior registered for the requested class."""


class MissingCalibration(InputError):
    """Operation needs a ground scale that was never provided."""


class EmptyHeatMap(ProcessingError):
    """Rendering requires at least one recorded event."""


# --- pipeline ---------------------------------------------------------------

class InvalidSpec(InputError):
    """Scenario description is inconsistent or incomplete."""


class SchemaError(InputError):
    """A record stream violates its schema; message carries the line number."""


class ConfigError(InputError):
    """Configuration file does not parse; message carries the line number."""


class NonFiniteOutput(ProcessingError):
    """A value to be written is NaN or infinite, which no reader takes."""
