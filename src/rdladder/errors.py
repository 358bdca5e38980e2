"""Exception types shared across the package."""


class RDLadderError(Exception):
    """Base class for all rdladder errors."""


class ValidationError(RDLadderError):
    """Invalid input: bad values, malformed files, unusable arguments."""


class InsufficientDataError(ValidationError):
    """Too few (distinct) data points for the requested operation."""


class CoverageError(ValidationError):
    """Measurements do not span the requested bitrate grid."""


class ConflictError(ValidationError):
    """Contradictory measurements for the same (gop, tier, bitrate)."""


class ParseError(ValidationError):
    """Malformed file content; message carries the offending location."""


class SchemaVersionError(ParseError):
    """Model file declares a schema version this build does not understand."""


class ConditioningError(RDLadderError):
    """A least-squares system was too ill-conditioned to trust."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition

