"""Exception taxonomy shared by all mfpod modules.

Each type carries the CLI's process exit code in ``exit_code``: validation
and storage failures exit 2, numerical failures 3, data-coverage failures 4.
"""


class MfpodError(Exception):
    """Base class for all mfpod errors."""

    exit_code = 2


class ValidationError(MfpodError):
    """Invalid configuration, parameters, shapes, or malformed inputs."""


class ShapeError(ValidationError):
    """Array dimensions incompatible with the requested operation."""


class DataError(ValidationError):
    """Payload contains non-finite or otherwise unusable values."""


class AlignmentError(ValidationError):
    """Paired series disagree in times, parameters, or column ordering."""


class ExtrapolationError(ValidationError):
    """Requested interpolation points fall outside the source span."""


class StorageError(MfpodError):
    """File I/O failure while persisting or loading an artifact."""


class FormatError(StorageError):
    """Bad magic, truncated payload or forged value in an artifact, or text not UTF-8."""


class InstabilityError(MfpodError):
    """A solver produced non-finite values; message names the step."""

    exit_code = 3


class TrainingError(MfpodError):
    """Optimization diverged or training inputs were unusable."""

    exit_code = 3


class CoverageError(MfpodError):
    """Reference data does not cover the requested test set."""

    exit_code = 4
