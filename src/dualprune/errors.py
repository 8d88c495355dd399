"""Exception hierarchy shared across the package, and its one integer rule.

The CLI maps these onto process exit codes: validation problems exit 2,
artifact/format problems exit 3, numeric failures (NaN/Inf) exit 4.
"""

from numbers import Integral


class DualPruneError(Exception):
    """Base class for all package errors."""


class ValidationError(DualPruneError):
    """Bad input: config values, shapes of user-supplied data, missing files."""


class ShapeError(ValidationError):
    """Tensor shape mismatch; the message names the op and the shapes."""


class ArtifactError(DualPruneError):
    """Corrupt or incompatible on-disk artifact (checkpoint, scores, mask)."""


class NumericError(DualPruneError):
    """Non-finite value where the contract requires finite results."""


def check_int(what: str, value, least: int) -> None:
    """Raise `ValidationError` unless `value` is an integer >= `least`.

    A bool is refused although Python counts it an int, and so is a float of
    integral value: neither is a count, a size or a seed.
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValidationError(f"{what} must be an int >= {least}, got {value!r}")
