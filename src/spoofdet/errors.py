"""Exception types shared across the package, and the type check of the
configuration dataclasses that raises :class:`ConfigurationError`."""

import math
import numbers
from dataclasses import fields


class SpoofdetError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SpoofdetError, ValueError):
    """A configuration value is out of range or inconsistent."""


class CapacityError(ConfigurationError):
    """A preamble pool cannot supply the requested number of sequences."""


class ClusterTableError(ConfigurationError):
    """A cluster table is malformed or incompatible with the link dimensions."""


class ShapeError(SpoofdetError, ValueError):
    """An array argument has an incompatible shape."""


class PilotDivisionError(SpoofdetError, ZeroDivisionError):
    """A pilot spectrum bin is zero, so least-squares division is undefined."""


class ExtractionError(SpoofdetError, RuntimeError):
    """Sparse fingerprint extraction failed (non-finite loss or degenerate input)."""


class InitializationError(ExtractionError):
    """The spectral initializer could not produce a usable starting point."""


class DegenerateFingerprintError(SpoofdetError, ValueError):
    """A fingerprint with zero norm was passed where a direction is required."""


class InsufficientDataError(SpoofdetError, ValueError):
    """An operation received fewer samples than it needs."""


def check_numeric_fields(config) -> None:
    """Check the number fields of a frozen config dataclass, in place.

    A field whose default is an ``int`` takes an integral number and is
    stored as ``int``; one whose default is a ``float`` takes any finite
    real number and is stored as ``float``, so equal settings compare, print
    and hash alike.  A string or a boolean is rejected, as YAML gives those
    for a quoted number or for ``true``/``false``; so are NaN and infinity
    (YAML's ``.nan`` and ``.inf``), which every range check lets through or
    misjudges, and, for a ``float`` field, an integer too large for a float.
    """
    for spec in fields(config):
        kind = type(spec.default)
        if kind not in (int, float):
            continue
        value = getattr(config, spec.name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigurationError(
                f"{spec.name} must be a number, got {value!r}"
            )
        try:
            finite = (
                kind is int and isinstance(value, numbers.Integral)
            ) or math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise ConfigurationError(
                f"{spec.name} must be finite, got {value!r}"
            )
        if kind is int and not (
            isinstance(value, numbers.Integral) or float(value).is_integer()
        ):
            raise ConfigurationError(
                f"{spec.name} must be an integer, got {value!r}"
            )
        object.__setattr__(config, spec.name, kind(value))
