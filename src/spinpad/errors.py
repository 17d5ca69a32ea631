"""Exception types shared across the simulator layers, and the one strict
constructor that builds every config object from its JSON section."""

import math
import numbers
import sys
from dataclasses import fields, is_dataclass, replace


class SpinpadError(Exception):
    """Base class for all simulator errors."""


class InvalidParameterError(SpinpadError, ValueError):
    """A physical or numerical parameter is outside its valid domain."""


class NumericalFailureError(SpinpadError, ArithmeticError):
    """The integrator produced a non-finite or degenerate state."""


class InsufficientDataError(SpinpadError, ValueError):
    """Not enough usable points for a fit or an estimate."""


class InvalidFitError(SpinpadError, ValueError):
    """A log-error fit is unusable (wrong sign slope, degenerate input)."""


class ConfigError(SpinpadError, ValueError):
    """A config, calibration, or workload file failed validation."""


class OutOfRangeError(SpinpadError, ValueError):
    """A query point lies outside the calibrated/anchored range."""


class InvalidLayerError(SpinpadError, ValueError):
    """A layer specification is malformed (e.g. kernel larger than input)."""


class NotAGemmError(SpinpadError, ValueError):
    """The requested phase has no systolic GEMM view (vector-path only)."""


def check_int(name: str, value) -> None:
    """Reject a value that is not an integer, a bool included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


POSITIVE = math.ulp(0.0)  # as lo, check_range admits exactly the numbers > 0
FINITE = -sys.float_info.max  # as lo, check_range admits every finite number < hi


def check_range(name: str, value, lo: float, hi: float = math.inf) -> None:
    """Reject a value unless lo <= value < hi; NaN fails every comparison."""
    if not lo <= value < hi:
        raise InvalidParameterError(f"{name} = {value!r} is outside [{lo!r}, {hi!r})")


def config_from(base, section, where: str, **fixed):
    """Build a config dataclass from one JSON object section, strictly.

    base is the dataclass, or an instance of it whose values are the
    defaults; the section's keys are laid over them. `fixed` holds fields
    the caller has built itself, which the section may not set. A field
    whose default is itself a config object takes a nested section, built
    the same way. A section that is not an object, a key that names no
    field, and every error of construction are raised as ConfigError
    prefixed with `where`, the key path of the section.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {type(section).__name__}")
    unknown = set(section) - {f.name for f in fields(base)} - set(fixed)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
    values = dict(fixed)
    for key, value in section.items():
        default = getattr(base, key, None)
        nested = is_dataclass(default) and not isinstance(default, type)
        values[key] = config_from(default, value, f"{where}: {key}") if nested else value
    try:
        return base(**values) if isinstance(base, type) else replace(base, **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
