"""Exception types shared across the simulator layers, the bound checks, and
the one strict constructor that builds every config object from its JSON
section.

One declaration per bound: a config dataclass declares each number's bound
once, on its field, with bounded(), and check_fields enforces every declared
bound. Only what a field cannot declare is written by hand: a function
argument, each element of a sequence, and a rule that ties fields together.
"""

import functools
import math
import numbers
import sys
from dataclasses import MISSING, field, fields, is_dataclass, replace


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
THROUGH_ONE = math.nextafter(1.0, math.inf)  # as hi, check_range admits 1.0 and below


def check_range(name: str, value, lo: float, hi: float = math.inf) -> None:
    """Reject a value unless it is a number, not a bool, with lo <= value < hi.

    NaN fails every comparison, and a value that does not compare with a
    number fails too. A closed upper end is hi = math.nextafter(end, math.inf)
    for a float and end + 1 for an integer.
    """
    try:
        if lo <= value < hi and value is not True and value is not False:
            return
    except (TypeError, ValueError):
        pass
    raise InvalidParameterError(
        f"{name} must be a finite number in [{lo!r}, {hi!r}), got {value!r}")


def bounded(lo: float, hi: float = math.inf, default=MISSING, integer: bool = False):
    """A dataclass field whose value check_fields keeps in [lo, hi), as an
    integer when `integer` is set."""
    return field(default=default, metadata={"bound": (lo, hi, integer)})


@functools.cache
def _bounds(cls) -> tuple:
    """(name, lo, hi, integer) of each bounded field of cls, in declaration order."""
    return tuple((f.name, *f.metadata["bound"]) for f in fields(cls) if "bound" in f.metadata)


def check_fields(obj) -> None:
    """Run check_int and check_range on each bounded field of a dataclass
    instance, in declaration order; a config's __post_init__ calls it."""
    for name, lo, hi, integer in _bounds(type(obj)):
        value = getattr(obj, name)
        if integer:
            check_int(name, value)
        check_range(name, value, lo, hi)


def config_from(base, section, where: str, **fixed):
    """Build a config dataclass from one JSON object section, strictly.

    base is the dataclass, or an instance of it whose values are the
    defaults; the section's keys are laid over them. `fixed` holds fields
    the caller has built itself; the section may not set one, so a key that
    names a fixed field is unknown. A field whose default is itself a config
    object takes a nested section, built the same way. A section that is not
    an object, a key that names no field, and every error of construction are
    raised as ConfigError prefixed with `where`, the key path of the section.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected an object, got {type(section).__name__}")
    unknown = set(section) - ({f.name for f in fields(base)} - set(fixed))
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
