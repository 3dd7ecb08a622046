"""Exception types shared across the package, and the checks of the values they name.

Every configuration type checks its own fields with the functions below,
so a value means the same wherever it enters: from JSON, a sweep grid or a
direct call. A number is an int, float or numpy integer or floating value,
never a bool, and is finite; an integer is an int or numpy integer, never a
bool; a flag is a bool or numpy bool; a generator is a numpy Generator; a
list is any sequence that is not a string, or a numpy array with an axis;
a part of a composite type, such as the sensor of an EveConfig, is an
instance of its own type, which has checked its fields.
Each message starts with the key path of the value, such as "nonlinear.b"
or "limit.lambdaGrid[1]".
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


class GravsimError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GravsimError):
    """Invalid input value or configuration; the message names the offending key path."""


class GeometryError(ValidationError):
    """Geometry constraint violated, such as a probe sitting on a mass site."""


def is_number(value) -> bool:
    """Whether value is a number: an int, float or numpy integer or floating value, never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_number(value, path: str, *, low=None, high=None, above=None, below=None) -> float:
    """value as a finite float within the given bounds.

    low and high are inclusive bounds, above and below strict ones; an upper
    bound comes with a lower one.
    """
    if not is_number(value):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond double precision
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{path}: must be finite, got {value!r}")
    if (
        (low is not None and number < low)
        or (above is not None and number <= above)
        or (high is not None and number > high)
        or (below is not None and number >= below)
    ):
        if high is None and below is None:
            rule = f"be >= {low:g}" if above is None else f"be > {above:g}"
        else:
            opening = f"[{low:g}" if above is None else f"({above:g}"
            closing = f"{high:g}]" if below is None else f"{below:g})"
            rule = f"lie in {opening}, {closing}"
        raise ValidationError(f"{path}: must {rule}, got {value!r}")
    return number


def check_integer(value, path: str, minimum: int | None = None) -> int:
    """value as an int, at least minimum when one is given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value!r}")
    return int(value)


def check_flag(value, path: str) -> bool:
    """value as a bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValidationError(f"{path}: expected true or false, got {value!r}")
    return bool(value)


def check_generator(value, path: str) -> np.random.Generator:
    """value, which must be a numpy Generator (not a seed or a legacy RandomState)."""
    if not isinstance(value, np.random.Generator):
        raise ValidationError(f"{path}: expected a numpy Generator, got {value!r}")
    return value


def check_instance(value, cls: type, path: str) -> None:
    """Raise ValidationError unless value is an instance of cls."""
    if not isinstance(value, cls):
        raise ValidationError(f"{path}: expected an instance of {cls.__name__}, got {value!r}")


def is_list(value) -> bool:
    """Whether value is a list of values: a sequence or a numpy array with an axis, not a string."""
    if isinstance(value, (list, tuple)):  # the common case, without the Sequence ABC's check
        return True
    if isinstance(value, np.ndarray):
        return value.ndim > 0
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def check_numbers(values, path: str, **bounds) -> tuple[float, ...]:
    """values as a tuple of floats, element k checked by check_number as path[k].

    A list of plain finite floats is checked in one pass: float(v) is v
    for each, so its least and greatest elements pass check_number exactly
    when every element does. Any other list, or one that fails that pass,
    is checked element by element under the indexed paths.
    """
    if not is_list(values):
        raise ValidationError(f"{path}: expected a list of numbers, got {values!r}")
    if set(map(type, values)) == {float} and all(map(math.isfinite, values)):
        try:
            check_number(min(values), path, **bounds)
            check_number(max(values), path, **bounds)
            return tuple(values)
        except ValidationError:
            pass
    return tuple(check_number(v, f"{path}[{k}]", **bounds) for k, v in enumerate(values))
