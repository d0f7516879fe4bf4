"""JSON-safe conversion of numpy values and infinities, and the rule check
that every config block applies to its values, read from JSON or not."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError


def jsonable(value):
    """Convert numpy scalars/arrays and infinities into JSON-safe values.

    Infinities serialize as the strings "inf"/"-inf" (strict JSON has no
    representation for them)."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset, np.ndarray)):
        seq = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in seq]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    return value


def is_integer(value) -> bool:
    """An integer, Python or numpy, and not a bool (JSON ``true`` is no count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real number, Python or numpy, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_rules(values: dict, rules: dict, block: str) -> None:
    """Each value's rule from ``rules`` (field -> (test, rule named on
    refusal)); ConfigError names ``block`` and the first field that breaks
    its rule.  Types come before values in every test, so a config file's
    "5" or true is refused, not compared."""
    for name, value in values.items():
        test, rule = rules[name]
        if not test(value):
            raise ConfigError(f"{block}: {name} must be {rule}, got {value!r}")


# rules that several config blocks share
INTEGER = (is_integer, "an integer")
POSITIVE_INTEGER = (lambda v: is_integer(v) and v >= 1, "a positive integer")
OPEN_UNIT = (lambda v: is_number(v) and 0 < v < 1, "a number in (0, 1)")
