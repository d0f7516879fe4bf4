"""JSON-safe conversion of numpy values and infinities, and the type tests
that config checks apply to values read from JSON."""

from __future__ import annotations

import math
import numbers

import numpy as np


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
