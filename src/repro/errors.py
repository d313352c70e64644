"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library is a subclass of :class:`ReproError`, so
callers can catch a single type at the API boundary.
"""

import math
import numbers
import reprlib


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphFormatError(ReproError):
    """An input graph (file or arrays) is malformed."""


class PartitionError(ReproError):
    """A vertex partition is inconsistent with the graph it describes."""


class CoarseningError(ReproError):
    """Coarsening preconditions were violated (e.g. non-SC component)."""


class BudgetExceededError(ReproError):
    """A configured resource budget (memory, simulations) was exceeded.

    The benchmark harness uses this to reproduce the paper's "OOM" rows
    without actually exhausting machine memory.
    """


class AlgorithmError(ReproError):
    """An influence-analysis algorithm received invalid parameters."""


class WireFormatError(ReproError):
    """A JSON request field has the wrong type (the serve endpoints' 400)."""


def json_int(value: object, field: str) -> int:
    """``value`` as an int if it is a JSON integer, else :class:`WireFormatError`.

    ``int()`` is not a type check: it truncates ``2.5`` to ``2``, reads
    ``true`` as ``1`` and ``"7"`` as ``7``, so a wrong field would be
    answered (or, for a mutation, applied) as some other integer.  Floats,
    bools, strings, arrays, objects and ``null`` are all rejected.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise WireFormatError(
        f"{field} must be an integer, got {reprlib.repr(value)}"
    )


def json_number(value: object, field: str) -> float:
    """``value`` as a float if it is a finite JSON number, else
    :class:`WireFormatError`.

    ``float()`` is not a type check either: it reads ``true`` as ``1.0``
    and ``"0.5"`` as ``0.5``, and Python's JSON parser turns the
    non-standard ``NaN``/``Infinity`` literals into floats no range check
    orders sensibly.  Bools, strings, arrays, objects, ``null`` and
    non-finite values are all rejected; integers are accepted.
    """
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)):
        return float(value)
    raise WireFormatError(
        f"{field} must be a finite number, got {reprlib.repr(value)}"
    )
