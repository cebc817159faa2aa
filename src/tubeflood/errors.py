"""Exception types shared across the package, and the NumPy overflow guard.

The CLI maps these onto exit codes: ArgumentError -> 2,
InternalConsistencyError -> 4.
"""

from contextlib import contextmanager

import numpy as np


class ArgumentError(ValueError):
    """An argument or configuration value is outside its valid range."""


class ConvergenceError(RuntimeError):
    """An iterative solve did not converge.

    Nothing in the package raises this: the fixed-point solve is exact.
    The name stays importable for callers that still catch it.
    """


class InternalConsistencyError(RuntimeError):
    """A model invariant failed beyond its numerical tolerance."""


@contextmanager
def overflow_guard(what):
    """Run NumPy with over, invalid and divide raising, as ArgumentError.

    A value past the doubles comes from input too large (or small) for them.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ArgumentError(f"{what} overflows a double: {exc}") from exc
