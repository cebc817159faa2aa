"""Exception types shared across the package, and the NumPy overflow guard.

The CLI maps these onto exit codes: ArgumentError -> 2,
InternalConsistencyError -> 4.
"""

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


class overflow_guard:
    """Run NumPy with over, invalid and divide raising, as ArgumentError.

    A value past the doubles comes from input too large (or small) for them.
    A class, not a generator context manager: it is entered for every
    Measure and PumpHistory built, and a generator cost about as much as
    the errstate switch itself.  The previous error state is restored on
    every exit, and a nested guard's ArgumentError passes through the
    outer one unchanged.
    """

    __slots__ = ("what", "_state")

    def __init__(self, what):
        self.what = what
        self._state = np.errstate(over="raise", invalid="raise", divide="raise")

    def __enter__(self):
        self._state.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._state.__exit__(exc_type, exc, tb)
        if isinstance(exc, FloatingPointError):
            raise ArgumentError(f"{self.what} overflows a double: {exc}") from exc
        return False
