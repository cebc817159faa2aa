"""Exception types shared across the package.

The CLI maps these onto exit codes: ArgumentError -> 2,
InternalConsistencyError -> 4.
"""


class ArgumentError(ValueError):
    """An argument or configuration value is outside its valid range."""


class ConvergenceError(RuntimeError):
    """An iterative solve did not converge.

    The package's own fixed-point solve is exact and never raises this; the
    type stays for callers that catch it.  Carries the last iterate and its
    diagnostics in ``result``.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class InternalConsistencyError(RuntimeError):
    """A model invariant failed beyond its numerical tolerance."""
