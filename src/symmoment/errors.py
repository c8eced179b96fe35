"""Exception types shared across the package.

Plain ``ValueError`` is used for bad arguments (out-of-domain l, j, weight,
and similar); the classes below cover the failure modes that need their
own exit codes in the command line front end.
"""


class CapacityError(ValueError):
    """A requested computation exceeds a configured size cap."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a defect, not bad input."""


class FitError(RuntimeError):
    """A least-squares fit could not be carried out (a negative degree,
    rank deficiency or too few points); reported rather than papered over."""
