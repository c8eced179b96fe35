"""Verification and computation for moments of symmetric-power Hecke
eigenvalues: exact composition-count coefficients, certified polynomial
identities, local Euler factor expansions, error-term exponents, and a
desk-scale partial-sum harness around the weight-12 eigenform."""

import importlib

from . import combinatorics, euler, exponents, symbolic
from .errors import CapacityError, ConsistencyError, FitError

# the numpy layers load on first access, so the exact core starts without numpy
_LAZY = ("hecke", "sums")

__version__ = "0.1.0"

__all__ = [
    "combinatorics",
    "symbolic",
    "hecke",
    "euler",
    "exponents",
    "sums",
    "CapacityError",
    "ConsistencyError",
    "FitError",
    "__version__",
]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
