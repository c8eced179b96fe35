"""Verification and computation for moments of symmetric-power Hecke
eigenvalues: exact composition-count coefficients, certified polynomial
identities, local Euler factor expansions, error-term exponents, and a
desk-scale partial-sum harness around the weight-12 eigenform.

Every submodule loads on first access, as an attribute or by `import
symmoment.<name>`, so `import symmoment` loads only the error types. The
command line loads `combinatorics`, `symbolic` and `euler` for every
subcommand; `exponents`, and with it `fractions`, only for `exponents`;
`hecke`, and with it numpy, only for `tau`, `partial-sum` and float
`euler`, and `sums` only for `partial-sum`. No module but `hecke`
imports `dataclasses`.
"""

import importlib

from .errors import CapacityError, ConsistencyError, FitError

_LAZY = ("combinatorics", "symbolic", "hecke", "euler", "exponents", "sums")

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
