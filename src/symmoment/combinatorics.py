"""Bounded-composition coefficients and their first differences.

c_m(l, j) counts ordered ways to write m as a sum of l integers, each in
[0, j]; equivalently it is the coefficient of x^m in (1 + x + ... + x^j)^l.
The vector (c_0, ..., c_lj) is palindromic and unimodal, and its first
differences d_m = c_m - c_{m-1} (written e_m when lj is odd) are the weights
that expand an l-th power of a symmetric-power coefficient in the
symmetric-power basis.

Two independent routes compute c_0..c_lj as a plain tuple: repeated exact
polynomial convolution (`coeffs_bruteforce`, the oracle) and an
inclusion-exclusion binomial sum (`coeffs_closed_form`); `weights` is the
one first-difference function. `check_coeffs` certifies a vector against
the closed form and the structure above and raises ConsistencyError where
it fails, so a caller only ever sees certified values, and `check_pair`
is the one rule for a pair (l, j). Integers are arbitrary precision: the
values overflow 32-bit words already at l = j = 8.
"""

from __future__ import annotations

import functools
import math

from .errors import CapacityError, ConsistencyError

#: Ceiling on l*j; bounds the degree of every downstream exact polynomial
#: identity.
LJ_CAP = 64


def check_pair(l: int, j: int) -> None:
    """ValueError unless l and j are positive; CapacityError past LJ_CAP."""
    if l < 1 or j < 1:
        raise ValueError(f"l and j must be positive integers, got l={l}, j={j}")
    if l * j > LJ_CAP:
        raise CapacityError(f"l*j = {l * j} exceeds the size cap {LJ_CAP}")


def coeffs_bruteforce(l: int, j: int) -> tuple[int, ...]:
    """Coefficients of (1 + x + ... + x^j)^l by l-fold exact convolution.

    This is the counting oracle: each convolution step is a direct
    enumeration of one more summand in [0, j].
    """
    check_pair(l, j)
    values = [1]
    for _ in range(l):
        out = [0] * (len(values) + j)
        for i, v in enumerate(values):
            for k in range(j + 1):
                out[i + k] += v
        values = out
    return tuple(values)


def coeffs_closed_form(l: int, j: int) -> tuple[int, ...]:
    """Coefficients c_m by the inclusion-exclusion binomial sum.

    c_m = sum_{r=0}^{floor(m/(j+1))} (-1)^r C(l, r) C(m - r(j+1) + l - 1, l - 1).
    Both binomials are ordinary: r <= lj/(j+1) < l, and m - r(j+1) >= 0.
    """
    check_pair(l, j)
    values = []
    for m in range(l * j + 1):
        acc = 0
        for r in range(m // (j + 1) + 1):
            term = math.comb(l, r) * math.comb(m - r * (j + 1) + l - 1, l - 1)
            acc += -term if r & 1 else term
        values.append(acc)
    return tuple(values)


@functools.lru_cache(maxsize=None)
def weights(l: int, j: int) -> tuple[int, ...]:
    """First differences w_m = c_m - c_{m-1} (with c_{-1} = 0) on 0..floor(lj/2).

    This is the d vector for even lj and the e vector for odd lj; the
    unimodality of c makes every value nonnegative. It is cached per pair:
    the cap keeps the cache to a few hundred small tuples. The difference
    definition is the authoritative one; the binomial closed form with
    lower index l - 2 (`weights_closed_form` in `tests/oracles.py`)
    only applies for l >= 2.
    """
    c = coeffs_bruteforce(l, j)
    return tuple(c[m] - (c[m - 1] if m else 0) for m in range(l * j // 2 + 1))


def check_coeffs(l: int, j: int, c: tuple[int, ...]) -> None:
    """Certify c as c_0..c_lj: the closed form, palindromic, unimodal, total (j+1)^l.

    Every valid (l, j) passes, so a failure is a defect in this library,
    not a usage error, and raises ConsistencyError.
    """
    if c != coeffs_closed_form(l, j):
        raise ConsistencyError("closed form disagrees with convolution oracle")
    lj = l * j
    if any(c[m] != c[lj - m] for m in range(lj + 1)):
        raise ConsistencyError(f"c is not palindromic at (l={l}, j={j})")
    # a palindromic vector that rises to the middle falls after it
    if any(c[m] > c[m + 1] for m in range(lj // 2)):
        raise ConsistencyError(f"c is not unimodal at (l={l}, j={j})")
    if sum(c) != (j + 1) ** l:
        raise ConsistencyError(f"c totals {sum(c)}, not (j+1)^l, at (l={l}, j={j})")
