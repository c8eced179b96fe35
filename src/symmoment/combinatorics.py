"""Bounded-composition coefficients and their first differences.

c_m(l, j) counts ordered ways to write m as a sum of l integers, each in
[0, j]; equivalently it is the coefficient of x^m in (1 + x + ... + x^j)^l.
The vector (c_0, ..., c_lj) is palindromic and unimodal, and its first
differences d_m = c_m - c_{m-1} (written e_m when lj is odd) are the weights
that expand an l-th power of a symmetric-power coefficient in the
symmetric-power basis.

One engine computes c_0..c_lj as a plain tuple, repeated exact polynomial
convolution (`coeffs_bruteforce`), and `weights` is the one first-difference
function. `check_coeffs` certifies a vector by the structure above and by
the identity sum_m c_m x^m = (1 + x + ... + x^j)^l at one integer point x
past every count, and raises ConsistencyError where it fails, so a caller
only ever sees certified values; `check_pair` is the one rule for a pair
(l, j). Integers are arbitrary precision: the values overflow 32-bit words
already at l = j = 8.
"""

import functools

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
    """Certify c as c_0..c_lj: lj + 1 entries, palindromic, unimodal, total
    (j+1)^l, and sum_m c_m x^m = (1 + x + ... + x^j)^l at x = 2^B.

    B is the bit length of (j+1)^l, so every count lies in [0, x), and so
    must each c_m. Base-x digits are unique, so the identity then holds
    exactly when c is the coefficient vector. A failure is a defect in this
    library, not a usage error, and raises ConsistencyError.
    """
    lj = l * j
    if len(c) != lj + 1:
        raise ConsistencyError(f"c has {len(c)} entries, not lj + 1, at (l={l}, j={j})")
    if any(c[m] != c[lj - m] for m in range(lj + 1)):
        raise ConsistencyError(f"c is not palindromic at (l={l}, j={j})")
    # a palindromic vector that rises to the middle falls after it
    if any(c[m] > c[m + 1] for m in range(lj // 2)):
        raise ConsistencyError(f"c is not unimodal at (l={l}, j={j})")
    if sum(c) != (j + 1) ** l:
        raise ConsistencyError(f"c totals {sum(c)}, not (j+1)^l, at (l={l}, j={j})")
    B = ((j + 1) ** l).bit_length()
    x = 1 << B
    value = 0
    for cm in reversed(c):
        value = (value << B) + cm
    if any(not 0 <= cm < x for cm in c) or value != ((x ** (j + 1) - 1) // (x - 1)) ** l:
        raise ConsistencyError(f"c is not [x^m] (1 + ... + x^j)^l at (l={l}, j={j})")
