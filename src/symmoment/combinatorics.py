"""Bounded-composition coefficients and their first differences.

c_m(l, j) counts ordered ways to write m as a sum of l integers, each in
[0, j]; equivalently it is the coefficient of x^m in (1 + x + ... + x^j)^l.
The vector (c_0, ..., c_lj) is palindromic and unimodal, and its first
differences d_m = c_m - c_{m-1} (written e_m when lj is odd) are the weights
that expand an l-th power of a symmetric-power coefficient in the
symmetric-power basis.

Two independent routes compute c_m: repeated exact polynomial convolution
(`coeffs_bruteforce`, the oracle) and an inclusion-exclusion binomial sum
(`coeffs_closed_form`). All arithmetic is arbitrary-precision integer; the
values overflow 32-bit words already at l = j = 8.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .errors import CapacityError

#: Default ceiling on l*j; bounds the degree of every downstream exact
#: polynomial identity.
DEFAULT_CAP = 64


class Kind(enum.Enum):
    C = "C"
    D = "D"
    E = "E"


@dataclass(frozen=True)
class CoeffVector:
    """An exact coefficient vector attached to a pair (l, j).

    kind C holds c_0..c_lj; kind D (even lj) holds d_0..d_{lj/2}; kind E
    (odd lj) holds e_0..e_{(lj-1)/2}.
    """

    l: int
    j: int
    kind: Kind
    values: tuple[int, ...]

    @property
    def lj(self) -> int:
        return self.l * self.j

    @property
    def half(self) -> int:
        return self.lj // 2

    def __getitem__(self, m: int) -> int:
        return self.values[m]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class StructureReport:
    palindromic: bool
    unimodal: bool
    total: int


def _check_pair(l: int, j: int, cap: int) -> None:
    if l < 1 or j < 1:
        raise ValueError(f"l and j must be positive integers, got l={l}, j={j}")
    if l * j > cap:
        raise CapacityError(f"l*j = {l * j} exceeds the size cap {cap}")


def _binom(n: int, r: int) -> int:
    """Binomial coefficient with C(n, r) = 0 whenever n < r or r < 0.

    In particular C(n, 0) = 1 only for n >= 0, which is what makes the
    closed form degenerate correctly at l = 1.
    """
    if r < 0 or n < r:
        return 0
    return math.comb(n, r)


def _incl_excl(l: int, j: int, top: int, k: int) -> tuple[int, ...]:
    """sum_{r=0}^{floor(m/(j+1))} (-1)^r C(l, r) C(m - r(j+1) + k, k), m = 0..top."""
    values = []
    for m in range(top + 1):
        acc = 0
        for r in range(m // (j + 1) + 1):
            term = _binom(l, r) * _binom(m - r * (j + 1) + k, k)
            acc += -term if r & 1 else term
        values.append(acc)
    return tuple(values)


def coeffs_bruteforce(l: int, j: int, cap: int = DEFAULT_CAP) -> CoeffVector:
    """Coefficients of (1 + x + ... + x^j)^l by l-fold exact convolution.

    This is the counting oracle: each convolution step is a direct
    enumeration of one more summand in [0, j].
    """
    _check_pair(l, j, cap)
    values = [1]
    for _ in range(l):
        out = [0] * (len(values) + j)
        for i, v in enumerate(values):
            for k in range(j + 1):
                out[i + k] += v
        values = out
    return CoeffVector(l=l, j=j, kind=Kind.C, values=tuple(values))


def coeffs_closed_form(l: int, j: int, cap: int = DEFAULT_CAP) -> CoeffVector:
    """Coefficients c_m by the inclusion-exclusion binomial sum.

    c_m = sum_{r=0}^{floor(m/(j+1))} (-1)^r C(l, r) C(m - r(j+1) + l - 1, l - 1).
    """
    _check_pair(l, j, cap)
    return CoeffVector(l=l, j=j, kind=Kind.C, values=_incl_excl(l, j, l * j, l - 1))


def diff_coeffs(c: CoeffVector) -> CoeffVector:
    """First differences d_m = c_m - c_{m-1} (with c_{-1} = 0) on 0..floor(lj/2).

    Returns kind D for even lj, kind E for odd lj. Unimodality of c makes
    every stored value nonnegative. The difference definition is the
    authoritative one; the binomial closed form (see
    `diff_coeffs_closed_form`) only applies for l >= 2.
    """
    if c.kind is not Kind.C:
        raise ValueError("diff_coeffs expects a kind-C vector")
    half = c.half
    values = tuple(c.values[m] - (c.values[m - 1] if m else 0) for m in range(half + 1))
    kind = Kind.D if c.lj % 2 == 0 else Kind.E
    return CoeffVector(l=c.l, j=c.j, kind=kind, values=values)


@functools.lru_cache(maxsize=None)
def weights(l: int, j: int, cap: int = DEFAULT_CAP) -> tuple[int, ...]:
    """The first-difference weights w_0..w_{floor(lj/2)} of (l, j).

    These are the values of `diff_coeffs(coeffs_bruteforce(l, j))`, cached
    per pair: the cap keeps the cache to a few hundred small tuples.
    """
    return diff_coeffs(coeffs_bruteforce(l, j, cap)).values


def diff_coeffs_closed_form(l: int, j: int, cap: int = DEFAULT_CAP) -> CoeffVector:
    """d_m (or e_m) by the binomial sum with lower index l - 2; needs l >= 2.

    d_m = sum_{r=0}^{floor(m/(j+1))} (-1)^r C(l, r) C(m - r(j+1) + l - 2, l - 2).
    For l = 1 the lower index would be -1 and the formula is undefined;
    use `diff_coeffs` there.
    """
    _check_pair(l, j, cap)
    if l < 2:
        raise ValueError("closed form for difference coefficients requires l >= 2")
    lj = l * j
    kind = Kind.D if lj % 2 == 0 else Kind.E
    return CoeffVector(l=l, j=j, kind=kind, values=_incl_excl(l, j, lj // 2, l - 2))


def structure_report(c: CoeffVector) -> StructureReport:
    """Check palindromicity and unimodality, and total the vector.

    For every valid kind-C vector both flags are true and the total is
    (j+1)^l; a false flag signals a library defect, not a usage error.
    """
    if c.kind is not Kind.C:
        raise ValueError("structure_report expects a kind-C vector")
    v = c.values
    lj = c.lj
    palindromic = all(v[m] == v[lj - m] for m in range(lj + 1))
    rise = all(v[m] <= v[m + 1] for m in range(lj // 2))
    fall = all(v[m] >= v[m + 1] for m in range(lj // 2, lj))
    return StructureReport(palindromic=palindromic, unimodal=rise and fall, total=sum(v))
