"""Error-term exponents for moments of symmetric-power coefficients.

For the l-th moment of lam_sym^j over n <= x, the main term x P(log x)
carries an error O(x^theta). theta depends on (l, j) only through the
degree D = (j+1)^l and the top first-difference weights; the three
branches below are the lj = 4 seed case, the generic even case, and the
odd case. theta_star is the sharper exponent available in the even cases
at the delta -> 0 limit of its free parameter.

The even branch arises from balancing x^(1-1/j^3) T^A against x/T, where
A aggregates the convexity inputs; B = A minus the square-root saving on
the central L-factors, and B < A whenever that saving is present (top
weight d_half > 0).

`exponent_report` is the one public exponent function: it reads the top
weights once, computes the saving, theta, A, B and theta_star in one pass,
and raises ConsistencyError where the balancing identity
theta = 1 - 1/(j^3 (1 + A)) or an ordering invariant fails, or where theta
does not improve on the stored previously published exponent of its pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import combinatorics
from .errors import ConsistencyError

SQRT2 = math.sqrt(2.0)
SQRT15 = math.sqrt(15.0)
K_SAVING = 8.0 * SQRT15 / 63.0

BALANCE_TOL = 1e-12


def _top_weights(l: int, j: int):
    """(D, w_half, w_half_minus_1) from the first-difference vector w, lj >= 4.

    w is d for even lj, e for odd; only the even branch reads w_half_minus_1.
    """
    w = combinatorics.weights(l, j)
    half = (l * j) // 2
    return (j + 1) ** l, w[half], w[half - 1]


@dataclass(frozen=True)
class ExponentReport:
    """One pair's exponents. parity is "even4" (lj = 4), "evenBig" (even
    lj >= 6) or "odd"; A and B exist only for "evenBig", theta_star only
    for even lj. saving is 1 - theta as computed, positive even where theta
    rounds to 1.0."""

    l: int
    j: int
    parity: str
    D: int
    A: float | None
    B: float | None
    saving: float
    theta: float
    theta_star: float | None
    flags: tuple


def exponent_report(l: int, j: int) -> ExponentReport:
    """Every exponent of the pair in one pass, its consistency certified.

    Raises ValueError below lj = 4, and ConsistencyError if the balancing
    identity or an ordering invariant fails, or if theta does not improve
    on the pair's entry in PREVIOUS_EXPONENTS: a defect here, not bad input.
    """
    combinatorics.check_pair(l, j)
    lj = l * j
    if lj < 4:
        raise ValueError(f"l*j = {lj} below supported minimum 4")
    D, w_half, w_half_m1 = _top_weights(l, j)
    flags = []
    A = B = ts = None
    if lj % 2:
        parity = "odd"
        saving = 6.0 / (3 * D - 2 * w_half)
        flags.append("no-reference-value")
    elif lj == 4:
        parity = "even4"
        saving = 63.0 * SQRT2 / (252.0 * SQRT2 + 4.0 * SQRT15)
        ts = 0.75
        if (l, j) != (2, 2):
            # the seed constant is derived at (2, 2); other splits reuse it
            flags.append("extrapolated")
    else:
        parity = "evenBig"
        star_den = 315 * D - 315 * w_half - 189 * w_half_m1
        ts = 1.0 - 630.0 / star_den
        if w_half == 0:
            # l = 1: the sqrt-saving term vanishes and theta collapses to
            # theta_star; evaluate the shared expression so they agree in
            # floats bit for bit, not just mathematically
            saving = 630.0 / star_den
        else:
            j32 = j**1.5
            saving = 630.0 * j32 / (j32 * star_den + 80.0 * SQRT15 * w_half)
        j3 = float(j**3)
        root_saving = w_half * K_SAVING * j**-4.5
        A = (D - w_half - 3 * w_half_m1) / (2 * j3) + root_saving + 6 * w_half_m1 / (5 * j3) - 1.0
        B = A - root_saving
        off = 1.0 - saving - (1.0 - 1.0 / (j**3 * (1.0 + A)))
        if abs(off) > BALANCE_TOL:
            raise ConsistencyError(f"balancing identity off by {off!r} at (l={l}, j={j})")
        if B > A:
            raise ConsistencyError(f"B > A at (l={l}, j={j})")
    th = 1.0 - saving
    if j == 1:
        # the contour line 1 - 1/j^3 sits at the edge of the valid strip
        flags.append("j1-degenerate")
    # the range check reads the saving, so it stays strict where theta
    # alone rounds to 1.0 (j = 1, l >= 56)
    if not 0.0 < saving < 1.0:
        raise ConsistencyError(f"theta out of range at (l={l}, j={j}): 1 - {saving!r}")
    if ts is not None and ts > th:
        raise ConsistencyError(f"refined exponent exceeds theta at (l={l}, j={j})")
    previous = PREVIOUS_EXPONENTS.get((l, j))
    if previous is not None and th >= previous:
        raise ConsistencyError(f"no improvement over baseline at (l={l}, j={j})")
    return ExponentReport(
        l=l,
        j=j,
        parity=parity,
        D=D,
        A=A,
        B=B,
        saving=saving,
        theta=th,
        theta_star=ts,
        flags=tuple(flags),
    )


# comparison baseline: best previously published exponents, exact fractions
PREVIOUS_EXPONENTS = {
    (2, 2): Fraction(389, 509),
    (3, 2): Fraction(1367, 1487),
    (4, 2): Fraction(1483, 1523),
    (5, 2): Fraction(459, 463),
    (6, 2): Fraction(12237, 12272),
    (7, 2): Fraction(74069, 74139),
    (8, 2): Fraction(335197, 335302),
    (2, 3): Fraction(779, 899),
    (2, 4): Fraction(1319, 1439),
    (2, 5): Fraction(1979, 2099),
    (2, 6): Fraction(2759, 2879),
    (2, 7): Fraction(3659, 3779),
    (2, 8): Fraction(4679, 4799),
}


def reference_table() -> list:
    """Reports of the two comparison tables: varying l at j = 2, then
    varying j at l = 2, each certified by `exponent_report`."""
    pairs = [(l, 2) for l in range(2, 9)] + [(2, j) for j in range(2, 9)]
    return [exponent_report(l, j) for l, j in pairs]
