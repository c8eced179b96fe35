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
weight d_half > 0). `exponent_report` certifies the balancing identity
theta = 1 - 1/(j^3 (1 + A)) at build time.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import combinatorics
from .errors import ConsistencyError

SQRT2 = math.sqrt(2.0)
SQRT15 = math.sqrt(15.0)
K_SAVING = 8.0 * SQRT15 / 63.0

BALANCE_TOL = 1e-12


class Parity(Enum):
    EVEN4 = "even4"
    EVEN_BIG = "evenBig"
    ODD = "odd"


def _top_weights(l: int, j: int):
    """(D, w_half, w_half_minus_1) from the first-difference vector.

    w is d for even lj, e for odd; w_half_minus_1 is only meaningful in
    the even branch and is reported as 0 when lj = 2 leaves no such index.
    """
    w = combinatorics.weights(l, j)
    D = (j + 1) ** l
    half = (l * j) // 2
    w_half = w[half]
    w_half_m1 = w[half - 1] if half >= 1 else 0
    return D, w_half, w_half_m1


def _require_lj(l: int, j: int, minimum: int) -> int:
    if l < 1 or j < 1:
        raise ValueError(f"l and j must be positive, got ({l}, {j})")
    lj = l * j
    if lj < minimum:
        raise ValueError(f"l*j = {lj} below supported minimum {minimum}")
    return lj


def _star_saving(D: int, w_half: int, w_half_m1: int) -> float:
    """1 - theta_star; also the saving itself at l = 1, where w_half = 0."""
    return 630.0 / (315 * D - 315 * w_half - 189 * w_half_m1)


def _saving(l: int, j: int) -> float:
    """1 - theta, the saving below the trivial exponent 1.

    At j = 1 and l >= 56 it is below half an ulp of 1.0, so theta rounds
    to 1.0 there and only the saving itself shows that it is positive.
    """
    lj = _require_lj(l, j, 4)
    if lj == 4:
        return 63.0 * SQRT2 / (252.0 * SQRT2 + 4.0 * SQRT15)
    D, w_half, w_half_m1 = _top_weights(l, j)
    if lj % 2 == 0:
        if w_half == 0:
            # l = 1: the sqrt-saving term vanishes and theta collapses to
            # theta_star; evaluate the shared expression so they agree in
            # floats bit for bit, not just mathematically
            return _star_saving(D, w_half, w_half_m1)
        j32 = j**1.5
        den = j32 * (315 * D - 315 * w_half - 189 * w_half_m1) + 80.0 * SQRT15 * w_half
        return 630.0 * j32 / den
    return 6.0 / (3 * D - 2 * w_half)


def theta(l: int, j: int) -> float:
    """Error exponent of the l-th moment of lam_sym^j."""
    return 1.0 - _saving(l, j)


def theta_star(l: int, j: int) -> float:
    """Refined even-case exponent at the limit of its free parameter."""
    lj = _require_lj(l, j, 4)
    if lj % 2:
        raise ValueError(f"refined exponent needs even l*j, got {lj}")
    if lj == 4:
        return 0.75
    return 1.0 - _star_saving(*_top_weights(l, j))


def proof_exponents(l: int, j: int) -> tuple:
    """(A, B, T_exp) for the generic even branch (lj >= 6).

    A drives the balancing of the truncation parameter T = x^T_exp; B
    drops the central square-root saving and satisfies B <= A with
    equality exactly when the top weight vanishes (l = 1).
    """
    lj = _require_lj(l, j, 6)
    if lj % 2:
        raise ValueError(f"proof exponents need even l*j, got {lj}")
    D, w_half, w_half_m1 = _top_weights(l, j)
    j3 = float(j**3)
    saving = w_half * K_SAVING * j**-4.5
    A = (D - w_half - 3 * w_half_m1) / (2 * j3) + saving + 6 * w_half_m1 / (5 * j3) - 1.0
    return A, A - saving, _saving(l, j)


@dataclass(frozen=True)
class ExponentReport:
    l: int
    j: int
    parity: Parity
    D: int
    d_half: int | None
    d_half_minus_1: int | None
    e_half: int | None
    A: float | None
    B: float | None
    T_exp: float
    theta: float
    theta_star: float | None
    flags: tuple


def exponent_report(l: int, j: int) -> ExponentReport:
    """Full per-pair report with internal consistency certified.

    Raises ConsistencyError if the balancing identity or the ordering
    invariants fail; that indicates a defect here, not bad input.
    """
    lj = _require_lj(l, j, 4)
    D, w_half, w_half_m1 = _top_weights(l, j)
    flags = []
    saving = _saving(l, j)
    th = 1.0 - saving
    A = B = None
    if lj % 2:
        parity = Parity.ODD
        flags.append("no-reference-value")
    elif lj == 4:
        parity = Parity.EVEN4
        if (l, j) != (2, 2):
            # the seed constant is derived at (2, 2); other splits reuse it
            flags.append("extrapolated")
    else:
        parity = Parity.EVEN_BIG
        A, B, _ = proof_exponents(l, j)
        balanced = 1.0 - 1.0 / (j**3 * (1.0 + A))
        if abs(th - balanced) > BALANCE_TOL:
            raise ConsistencyError(
                f"balancing identity off by {th - balanced!r} at (l={l}, j={j})"
            )
        if B > A:
            raise ConsistencyError(f"B > A at (l={l}, j={j})")
    ts = None if lj % 2 else theta_star(l, j)
    if j == 1:
        # the contour line 1 - 1/j^3 sits at the edge of the valid strip
        flags.append("j1-degenerate")
    if not 0.0 < saving < 1.0:
        raise ConsistencyError(f"theta out of range at (l={l}, j={j}): 1 - {saving!r}")
    if ts is not None and ts > th:
        raise ConsistencyError(f"refined exponent exceeds theta at (l={l}, j={j})")
    return ExponentReport(
        l=l,
        j=j,
        parity=parity,
        D=D,
        d_half=None if lj % 2 else w_half,
        d_half_minus_1=None if lj % 2 else w_half_m1,
        e_half=w_half if lj % 2 else None,
        A=A,
        B=B,
        T_exp=1.0 - th,
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


@dataclass(frozen=True)
class ComparisonRow:
    table: str
    l: int
    j: int
    previous: Fraction
    theta: float
    theta_star: float
    improved: bool


def reference_table() -> list:
    """The two comparison tables: varying l at j = 2, varying j at l = 2.

    Every row must improve on the stored baseline and the refined column
    must not exceed theta; violations raise ConsistencyError.
    """
    rows = []
    specs = [("j=2", l, 2) for l in range(2, 9)]
    specs += [("l=2", 2, j) for j in range(2, 9)]
    for table, l, j in specs:
        prev = PREVIOUS_EXPONENTS[(l, j)]
        th = theta(l, j)
        ts = theta_star(l, j)
        improved = th < prev
        if not improved:
            raise ConsistencyError(f"no improvement over baseline at (l={l}, j={j})")
        if ts > th:
            raise ConsistencyError(f"refined exponent exceeds theta at (l={l}, j={j})")
        rows.append(
            ComparisonRow(
                table=table, l=l, j=j, previous=prev, theta=th, theta_star=ts,
                improved=improved,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# serialization

_ROW_FIELDS = ("l", "j", "parity", "D", "theta", "theta_star", "previous", "improved")


def report_row(report: ExponentReport) -> dict:
    """Flat schema row; previous/improved refer to the stored baseline."""
    prev = PREVIOUS_EXPONENTS.get((report.l, report.j))
    return {
        "l": report.l,
        "j": report.j,
        "parity": report.parity.value,
        "D": report.D,
        "theta": report.theta,
        "theta_star": report.theta_star,
        "previous": f"{prev.numerator}/{prev.denominator}" if prev else None,
        "improved": (report.theta < prev) if prev else None,
    }


def rows_to_csv(rows: list) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_ROW_FIELDS, lineterminator="\n")
    writer.writeheader()
    # csv writes None as an empty field and a float as its repr
    writer.writerows(rows)
    return buf.getvalue()


def rows_to_json(rows: list) -> str:
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
